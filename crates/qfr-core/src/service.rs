//! Long-running concurrent spectrum service.
//!
//! The batch workflows in [`crate::workflow`] run one system to completion
//! and exit. [`SpectrumService`] is the multi-tenant front end the ROADMAP
//! asks for on top of the content-addressed fragment cache: many
//! concurrent spectrum requests share
//!
//! - one [`qfr_sched::WorkerPool`] — every request's fragment computes run
//!   on the same fixed set of cores instead of oversubscribing the machine
//!   with per-request thread pools;
//! - one [`FragmentCache`] — a fragment computed for any request is served
//!   from memory to every other request with the same exact geometry key
//!   (bit-identical responses, so results never depend on *which* request
//!   computed a fragment first).
//!
//! Each request's coordinator thread splits its own fragments into pool
//! jobs of [`ServiceConfig::batch_window`] fragments, in job order, and
//! folds their responses into the request's Eq. (1) fold as they arrive
//! over one channel that belongs to the request.
//!
//! Admission control is deliberately simple: at most
//! [`ServiceConfig::max_active`] requests compute at once, at most
//! [`ServiceConfig::max_queued`] more wait, and anything beyond that is
//! rejected *at submission* with [`ServiceError::Saturated`] — the caller
//! sheds load instead of the service buffering unboundedly.
//!
//! Isolation contract: requests share only the cache and the pool. A
//! request's responses arrive only on its own channel, each tagged with its
//! index, so concurrent requests cannot bleed results into each other; the
//! no-bleed test pins this by checking service results bit-identical to
//! solo runs.
//!
//! Failure contract: a panic fails only its own request. A fragment
//! compute that panics ends its pool job (the pool survives) and drops the
//! job's sender; a panicking coordinator ends its thread. Either way the
//! request's [`RequestHandle::wait`] returns [`ServiceError::Lost`], and its
//! admission slot is given back.

use crate::pipeline::{self, Pipeline, SERVICE};
use crate::report::{RamanResult, RecoverySummary};
use crate::workflow::{EngineKind, WorkflowError};
use qfr_cache::FragmentCache;
use qfr_fragment::{Coupling, DecompositionParams, FragmentEngine};
use qfr_geom::MolecularSystem;
use qfr_solver::RamanOptions;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

// Accepted requests and enqueued fragments are pure functions of the
// submitted workload (when nothing is rejected), so they sit in the
// deterministic CI gate; rejections, peak concurrency and pool job counts
// depend on request overlap and stay timing-sensitive.
static REQUESTS: qfr_obs::Counter = qfr_obs::Counter::deterministic("service.requests");
static FRAGMENTS: qfr_obs::Counter = qfr_obs::Counter::deterministic("service.fragments");
static REJECTED: qfr_obs::Counter = qfr_obs::Counter::timing_sensitive("service.rejected");
static PEAK_IN_FLIGHT: qfr_obs::Counter =
    qfr_obs::Counter::timing_sensitive("service.peak_in_flight");
static BATCH_ROUNDS: qfr_obs::Counter = qfr_obs::Counter::timing_sensitive("service.batch_rounds");

/// One spectrum request: a system plus the decomposition and solver
/// options a standalone [`crate::RamanWorkflow`] would use.
#[derive(Debug, Clone)]
pub struct SpectrumRequest {
    /// The molecular system.
    pub system: MolecularSystem,
    /// Fragmentation parameters (λ etc.).
    pub params: DecompositionParams,
    /// Solver options (σ, Lanczos steps, GAGQ).
    pub raman: RamanOptions,
}

impl SpectrumRequest {
    /// A request with the workflow defaults.
    pub fn new(system: MolecularSystem) -> Self {
        Self { system, params: DecompositionParams::default(), raman: RamanOptions::default() }
    }

    /// Sets the two-body distance threshold λ (Å).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.params.lambda = lambda;
        self
    }

    /// Sets the Gaussian smearing σ (cm⁻¹).
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.raman.sigma = sigma;
        self
    }

    /// Sets the number of Lanczos steps per starting vector.
    pub fn lanczos_steps(mut self, k: usize) -> Self {
        self.raman.lanczos_steps = k;
        self
    }
}

/// Service shape: pool size, admission limits, batching window, engine
/// and the shared cache.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads in the shared compute pool.
    pub workers: usize,
    /// Requests computing concurrently; further admitted requests wait.
    pub max_active: usize,
    /// Admitted-but-waiting requests beyond `max_active`; past this,
    /// submission returns [`ServiceError::Saturated`].
    pub max_queued: usize,
    /// Fragments per pool job of one request.
    pub batch_window: usize,
    /// Per-fragment engine shared by all requests.
    pub engine: EngineKind,
    /// Shared fragment cache; `None` builds a fresh 256 MiB cache owned by
    /// the service.
    pub cache: Option<Arc<FragmentCache>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_active: 4,
            max_queued: 16,
            batch_window: 32,
            engine: EngineKind::ForceField,
            cache: None,
        }
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("max_active", &self.max_active)
            .field("max_queued", &self.max_queued)
            .field("batch_window", &self.batch_window)
            .field("engine", &self.engine)
            .field("shared_cache", &self.cache.is_some())
            .finish()
    }
}

/// Errors a service interaction can produce.
#[derive(Debug)]
pub enum ServiceError {
    /// Admission control rejected the request: `in_flight` requests were
    /// already admitted against a capacity of `capacity`
    /// (`max_active + max_queued`).
    Saturated {
        /// Requests admitted and not yet finished at rejection time.
        in_flight: usize,
        /// The admission capacity.
        capacity: usize,
    },
    /// The request's workflow failed validation.
    Workflow(WorkflowError),
    /// A fragment compute or the coordinator panicked.
    Lost,
    /// The request's coordinator thread could not be started (the OS
    /// refused a thread); the request was not admitted and its slot is
    /// free again.
    Spawn(std::io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Saturated { in_flight, capacity } => {
                write!(f, "service saturated: {in_flight} in flight, capacity {capacity}")
            }
            ServiceError::Workflow(e) => write!(f, "workflow error: {e}"),
            ServiceError::Lost => {
                write!(f, "request lost: a fragment compute or its coordinator panicked")
            }
            ServiceError::Spawn(e) => write!(f, "could not start the request coordinator: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A pending request's result slot: wait on it to get the spectrum.
#[derive(Debug)]
pub struct RequestHandle {
    id: u64,
    coordinator: std::thread::JoinHandle<Result<RamanResult, ServiceError>>,
}

impl RequestHandle {
    /// The request's service-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request finishes. The result arrives by joining
    /// the coordinator thread, so its allocator arena is back on the free
    /// list before the caller can submit again: closed-loop clients reuse
    /// arenas instead of growing a new one (and its retained heap) whenever
    /// a submit races the previous coordinator's exit.
    pub fn wait(self) -> Result<RamanResult, ServiceError> {
        self.coordinator.join().unwrap_or(Err(ServiceError::Lost))
    }
}

struct Admission {
    /// Admitted, not yet finished (computing + waiting).
    in_flight: usize,
    /// Currently computing (≤ `max_active`).
    running: usize,
}

/// A request's admitted slot, counted in `in_flight`. Dropping it gives
/// the slot back, so neither a coordinator that panics nor one that never
/// starts leaks capacity.
struct Reservation(Arc<ServiceInner>);

impl Reservation {
    /// Admits one more request, or sheds it with
    /// [`ServiceError::Saturated`] when `max_active + max_queued` are
    /// already in flight.
    fn admit(inner: &Arc<ServiceInner>) -> Result<Self, ServiceError> {
        let capacity = inner.config.max_active + inner.config.max_queued;
        let mut adm = inner.admission();
        if adm.in_flight >= capacity {
            REJECTED.incr();
            return Err(ServiceError::Saturated { in_flight: adm.in_flight, capacity });
        }
        adm.in_flight += 1;
        PEAK_IN_FLIGHT.record_max(adm.in_flight as u64);
        Ok(Self(Arc::clone(inner)))
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.0.admission().in_flight -= 1;
        self.0.admission_cv.notify_all();
    }
}

/// A request's claim on a running slot, taken once one is free: dropping
/// it gives the running slot back, also when the coordinator panics.
struct Running<'a>(&'a ServiceInner);

impl<'a> Running<'a> {
    /// Waits for a running slot; admitted requests beyond `max_active`
    /// wait here.
    fn wait(inner: &'a ServiceInner) -> Self {
        let mut adm = inner.admission();
        while adm.running >= inner.config.max_active {
            adm = inner.admission_cv.wait(adm).unwrap_or_else(PoisonError::into_inner);
        }
        adm.running += 1;
        Self(inner)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.admission().running -= 1;
        self.0.admission_cv.notify_all();
    }
}

struct ServiceInner {
    config: ServiceConfig,
    cache: Arc<FragmentCache>,
    engine: Arc<dyn FragmentEngine + Send + Sync>,
    pool: qfr_sched::WorkerPool,
    admission: Mutex<Admission>,
    admission_cv: Condvar,
    next_id: AtomicU64,
}

/// The concurrent spectrum service. Cheap to clone handles are not
/// provided; share it behind an `Arc` if several submitters need it.
pub struct SpectrumService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for SpectrumService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpectrumService").field("config", &self.inner.config).finish()
    }
}

impl SpectrumService {
    /// Builds the service: spawns the shared pool and (unless one was
    /// passed in) the shared cache.
    ///
    /// # Panics
    ///
    /// When `config.max_active` is 0: no request could ever start.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.max_active >= 1, "ServiceConfig::max_active must be at least 1");
        let cache = config
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(FragmentCache::with_capacity(256 << 20)));
        let engine = Arc::from(pipeline::make_engine(config.engine));
        let pool = qfr_sched::WorkerPool::new(config.workers);
        Self {
            inner: Arc::new(ServiceInner {
                config,
                cache,
                engine,
                pool,
                admission: Mutex::new(Admission { in_flight: 0, running: 0 }),
                admission_cv: Condvar::new(),
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// The shared fragment cache (inspect hit rates, pre-warm, or hand it
    /// to a batch [`crate::RamanWorkflow`] so offline runs and the service
    /// reuse each other's fragments).
    pub fn cache(&self) -> &Arc<FragmentCache> {
        &self.inner.cache
    }

    /// Requests admitted and not yet finished.
    pub fn in_flight(&self) -> usize {
        self.inner.admission().in_flight
    }

    /// Submits a request. Returns immediately: either a handle to wait
    /// on, [`ServiceError::Saturated`] when admission control sheds it, or
    /// [`ServiceError::Spawn`] when its coordinator thread cannot start.
    pub fn submit(&self, request: SpectrumRequest) -> Result<RequestHandle, ServiceError> {
        let reservation = Reservation::admit(&self.inner)?;
        REQUESTS.incr();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        // A failed spawn drops the closure, and with it the reservation.
        let coordinator = std::thread::Builder::new()
            .name(format!("qfr-serve-{id}"))
            .spawn(move || {
                // Both guards drop before the result is joined, so a caller
                // who saw its request finish also sees the capacity freed.
                let _running = Running::wait(&reservation.0);
                reservation.0.serve(request)
            })
            .map_err(ServiceError::Spawn)?;
        Ok(RequestHandle { id, coordinator })
    }
}

impl ServiceInner {
    /// The admission state. It stays usable after a panic elsewhere: no
    /// code panics while holding the lock, so the state is never torn.
    fn admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serves one request end to end on its coordinator thread: the shared
    /// pipeline stages, with this request's pool jobs as the response
    /// executor — the coordinator blocks on its channel without holding a
    /// pool worker.
    fn serve(&self, request: SpectrumRequest) -> Result<RamanResult, ServiceError> {
        let SpectrumRequest { system, params, raman } = &request;
        let (mut pipeline, decomposition, adjacency) =
            Pipeline::prepare(&SERVICE, system, *params, self.config.engine, raman)
                .map_err(ServiceError::Workflow)?;
        let jobs = &decomposition.jobs;
        FRAGMENTS.add(jobs.len() as u64);

        let coupling = Coupling::of(&*self.engine, system, &adjacency);
        let (mw, cache_hits) = pipeline.assemble_in_core(jobs, coupling, |fold| {
            // One pool job per window of this request's fragments, in job
            // order; each sends `(index, response, hit)` per fragment.
            let (tx, rx) = mpsc::channel();
            let window = self.config.batch_window.max(1);
            let mut frags =
                jobs.iter().map(|job| job.structure_with(system, &adjacency)).enumerate();
            for _ in 0..jobs.len().div_ceil(window) {
                let batch: Vec<_> = frags.by_ref().take(window).collect();
                let (cache, engine, tx) =
                    (Arc::clone(&self.cache), Arc::clone(&self.engine), tx.clone());
                self.pool.submit(move || {
                    BATCH_ROUNDS.incr();
                    for (index, frag) in batch {
                        let (resp, hit) = pipeline::response(Some(&cache), &*engine, &frag);
                        let _ = tx.send((index, resp, hit));
                    }
                });
            }
            drop(tx);
            // Exactly one message per fragment, folded as it arrives; every
            // sender gone before that means a job panicked.
            let mut hits = 0;
            for _ in 0..jobs.len() {
                let (index, resp, hit) = rx.recv().map_err(|_| ServiceError::Lost)?;
                fold.push(index, Some(resp));
                hits += u64::from(hit);
            }
            Ok(hits)
        })?;

        let spectra = pipeline.solve(&mw.hessian, None, &mw.dalpha, &mw.dmu);
        let recovery = RecoverySummary { cache_hits, ..RecoverySummary::default() };
        Ok(pipeline.finish(spectra, decomposition, mw.hessian.nnz(), &*self.engine, Some(recovery)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RamanWorkflow;
    use qfr_geom::{ProteinBuilder, WaterBoxBuilder};
    use std::time::Duration;

    /// `handle.wait()` behind a watchdog, so a request that never finishes
    /// fails its test instead of hanging the suite.
    fn wait_within(handle: RequestHandle) -> Result<RamanResult, ServiceError> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.wait());
        });
        rx.recv_timeout(Duration::from_secs(300)).expect("request still running at the watchdog")
    }

    #[test]
    fn concurrent_requests_do_not_bleed() {
        // Three different systems in flight at once on a shared pool and
        // cache; each result must be *bit-identical* to a solo batch run
        // of the same system — any cross-request mixing of responses
        // would shift the spectra.
        let systems = [
            WaterBoxBuilder::new(8).seed(1).build(),
            WaterBoxBuilder::new(12).seed(2).build(),
            ProteinBuilder::new(5).seed(3).build(),
        ];
        let solo: Vec<_> = systems
            .iter()
            .map(|s| RamanWorkflow::new(s.clone()).sigma(20.0).run().unwrap())
            .collect();

        let service = SpectrumService::new(ServiceConfig {
            workers: 4,
            max_active: 3,
            batch_window: 8, // small window: many pool jobs per request, interleaved
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = systems
            .iter()
            .map(|s| service.submit(SpectrumRequest::new(s.clone()).sigma(20.0)).unwrap())
            .collect();
        for (handle, solo) in handles.into_iter().zip(&solo) {
            let served = handle.wait().unwrap();
            assert_eq!(served.n_atoms, solo.n_atoms);
            assert_eq!(
                served.spectrum.intensities, solo.spectrum.intensities,
                "service spectrum must be bit-identical to the solo run"
            );
            assert_eq!(served.ir.intensities, solo.ir.intensities);
            assert!(served.recovery.is_some(), "service reports per-request recovery");
        }
        assert_eq!(service.in_flight(), 0);
    }

    #[test]
    fn repeat_request_hits_the_shared_cache() {
        let system = WaterBoxBuilder::new(10).seed(7).build();
        let service = SpectrumService::new(ServiceConfig::default());
        let first = service.submit(SpectrumRequest::new(system.clone())).unwrap().wait().unwrap();
        let again = service.submit(SpectrumRequest::new(system)).unwrap().wait().unwrap();
        let r1 = first.recovery.unwrap();
        let r2 = again.recovery.unwrap();
        assert_eq!(r1.cache_hits, 0, "cold cache: every fragment computes");
        assert_eq!(
            r2.cache_hits as usize, first.stats.n_jobs,
            "identical repeat must be served entirely from the cache"
        );
        assert_eq!(first.spectrum.intensities, again.spectrum.intensities);
    }

    #[test]
    fn admission_control_sheds_load() {
        let service = SpectrumService::new(ServiceConfig {
            workers: 2,
            max_active: 1,
            max_queued: 0,
            ..ServiceConfig::default()
        });
        let big = WaterBoxBuilder::new(27).seed(11).build();
        let admitted = service.submit(SpectrumRequest::new(big.clone())).unwrap();
        let shed = service.submit(SpectrumRequest::new(big));
        match shed {
            Err(ServiceError::Saturated { in_flight, capacity }) => {
                assert_eq!(in_flight, 1);
                assert_eq!(capacity, 1);
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        assert!(admitted.wait().is_ok(), "the admitted request still completes");
    }

    #[test]
    fn invalid_request_reports_workflow_error() {
        let service = SpectrumService::new(ServiceConfig::default());
        let handle = service.submit(SpectrumRequest::new(MolecularSystem::default())).unwrap();
        match handle.wait() {
            Err(ServiceError::Workflow(WorkflowError::EmptySystem)) => {}
            other => panic!("expected empty-system rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_reservation_dropped_unspawned_gives_its_slot_back() {
        // What a failed coordinator spawn does: the closure holding the
        // reservation drops without running.
        let service = SpectrumService::new(ServiceConfig {
            workers: 1,
            max_active: 1,
            max_queued: 0,
            ..ServiceConfig::default()
        });
        let reservation = Reservation::admit(&service.inner).unwrap();
        assert_eq!(service.in_flight(), 1);
        let shed = Reservation::admit(&service.inner);
        assert!(matches!(shed, Err(ServiceError::Saturated { .. })), "got {:?}", shed.err());
        let unspawned = move || drop(reservation);
        drop(unspawned);
        assert_eq!(service.in_flight(), 0, "the dropped reservation gave back its slot");
        let system = WaterBoxBuilder::new(1).seed(4).build();
        assert!(wait_within(service.submit(SpectrumRequest::new(system)).unwrap()).is_ok());
    }

    #[test]
    #[should_panic(expected = "max_active must be at least 1")]
    fn zero_max_active_panics_at_construction() {
        SpectrumService::new(ServiceConfig { max_active: 0, ..ServiceConfig::default() });
    }

    #[test]
    fn service_and_batch_workflow_share_one_cache() {
        // A batch run warms the cache; a service sharing that cache then
        // serves the same system without any engine computes.
        let system = WaterBoxBuilder::new(9).seed(5).build();
        let cache = Arc::new(FragmentCache::with_capacity(256 << 20));
        let batch =
            RamanWorkflow::new(system.clone()).with_cache(Arc::clone(&cache)).run().unwrap();
        let service =
            SpectrumService::new(ServiceConfig { cache: Some(cache), ..Default::default() });
        let served = service.submit(SpectrumRequest::new(system)).unwrap().wait().unwrap();
        assert_eq!(served.recovery.unwrap().cache_hits as usize, batch.stats.n_jobs);
        assert_eq!(served.spectrum.intensities, batch.spectrum.intensities);
    }

    #[test]
    fn panicking_fragment_compute_fails_only_its_request() {
        // Two coincident waters: the dimer's overlap matrix is singular, so
        // the model-DFPT engine panics on a pool thread.
        let mut broken = WaterBoxBuilder::new(2).seed(3).build();
        for k in 0..3 {
            broken.atoms[3 + k].position = broken.atoms[k].position;
        }
        let service = SpectrumService::new(ServiceConfig {
            workers: 2,
            engine: EngineKind::ModelDfpt,
            ..ServiceConfig::default()
        });
        let lost = wait_within(service.submit(SpectrumRequest::new(broken)).unwrap());
        assert!(matches!(lost, Err(ServiceError::Lost)), "expected Lost, got {lost:?}");
        assert_eq!(service.in_flight(), 0, "the failed request gave back its admission");

        let healthy = WaterBoxBuilder::new(1).seed(4).build();
        let solo = RamanWorkflow::new(healthy.clone()).engine(EngineKind::ModelDfpt).run().unwrap();
        let served = wait_within(service.submit(SpectrumRequest::new(healthy)).unwrap()).unwrap();
        assert_eq!(served.spectrum.intensities, solo.spectrum.intensities);
        assert_eq!(served.ir.intensities, solo.ir.intensities);
    }

    #[test]
    fn panicking_coordinator_gives_back_its_admission_slot() {
        // Residue 2's carbonyl C on top of residue 3's N: capping the cut
        // peptide bond has no direction, and decomposition panics on the
        // coordinator.
        let mut protein = ProteinBuilder::new(6).seed(1).build();
        let (c, n) = (protein.residues[2].c_idx, protein.residues[3].n_idx);
        protein.atoms[c].position = protein.atoms[n].position;
        let service = SpectrumService::new(ServiceConfig {
            workers: 2,
            max_active: 1,
            max_queued: 0,
            ..ServiceConfig::default()
        });
        let lost = wait_within(service.submit(SpectrumRequest::new(protein)).unwrap());
        assert!(matches!(lost, Err(ServiceError::Lost)), "expected Lost, got {lost:?}");
        let next = service
            .submit(SpectrumRequest::new(WaterBoxBuilder::new(4).seed(5).build()))
            .expect("the panicked request's slot is free again");
        assert!(wait_within(next).is_ok());
    }

    #[test]
    fn non_finite_coordinates_are_invalid_on_both_front_ends() {
        let service = SpectrumService::new(ServiceConfig::default());
        for bad in [f64::NAN, f64::INFINITY] {
            let mut system = WaterBoxBuilder::new(4).seed(6).build();
            system.atoms[4].position.y = bad;
            match RamanWorkflow::new(system.clone()).run() {
                Err(WorkflowError::InvalidSystem(errs)) => {
                    assert!(errs.iter().any(|e| e.starts_with("atom 4 has non-finite")), "{errs:?}")
                }
                other => panic!("{bad}: expected InvalidSystem from run(), got {other:?}"),
            }
            let served = wait_within(service.submit(SpectrumRequest::new(system)).unwrap());
            assert!(
                matches!(served, Err(ServiceError::Workflow(WorkflowError::InvalidSystem(_)))),
                "{bad}: expected InvalidSystem from the service, got {served:?}"
            );
        }
    }
}
