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
//!   computed a fragment first);
//! - a shared pending queue with **cross-request batching**: pool workers
//!   drain rounds of up to [`ServiceConfig::batch_window`] fragments that
//!   freely mix requests, so overlapping requests fill rounds that a
//!   single small request could not (and, under the model-DFPT engine,
//!   each fragment's dense algebra rides the existing kernel-tagged
//!   `BatchJob` batched dispatch inside the engine).
//!
//! Admission control is deliberately simple: at most
//! [`ServiceConfig::max_active`] requests compute at once, at most
//! [`ServiceConfig::max_queued`] more wait, and anything beyond that is
//! rejected *at submission* with [`ServiceError::Saturated`] — the caller
//! sheds load instead of the service buffering unboundedly.
//!
//! Isolation contract: requests share only the cache and the pool. Each
//! request assembles its spectrum exclusively from its own per-slot
//! responses (written by index into a per-request slot table), so
//! concurrent requests cannot bleed results into each other; the
//! no-bleed test pins this by checking service results bit-identical to
//! solo runs.

use crate::pipeline::{self, Pipeline, SERVICE};
use crate::report::{RamanResult, RecoverySummary};
use crate::workflow::{EngineKind, WorkflowError};
use qfr_cache::{FragmentCache, HitKind};
use qfr_fragment::{DecompositionParams, FragmentEngine, FragmentResponse, FragmentStructure};
use qfr_geom::MolecularSystem;
use qfr_solver::RamanOptions;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// Accepted requests and enqueued fragments are pure functions of the
// submitted workload (when nothing is rejected), so they sit in the
// deterministic CI gate; rejections, peak concurrency and round counts
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
    /// Fragments per cross-request dispatch round.
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
    /// The serving thread disappeared without a result (a bug or a
    /// panicked engine).
    Lost,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Saturated { in_flight, capacity } => {
                write!(f, "service saturated: {in_flight} in flight, capacity {capacity}")
            }
            ServiceError::Workflow(e) => write!(f, "workflow error: {e}"),
            ServiceError::Lost => write!(f, "request lost: serving thread died"),
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

/// Per-request result table the dispatch rounds write into. Slots are
/// written by index, each exactly once, so no other request's responses
/// can land here.
struct RequestSlots {
    state: Mutex<SlotState>,
    done_cv: Condvar,
    /// Cache hits attributed to this request.
    hits: AtomicU64,
}

struct SlotState {
    responses: Vec<Option<FragmentResponse>>,
    remaining: usize,
}

/// One fragment awaiting compute: the geometry plus where its response
/// goes.
struct PendingItem {
    frag: FragmentStructure,
    out: Arc<RequestSlots>,
    index: usize,
}

struct Admission {
    /// Admitted, not yet finished (computing + waiting).
    in_flight: usize,
    /// Currently computing (≤ `max_active`).
    running: usize,
}

struct ServiceInner {
    config: ServiceConfig,
    cache: Arc<FragmentCache>,
    engine: Box<dyn FragmentEngine + Send + Sync>,
    pool: qfr_sched::WorkerPool,
    pending: Mutex<VecDeque<PendingItem>>,
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
        let engine = pipeline::make_engine(config.engine);
        let pool = qfr_sched::WorkerPool::new(config.workers);
        Self {
            inner: Arc::new(ServiceInner {
                config,
                cache,
                engine,
                pool,
                pending: Mutex::new(VecDeque::new()),
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
        self.inner.admission.lock().expect("admission poisoned").in_flight
    }

    /// Submits a request. Returns immediately: either a handle to wait
    /// on, or [`ServiceError::Saturated`] when admission control sheds it.
    pub fn submit(&self, request: SpectrumRequest) -> Result<RequestHandle, ServiceError> {
        let capacity = self.inner.config.max_active + self.inner.config.max_queued;
        {
            let mut adm = self.inner.admission.lock().expect("admission poisoned");
            if adm.in_flight >= capacity {
                REJECTED.incr();
                return Err(ServiceError::Saturated { in_flight: adm.in_flight, capacity });
            }
            adm.in_flight += 1;
            PEAK_IN_FLIGHT.record_max(adm.in_flight as u64);
        }
        REQUESTS.incr();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::clone(&self.inner);
        let coordinator = std::thread::Builder::new()
            .name(format!("qfr-serve-{id}"))
            .spawn(move || {
                // Hold a running slot while computing; admitted requests
                // beyond `max_active` wait here.
                {
                    let mut adm = inner.admission.lock().expect("admission poisoned");
                    while adm.running >= inner.config.max_active {
                        adm = inner.admission_cv.wait(adm).expect("admission poisoned");
                    }
                    adm.running += 1;
                }
                let result = ServiceInner::serve(&inner, request);
                // Release the admission slots *before* publishing the
                // result, so a caller who saw its request finish also
                // sees the capacity freed.
                {
                    let mut adm = inner.admission.lock().expect("admission poisoned");
                    adm.running -= 1;
                    adm.in_flight -= 1;
                }
                inner.admission_cv.notify_all();
                result
            })
            .expect("spawn request coordinator");
        Ok(RequestHandle { id, coordinator })
    }
}

impl ServiceInner {
    /// Serves one request end to end on its coordinator thread: the shared
    /// pipeline stages, with the pool's drain rounds as the response
    /// executor — coordinators block on their slots without starving the
    /// pool.
    fn serve(inner: &Arc<Self>, request: SpectrumRequest) -> Result<RamanResult, ServiceError> {
        let SpectrumRequest { system, params, raman } = &request;
        let (mut pipeline, decomposition, adjacency) =
            Pipeline::prepare(&SERVICE, system, *params, inner.config.engine, raman)
                .map_err(ServiceError::Workflow)?;
        let jobs = &decomposition.jobs;
        FRAGMENTS.add(jobs.len() as u64);

        let (slots, cache_hits) = pipeline.responses(|| {
            let out = Arc::new(RequestSlots {
                state: Mutex::new(SlotState {
                    responses: vec![None; jobs.len()],
                    remaining: jobs.len(),
                }),
                done_cv: Condvar::new(),
                hits: AtomicU64::new(0),
            });
            // Enqueue every fragment, then submit enough drain rounds to
            // cover them. A round takes up to `batch_window` items from the
            // *front* of the shared queue, so overlapping requests mix into
            // common rounds (cross-request batching); cumulative round
            // capacity covers every enqueued item, so none is stranded.
            {
                let mut pending = inner.pending.lock().expect("pending poisoned");
                for (index, job) in jobs.iter().enumerate() {
                    pending.push_back(PendingItem {
                        frag: job.structure_with(system, &adjacency),
                        out: Arc::clone(&out),
                        index,
                    });
                }
            }
            let window = inner.config.batch_window.max(1);
            for _ in 0..jobs.len().div_ceil(window) {
                let worker = Arc::clone(inner);
                inner.pool.submit(move || worker.drain_round());
            }
            // Wait for this request's slots; rounds for other requests keep
            // flowing on the pool meanwhile.
            let mut st = out.state.lock().expect("slots poisoned");
            while st.remaining > 0 {
                st = out.done_cv.wait(st).expect("slots poisoned");
            }
            (std::mem::take(&mut st.responses), out.hits.load(Ordering::Relaxed))
        });

        let mw = pipeline.assemble_in_core(jobs, slots);
        let spectra = pipeline.solve(&mw.hessian, None, &mw.dalpha, &mw.dmu);
        let recovery = RecoverySummary { cache_hits, ..RecoverySummary::default() };
        let engine = inner.engine.as_ref();
        Ok(pipeline.finish(spectra, decomposition, mw.hessian.nnz(), engine, Some(recovery)))
    }

    /// One cross-request dispatch round: take up to `batch_window`
    /// pending fragments — from any mix of requests — and resolve each
    /// through the shared cache, computing on a miss.
    fn drain_round(&self) {
        let batch: Vec<PendingItem> = {
            let mut pending = self.pending.lock().expect("pending poisoned");
            let take = pending.len().min(self.config.batch_window.max(1));
            pending.drain(..take).collect()
        };
        if batch.is_empty() {
            return;
        }
        BATCH_ROUNDS.incr();
        for item in batch {
            let (resp, kind) =
                self.cache.get_or_compute(&item.frag, || self.engine.compute(&item.frag));
            if kind != HitKind::Miss {
                item.out.hits.fetch_add(1, Ordering::Relaxed);
            }
            let mut st = item.out.state.lock().expect("slots poisoned");
            st.responses[item.index] = Some((*resp).clone());
            st.remaining -= 1;
            if st.remaining == 0 {
                item.out.done_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RamanWorkflow;
    use qfr_geom::{ProteinBuilder, WaterBoxBuilder};

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
            batch_window: 8, // small window forces many mixed rounds
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
}
