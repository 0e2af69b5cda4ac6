//! The end-to-end Raman workflow: a builder, one [`RunPlan`]-driven staged
//! pipeline ([`RamanWorkflow::execute`]), and the `run_*` facades that name
//! its common plans.

use crate::checkpoint::{load_partial, save_partial, CheckpointError};
use crate::pipeline::{self, dispatch, Pipeline, WORKFLOW};
use crate::report::{RamanResult, RecoverySummary};
use crate::shard::{self, ShardPlan, ShardStore};
use qfr_cache::{FragmentCache, HitKind};
use qfr_fragment::{
    Decomposition, DecompositionParams, FragmentEngine, FragmentJob, FragmentResponse,
};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_sched::FragmentWorkItem;
use qfr_solver::{RamanOptions, RamanSpectrum, ShardedOperator};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// Checkpoint lifecycle counters. Save counts trigger on the exact number of
// first-time slot fills (each job fills its slot exactly once, whatever the
// scheduling), and resume counts are a pure function of the checkpoint
// contents — both are deterministic and CI-gated.
static CHECKPOINT_SAVES: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("core.checkpoint.saves");
static CHECKPOINT_JOBS_RESUMED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("core.checkpoint.jobs_resumed");

/// Shape of the out-of-core operator ([`HessianOperator::Sharded`]): the
/// atom partition, the spill directory and the solver tile height.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of contiguous atom-range shards `K`.
    pub shards: usize,
    /// Directory receiving one `shard-NNNNN.qfrs` spill file per shard
    /// (created if absent). Re-running with the same directory resumes:
    /// shards whose file is valid for this system/λ/K/tiling are skipped.
    pub spill: PathBuf,
    /// Dof rows per solver tile (peak solver residency is one tile per
    /// worker).
    pub tile_rows: usize,
}

impl ShardConfig {
    /// `K` shards spilling under `spill`, default tiling (512 dof rows).
    pub fn new(shards: usize, spill: impl Into<PathBuf>) -> Self {
        Self { shards, spill: spill.into(), tile_rows: 512 }
    }

    /// Overrides the solver tile height.
    pub fn tile_rows(mut self, rows: usize) -> Self {
        self.tile_rows = rows;
        self
    }
}

/// First axis of a [`RunPlan`]: who executes the per-fragment work items.
/// Every source serves a job the same way — checkpoint slot, then the
/// attached cache, then the engine — so the spectrum does not depend on it.
#[derive(Debug, Clone)]
pub enum ResponseSource {
    /// Rayon map over the work items.
    Rayon,
    /// In-order loop on the calling thread (profiling/debugging).
    Sequential,
    /// The fault-tolerant master/leader/worker scheduler of `qfr-sched`,
    /// one work item per job (or per shard under
    /// [`HessianOperator::Sharded`]). The run always produces a result:
    /// items quarantined after exhausting their retry budget — or
    /// abandoned because every leader died — are left out, yielding a
    /// *partial* spectrum, and [`RamanResult::recovery`] reports the
    /// scheduler's counters.
    Scheduler(qfr_sched::RuntimeConfig),
}

/// Second axis of a [`RunPlan`]: how the mass-weighted Hessian reaches the
/// solver (always through `qfr_linalg::sparse::MatVec`).
#[derive(Debug, Clone)]
pub enum HessianOperator {
    /// Eq. (1) assembled into one in-core CSR matrix.
    InCore,
    /// In-core assembly, Raman solve by dense diagonalization (small
    /// systems; validation and the Fig. 12 cross-checks).
    DenseReference,
    /// Assembly sharded by contiguous atom ranges and spilled to disk; the
    /// solver streams the SpMV tile by tile ([`crate::shard`]). Bit-identical
    /// to [`InCore`](Self::InCore) for every `K`. Unscheduled builds run in
    /// shard order so one shard is resident at a time; under
    /// [`ResponseSource::Scheduler`] a quarantined shard's file is deleted
    /// and its rows stream as zero.
    Sharded(ShardConfig),
}

/// What one [`RamanWorkflow::execute`] call does: a response source, a
/// Hessian operator and an optional response checkpoint.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Who executes the work items.
    pub source: ResponseSource,
    /// How the Hessian is applied.
    pub operator: HessianOperator,
    /// When set, per-job responses present in this file (same system/λ)
    /// pre-fill their slots and only the missing jobs are computed; the
    /// slots are persisted when the response stage ends. An absent file is
    /// a cold start; one that does not load is [`WorkflowError::Checkpoint`]
    /// and is left untouched. A quarantined job's salvaged response is
    /// excluded from the save, so the next run re-attempts it.
    pub checkpoint: Option<PathBuf>,
    /// Also persist after every `checkpoint_interval` newly computed jobs
    /// (0: only at the end).
    pub checkpoint_interval: usize,
}

impl RunPlan {
    /// A plan without a checkpoint.
    pub fn new(source: ResponseSource, operator: HessianOperator) -> Self {
        Self { source, operator, checkpoint: None, checkpoint_interval: 0 }
    }

    /// The combinations a plan cannot honour, rejected before any work or
    /// file I/O.
    fn check(&self) -> Result<(), WorkflowError> {
        use HessianOperator::Sharded;
        use ResponseSource::Scheduler;
        let why = match (&self.source, &self.operator) {
            (_, Sharded(_)) if self.checkpoint.is_some() => {
                "a response checkpoint needs an operator that stores responses (in-core or dense)"
            }
            (_, Sharded(cfg)) if cfg.shards == 0 || cfg.tile_rows == 0 => {
                "sharding needs a positive shard count and tile height"
            }
            (Scheduler(rt), _)
                if rt.n_leaders == 0
                    || rt.workers_per_leader == 0
                    || rt.recovery.max_attempts == 0 =>
            {
                "the scheduler needs a leader, a worker per leader and an attempt per task"
            }
            _ => return Ok(()),
        };
        Err(WorkflowError::UnsupportedPlan(why))
    }
}

/// Which per-fragment engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Calibrated analytic force field + bond polarizability (fast; the
    /// production path for large systems).
    ForceField,
    /// Model DFPT engine (computationally faithful; `O((3m)²)` energy
    /// evaluations per fragment — small systems only).
    ModelDfpt,
}

/// Errors a workflow run can report.
#[derive(Debug)]
pub enum WorkflowError {
    /// The system contains no atoms.
    EmptySystem,
    /// System validation failed (inconsistent bonds/spans).
    InvalidSystem(Vec<String>),
    /// The DFPT engine was requested for a system too large for it.
    DfptTooLarge {
        /// Atom count of the largest fragment.
        largest_fragment: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The plan's checkpoint file exists but cannot be resumed: another
    /// system's fingerprint, an old version, truncation or garbage. The
    /// run stops before any engine work and leaves the file as it is.
    Checkpoint(CheckpointError),
    /// Spill I/O or format failure in an out-of-core sharded run.
    Spill(CheckpointError),
    /// The [`RunPlan`] combines options that cannot be honoured together.
    UnsupportedPlan(&'static str),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::EmptySystem => write!(f, "system has no atoms"),
            WorkflowError::InvalidSystem(errs) => {
                write!(f, "invalid system: {}", errs.join("; "))
            }
            WorkflowError::DfptTooLarge { largest_fragment, cap } => write!(
                f,
                "model-DFPT engine capped at {cap}-atom fragments, largest is {largest_fragment}"
            ),
            WorkflowError::Checkpoint(e) => write!(f, "cannot resume: {e}"),
            WorkflowError::Spill(e) => write!(f, "shard spill error: {e}"),
            WorkflowError::UnsupportedPlan(why) => write!(f, "unsupported run plan: {why}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Builder + driver for one Raman computation.
#[derive(Debug, Clone)]
pub struct RamanWorkflow {
    system: MolecularSystem,
    decomposition: DecompositionParams,
    engine: EngineKind,
    raman: RamanOptions,
    /// Content-addressed fragment result cache shared across runs (and,
    /// through [`crate::SpectrumService`], across concurrent requests).
    cache: Option<Arc<FragmentCache>>,
}

impl RamanWorkflow {
    /// Workflow over a system with the paper's defaults (λ = 4 Å, σ = 5
    /// cm⁻¹, force-field engine, GAGQ solver).
    pub fn new(system: MolecularSystem) -> Self {
        Self {
            system,
            decomposition: DecompositionParams::default(),
            engine: EngineKind::ForceField,
            raman: RamanOptions::default(),
            cache: None,
        }
    }

    /// Sets the two-body distance threshold λ (Å).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.decomposition.lambda = lambda;
        self
    }

    /// Sets the Gaussian smearing σ (cm⁻¹; paper: 5 gas phase, 20
    /// solvated).
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.raman.sigma = sigma;
        self
    }

    /// Sets the number of Lanczos steps per starting vector.
    pub fn lanczos_steps(mut self, k: usize) -> Self {
        self.raman.lanczos_steps = k;
        self
    }

    /// Selects the per-fragment engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the full Raman solver options.
    pub fn raman_options(mut self, opts: RamanOptions) -> Self {
        self.raman = opts;
        self
    }

    /// Attaches a content-addressed fragment result cache. Every engine
    /// compute is then routed through the cache: a fragment whose exact
    /// geometry key is already resident is served from memory (the
    /// response is bit-identical to a fresh compute), and misses populate
    /// it for later runs. Pass the same `Arc` to several workflows to
    /// share results across systems and requests.
    pub fn with_cache(mut self, cache: Arc<FragmentCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached fragment cache, if any.
    pub fn cache(&self) -> Option<&Arc<FragmentCache>> {
        self.cache.as_ref()
    }

    /// Read access to the system.
    pub fn system(&self) -> &MolecularSystem {
        &self.system
    }

    /// Runs decomposition only.
    pub fn decompose(&self) -> Decomposition {
        Decomposition::new(&self.system, self.decomposition)
    }

    /// Runs the pipeline — decompose, validate, responses, operator,
    /// solve — as `plan` describes. Every `run_*` method is a facade over
    /// this. Legal plans differ in executor, residency and fault tolerance,
    /// never in physics: every operator except the dense reference (which
    /// agrees to solver accuracy) yields spectra bit-identical to
    /// [`run`](Self::run) when no work is quarantined.
    pub fn execute(&self, plan: RunPlan) -> Result<RamanResult, WorkflowError> {
        plan.check()?;
        let (mut pipeline, decomposition, adjacency) = Pipeline::prepare(
            &WORKFLOW,
            &self.system,
            self.decomposition,
            self.engine,
            &self.raman,
        )?;
        let engine = pipeline::make_engine(self.engine);
        let run = Run {
            workflow: self,
            plan: &plan,
            decomposition: &decomposition,
            adjacency: &adjacency,
            engine: engine.as_ref(),
            hits: AtomicU64::new(0),
        };
        let (spectra, hessian_nnz, recovery) = match &plan.operator {
            HessianOperator::InCore => run.assembled(false, &mut pipeline)?,
            HessianOperator::DenseReference => run.assembled(true, &mut pipeline)?,
            HessianOperator::Sharded(cfg) => run.sharded(cfg, &mut pipeline)?,
        };
        Ok(pipeline.finish(spectra, decomposition, hessian_nnz, engine.as_ref(), recovery))
    }

    /// Rayon responses, in-core operator, Lanczos/GAGQ solver.
    pub fn run(&self) -> Result<RamanResult, WorkflowError> {
        self.execute(RunPlan::new(ResponseSource::Rayon, HessianOperator::InCore))
    }

    /// Like [`run`](Self::run) with [`RunPlan::checkpoint`] set — the
    /// restart path for long engine stages.
    pub fn run_with_checkpoint(
        &self,
        checkpoint: &std::path::Path,
    ) -> Result<RamanResult, WorkflowError> {
        let plan = RunPlan::new(ResponseSource::Rayon, HessianOperator::InCore);
        self.execute(RunPlan { checkpoint: Some(checkpoint.to_path_buf()), ..plan })
    }

    /// Like [`run`](Self::run) with [`HessianOperator::DenseReference`].
    pub fn run_dense_reference(&self) -> Result<RamanResult, WorkflowError> {
        self.execute(RunPlan::new(ResponseSource::Rayon, HessianOperator::DenseReference))
    }

    /// Like [`run`](Self::run) with [`ResponseSource::Scheduler`].
    pub fn run_scheduled(
        &self,
        sched: qfr_sched::RuntimeConfig,
    ) -> Result<RamanResult, WorkflowError> {
        self.execute(RunPlan::new(ResponseSource::Scheduler(sched), HessianOperator::InCore))
    }

    /// Like [`run`](Self::run) with [`HessianOperator::Sharded`].
    pub fn run_sharded(&self, cfg: ShardConfig) -> Result<RamanResult, WorkflowError> {
        self.execute(RunPlan::new(ResponseSource::Rayon, HessianOperator::Sharded(cfg)))
    }
}

/// Spectra, stored Hessian non-zeros and scheduler recovery of one run.
type Solved = ((RamanSpectrum, RamanSpectrum), usize, Option<RecoverySummary>);

/// One slot per job (empty: quarantined or never finished) and the
/// scheduler recovery of the responses stage.
type StoredResponses = (Vec<Option<FragmentResponse>>, Option<RecoverySummary>);

/// One `execute` call past `prepare`: the responses and operator stages.
struct Run<'a> {
    workflow: &'a RamanWorkflow,
    plan: &'a RunPlan,
    decomposition: &'a Decomposition,
    /// Bond index of the system, for the per-job structure extractions.
    adjacency: &'a BondAdjacency,
    engine: &'a dyn FragmentEngine,
    /// Responses served from the cache instead of the engine.
    hits: AtomicU64,
}

impl Run<'_> {
    /// One fragment response: from the attached cache (counting a hit)
    /// when it has one, from the engine otherwise. Exact hits are
    /// bit-identical to a fresh compute.
    fn response(&self, job: &FragmentJob) -> FragmentResponse {
        let frag = job.structure_with(&self.workflow.system, self.adjacency);
        match &self.workflow.cache {
            Some(cache) => {
                let (resp, kind) = cache.get_or_compute(&frag, || self.engine.compute(&frag));
                if kind != HitKind::Miss {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                (*resp).clone()
            }
            None => self.engine.compute(&frag),
        }
    }

    fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Responses stage for the operators that assemble from stored
    /// responses: one slot per job, pre-filled from the checkpoint, the
    /// missing ones dispatched on the plan's source. An empty slot in the
    /// result is a job that was quarantined or never finished.
    fn stored_responses(&self) -> Result<StoredResponses, WorkflowError> {
        let system = &self.workflow.system;
        let jobs = &self.decomposition.jobs;
        let checkpoint = self.plan.checkpoint.as_deref();
        let save = |slots: &[Option<FragmentResponse>], reason: &str| {
            let Some(path) = checkpoint else { return };
            CHECKPOINT_SAVES.incr();
            qfr_obs::trace::instant("checkpoint.save", &[]);
            // A failed save must not fail the run.
            if let Err(e) = save_partial(path, self.decomposition, system, slots) {
                eprintln!("warning: {reason} checkpoint save failed: {e}");
            }
        };

        // Resume: an absent file is a cold start; one that exists but does
        // not load stops the run before the final save can overwrite it.
        let cold = || vec![None; jobs.len()];
        let resumed = match checkpoint.map(|path| load_partial(path, self.decomposition, system)) {
            None => cold(),
            Some(Err(CheckpointError::Io(e))) if e.kind() == std::io::ErrorKind::NotFound => cold(),
            Some(loaded) => loaded.map_err(WorkflowError::Checkpoint)?,
        };
        let resumed_jobs = resumed.iter().flatten().count();
        if resumed_jobs > 0 {
            CHECKPOINT_JOBS_RESUMED.add(resumed_jobs as u64);
            qfr_obs::trace::instant("checkpoint.resume", &[("jobs", resumed_jobs as i64)]);
            // A loaded checkpoint is a pre-warmed cache slice: sibling runs
            // sharing the cache hit on its responses.
            if let Some(cache) = &self.workflow.cache {
                for (job, resp) in jobs.iter().zip(&resumed) {
                    if let Some(resp) = resp {
                        let frag = job.structure_with(system, self.adjacency);
                        cache.insert_precomputed(&frag, resp.clone());
                    }
                }
            }
        }
        // Item ids are job indices.
        let items: Vec<FragmentWorkItem> = (jobs.iter().zip(&resumed).enumerate())
            .filter(|(_, (_, slot))| slot.is_none())
            .map(|(i, (job, _))| FragmentWorkItem::new(i as u32, job.size() as u32))
            .collect();
        let slots: Vec<Mutex<Option<FragmentResponse>>> =
            resumed.into_iter().map(Mutex::new).collect();

        let filled = AtomicUsize::new(0);
        let interval = self.plan.checkpoint_interval;
        let report = dispatch(&self.plan.source, items, |i| {
            // Exactly-once compute: the slot lock is held across the engine
            // call, so a retry or straggler re-issue of a computed job
            // blocks until the first copy fills the slot, then skips. Each
            // job is computed once however many copies were dispatched,
            // which keeps the engine-level counters deterministic.
            let mut slot = slots[i].lock().expect("slot poisoned");
            if slot.is_none() {
                *slot = Some(self.response(&jobs[i]));
                drop(slot);
                // fetch_add hands every first fill a unique count, so the
                // number of periodic saves is deterministic.
                let count = filled.fetch_add(1, Ordering::SeqCst) + 1;
                if checkpoint.is_some() && interval > 0 && count % interval == 0 {
                    // try_lock: a slot whose engine call is still running
                    // is simply absent from this snapshot.
                    let snapshot: Vec<Option<FragmentResponse>> =
                        slots.iter().map(|s| s.try_lock().ok().and_then(|g| g.clone())).collect();
                    save(&snapshot, "periodic");
                }
            }
            true
        });

        // A response salvaged from a quarantined task is untrusted: it is
        // kept out of the save (so a restart recomputes it) and out of the
        // assembly.
        let quarantined: HashSet<u32> =
            report.iter().flat_map(|r| r.quarantined_fragments.iter().copied()).collect();
        let slots: Vec<Option<FragmentResponse>> = (slots.into_iter().enumerate())
            .map(|(i, slot)| {
                let slot = slot.into_inner().expect("slot poisoned");
                slot.filter(|_| !quarantined.contains(&(i as u32)))
            })
            .collect();
        save(&slots, "final");
        let recovery =
            report.map(|r| pipeline::recovery_summary(&r, resumed_jobs, self.cache_hits()));
        Ok((slots, recovery))
    }

    /// In-core CSR operator (and its dense-reference variant).
    fn assembled(&self, dense: bool, pipeline: &mut Pipeline) -> Result<Solved, WorkflowError> {
        let (slots, recovery) = pipeline.responses(|| self.stored_responses())?;
        let mw = pipeline.assemble_in_core(&self.decomposition.jobs, slots);
        let dense_of = dense.then_some(&mw.hessian);
        let spectra = pipeline.solve(&mw.hessian, dense_of, &mw.dalpha, &mw.dmu);
        Ok((spectra, mw.hessian.nnz(), recovery))
    }

    /// Out-of-core operator: work items are shards, built straight to
    /// spill files; nothing but one shard's responses is ever resident.
    fn sharded(&self, cfg: &ShardConfig, pipeline: &mut Pipeline) -> Result<Solved, WorkflowError> {
        let system = &self.workflow.system;
        let plan = ShardPlan::new(system.n_atoms(), cfg.shards);
        let base = crate::checkpoint::fingerprint(self.decomposition, system);
        let fp = |s: usize| shard::shard_fingerprint(base, &plan, s, cfg.tile_rows);
        let path = |s: usize| shard::shard_path(&cfg.spill, s);
        let valid = |s: usize| shard::shard_file_valid(&path(s), &plan, s, cfg.tile_rows, fp(s));
        std::fs::create_dir_all(&cfg.spill).map_err(|e| WorkflowError::Spill(e.into()))?;

        // Resume: shards whose spill file is complete and keyed to this
        // exact system/λ/K/tiling are skipped; anything else rebuilds.
        // Item ids are shard indices, cost linear in owned atoms.
        let items: Vec<FragmentWorkItem> = qfr_sched::shard_range_workload(&plan.ranges())
            .into_iter()
            .filter(|item| !valid(item.id as usize))
            .collect();
        let resumed_shards = plan.k() - items.len();
        shard::note_shards_resumed(resumed_shards);
        if resumed_shards > 0 {
            qfr_obs::trace::instant("shard.resume", &[("shards", resumed_shards as i64)]);
        }

        // Unscheduled builds go in shard order whatever the source, so
        // exactly one shard's builders and one live response are resident.
        let source = match &self.plan.source {
            scheduler @ ResponseSource::Scheduler(_) => scheduler,
            _ => &ResponseSource::Sequential,
        };
        let guards: Vec<Mutex<()>> = (0..plan.k()).map(|_| Mutex::new(())).collect();
        let failure = Mutex::new(None);
        let report = pipeline.responses(|| {
            dispatch(source, items, |s| {
                // Exactly-once build: the guard serializes copies of one
                // shard, and a retry or straggler re-issue finds the first
                // copy's file valid and skips — `shard.shards_built` stays
                // a pure function of the missing-shard set.
                let _g = guards[s].lock().expect("shard guard poisoned");
                if valid(s) {
                    return true;
                }
                let jobs = &self.decomposition.jobs;
                let built = shard::build_shard(
                    &path(s),
                    system,
                    jobs,
                    &plan,
                    s,
                    cfg.tile_rows,
                    fp(s),
                    |job| self.response(job),
                );
                if let Err(e) = built {
                    eprintln!("warning: shard {s} build failed: {e}");
                    *failure.lock().expect("failure slot poisoned") = Some(e);
                    return false;
                }
                true
            })
        });
        let recovery = match report {
            // No scheduler, no retry: a failed build fails the run.
            None => match failure.into_inner().expect("failure slot poisoned") {
                Some(e) => return Err(WorkflowError::Spill(e)),
                None => None,
            },
            Some(report) => {
                // A quarantined shard's file is untrusted (its attempts
                // kept failing): delete it so this solve streams its rows
                // as zero and a restart recomputes it.
                for &s in &report.quarantined_fragments {
                    let _ = std::fs::remove_file(path(s as usize));
                }
                Some(pipeline::recovery_summary(&report, resumed_shards, self.cache_hits()))
            }
        };

        // "Assembly" is opening the spill directory: headers and derivative
        // spans load; the Hessian tiles stay on disk.
        let store = pipeline
            .operator(|| ShardStore::open(&cfg.spill, plan, cfg.tile_rows, base))
            .map_err(WorkflowError::Spill)?;
        let op = ShardedOperator::new(&store);
        let spectra = pipeline.solve(&op, None, store.dalpha(), store.dmu());
        Ok((spectra, store.nnz(), recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_geom::{ProteinBuilder, ResidueKind, WaterBoxBuilder};

    #[test]
    fn water_box_end_to_end() {
        let system = WaterBoxBuilder::new(27).seed(1).build();
        let result = RamanWorkflow::new(system).sigma(20.0).run().unwrap();
        assert_eq!(result.n_atoms, 81);
        assert!(result.hessian_nnz > 0);
        assert_eq!(result.engine, "force-field");
        // Water bands: bend near 1640 and the stretch band near 3400.
        let peaks = result.spectrum.peaks_above(0.05);
        assert!(peaks.iter().any(|&p| (1400.0..1900.0).contains(&p)), "no bend band in {peaks:?}");
        assert!(
            peaks.iter().any(|&p| (3100.0..3800.0).contains(&p)),
            "no stretch band in {peaks:?}"
        );
    }

    #[test]
    fn lanczos_matches_dense_reference_small() {
        let system = WaterBoxBuilder::new(6).seed(2).build();
        let wf = RamanWorkflow::new(system).sigma(30.0).lanczos_steps(60);
        let fast = wf.run().unwrap();
        let dense = wf.run_dense_reference().unwrap();
        let sim = fast.spectrum.cosine_similarity(&dense.spectrum);
        assert!(sim > 0.995, "cosine similarity {sim}");
    }

    #[test]
    fn protein_gas_phase_has_ch_band() {
        let system = ProteinBuilder::new(6).seed(3).sequence(vec![ResidueKind::Ala; 6]).build();
        let result = RamanWorkflow::new(system).sigma(10.0).run().unwrap();
        let peaks = result.spectrum.peaks_above(0.05);
        assert!(
            peaks.iter().any(|&p| (2800.0..3100.0).contains(&p)),
            "C-H stretch missing: {peaks:?}"
        );
    }

    #[test]
    fn empty_system_rejected() {
        let err = RamanWorkflow::new(Default::default()).run().unwrap_err();
        assert!(matches!(err, WorkflowError::EmptySystem));
        assert!(err.to_string().contains("no atoms"));
    }

    #[test]
    fn dfpt_engine_cap_enforced() {
        let system = ProteinBuilder::new(4).seed(4).build();
        let err = RamanWorkflow::new(system).engine(EngineKind::ModelDfpt).run().unwrap_err();
        assert!(matches!(err, WorkflowError::DfptTooLarge { .. }));
    }

    #[test]
    fn sequential_matches_parallel() {
        let system = WaterBoxBuilder::new(8).seed(5).build();
        let par = RamanWorkflow::new(system.clone()).run().unwrap();
        let seq = RamanWorkflow::new(system)
            .execute(RunPlan::new(ResponseSource::Sequential, HessianOperator::InCore))
            .unwrap();
        let sim = par.spectrum.cosine_similarity(&seq.spectrum);
        assert!(sim > 0.999999, "parallelism changed the physics: {sim}");
    }

    #[test]
    fn lambda_controls_pair_terms() {
        let system = WaterBoxBuilder::new(27).seed(6).build();
        let tight = RamanWorkflow::new(system.clone()).lambda(0.5).run().unwrap();
        let loose = RamanWorkflow::new(system).lambda(4.0).run().unwrap();
        assert_eq!(tight.stats.n_water_water_pairs, 0);
        assert!(loose.stats.n_water_water_pairs > 0);
        assert!(loose.hessian_nnz > tight.hessian_nnz);
    }

    #[test]
    fn ir_spectrum_has_water_bands() {
        let system = WaterBoxBuilder::new(12).seed(9).build();
        let result = RamanWorkflow::new(system).sigma(20.0).run().unwrap();
        let mut ir = result.ir.clone();
        ir.normalize_max();
        let window_max = |lo: f64, hi: f64| {
            ir.wavenumbers
                .iter()
                .zip(&ir.intensities)
                .filter(|(&w, _)| (lo..hi).contains(&w))
                .map(|(_, &i)| i)
                .fold(0.0_f64, f64::max)
        };
        // Water IR: the bend is famously strong; the stretch region too.
        assert!(window_max(1550.0, 1850.0) > 0.2, "IR bend missing");
        assert!(window_max(3200.0, 3650.0) > 0.05, "IR stretch missing");
        // Raman and IR differ (different selection weights).
        let sim = result.ir.cosine_similarity(&result.spectrum);
        assert!(sim < 0.999, "IR identical to Raman is suspicious: {sim}");
    }

    #[test]
    fn checkpoint_restart_matches_fresh_run() {
        let system = WaterBoxBuilder::new(9).seed(33).build();
        let dir = std::env::temp_dir().join("qfr_wf_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.qfrc");
        let wf = RamanWorkflow::new(system).sigma(25.0);
        let fresh = wf.run().unwrap();
        let first = wf.run_with_checkpoint(&path).unwrap(); // computes + saves
        assert!(path.exists(), "checkpoint written");
        let resumed = wf.run_with_checkpoint(&path).unwrap(); // loads
        for other in [&first, &resumed] {
            let sim = fresh.spectrum.cosine_similarity(&other.spectrum);
            assert!(sim > 0.999999, "checkpointed spectrum diverged: {sim}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scheduled_run_matches_plain_run() {
        let system = WaterBoxBuilder::new(10).seed(41).build();
        let wf = RamanWorkflow::new(system).sigma(25.0);
        let plain = wf.run().unwrap();
        let scheduled = wf
            .run_scheduled(qfr_sched::RuntimeConfig {
                n_leaders: 3,
                workers_per_leader: 2,
                ..Default::default()
            })
            .unwrap();
        let recovery = scheduled.recovery.as_ref().expect("scheduled runs report recovery");
        assert!(recovery.is_complete(), "fault-free run must be complete: {recovery:?}");
        assert_eq!(recovery.retries, 0);
        let sim = plain.spectrum.cosine_similarity(&scheduled.spectrum);
        assert!(sim > 0.999999, "scheduler changed the physics: {sim}");
    }

    #[test]
    fn scheduled_run_with_quarantine_yields_partial_spectrum() {
        let system = WaterBoxBuilder::new(12).seed(42).build();
        let wf = RamanWorkflow::new(system).sigma(25.0);
        // Job 0 fails on every attempt: its whole task is quarantined and
        // the run still returns a (partial) spectrum instead of hanging.
        let result = wf
            .run_scheduled(qfr_sched::RuntimeConfig {
                n_leaders: 2,
                workers_per_leader: 1,
                recovery: qfr_sched::RecoveryPolicy {
                    max_attempts: 2,
                    backoff_base: 1e-4,
                    ..Default::default()
                },
                faults: qfr_sched::FaultPlan::none().permanent([0]),
                ..Default::default()
            })
            .unwrap();
        let recovery = result.recovery.as_ref().unwrap();
        assert!(recovery.quarantined_jobs >= 1, "job 0 must be quarantined: {recovery:?}");
        assert!(!recovery.is_complete());
        assert!(recovery.retries >= 1, "the failing task retries before quarantine");
        let total: f64 = result.spectrum.intensities.iter().sum();
        assert!(total > 0.0, "partial spectrum must still carry signal");
    }

    #[test]
    fn timings_populated() {
        let system = WaterBoxBuilder::new(8).seed(7).build();
        let result = RamanWorkflow::new(system).run().unwrap();
        assert!(result.timings.engine_s >= 0.0);
        assert!(result.timings.total() >= result.timings.solver_s);
    }
}
