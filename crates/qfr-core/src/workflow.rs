//! The end-to-end Raman workflow: a builder, one [`RunPlan`]-driven staged
//! pipeline ([`RamanWorkflow::execute`]), and the `run_*` facades that name
//! its common plans.

use crate::checkpoint::{engine_fingerprint, CheckpointError, Journal};
use crate::pipeline::{self, dispatch, Fold, Pipeline, WORKFLOW};
use crate::report::{RamanResult, RecoverySummary};
use crate::shard::{self, ShardPlan, ShardStore};
use qfr_cache::FragmentCache;
use qfr_fragment::{
    Coupling, Decomposition, DecompositionParams, FragmentEngine, FragmentJob, FragmentResponse,
};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_sched::FragmentWorkItem;
use qfr_solver::{RamanOptions, RamanSpectrum, ShardedOperator};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// Jobs read back from a checkpoint: a pure function of the file, so
// deterministic and CI-gated.
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
/// Every source serves a job the same way — checkpoint record, then the
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
    /// When set, the response journal ([`Journal`]) of this run: jobs the
    /// file holds (same system/λ/engine) are read back, the others are
    /// computed, and each is appended as it settles — before it is folded.
    /// An absent file is a cold start; one that does not load is
    /// [`WorkflowError::Checkpoint`] and is left untouched. A quarantined
    /// job never reaches the file, so the next run re-attempts it.
    pub checkpoint: Option<PathBuf>,
}

impl RunPlan {
    /// A plan without a checkpoint.
    pub fn new(source: ResponseSource, operator: HessianOperator) -> Self {
        Self { source, operator, checkpoint: None }
    }

    /// The combinations a plan cannot honour, rejected before any work or
    /// file I/O.
    fn check(&self) -> Result<(), WorkflowError> {
        use HessianOperator::Sharded;
        use ResponseSource::Scheduler;
        let why = match (&self.source, &self.operator) {
            (_, Sharded(_)) if self.checkpoint.is_some() => {
                "a sharded run takes no response checkpoint: it resumes from its spill directory"
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
    /// Model DFPT engine (computationally faithful; `6m` displaced SCFs
    /// and `6m` frozen-density gradients per fragment — small systems
    /// only).
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

/// Appends settled `(job index, response)` pairs to the plan's journal, if
/// any. A failed append must not fail the run: it warns, once.
fn append<'r>(
    journal: Option<&Journal>,
    settled: impl Iterator<Item = (usize, &'r FragmentResponse)>,
) {
    if let Some(Err(e)) = journal.map(|journal| journal.append(settled)) {
        eprintln!("warning: checkpoint append failed: {e}");
    }
}

/// One job of a scheduled run: not yet computed, computed while its task
/// awaits credit, or settled (handed to the journal and the fold).
enum Slot {
    Open,
    Held(FragmentResponse),
    Settled,
}

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
    /// One fragment response through [`pipeline::response`], counting
    /// cache hits.
    fn response(&self, job: &FragmentJob) -> FragmentResponse {
        let frag = job.structure_with(&self.workflow.system, self.adjacency);
        let (resp, hit) = pipeline::response(self.workflow.cache.as_deref(), self.engine, &frag);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        resp
    }

    fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Job `k`'s response read back from `journal`. A resumed response is
    /// a pre-warmed cache slice: sibling runs sharing the cache hit on it.
    fn read_back(&self, journal: &Journal, k: usize) -> Result<FragmentResponse, WorkflowError> {
        let resp = journal.read(k).map_err(WorkflowError::Checkpoint)?;
        if let Some(cache) = &self.workflow.cache {
            let frag =
                self.decomposition.jobs[k].structure_with(&self.workflow.system, self.adjacency);
            cache.insert_precomputed(&frag, resp.clone());
        }
        Ok(resp)
    }

    /// Feeds `fold` the jobs from its next one on while `journal` holds
    /// them; with `rest`, every job still missing, absent if not held.
    fn resume_into(
        &self,
        fold: &mut Fold,
        journal: Option<&Journal>,
        rest: bool,
    ) -> Result<(), WorkflowError> {
        while let Some(k) = fold.next() {
            match journal.filter(|journal| journal.holds(k)) {
                Some(journal) => fold.push(k, Some(self.read_back(journal, k)?)),
                None if rest => fold.push(k, None),
                None => break,
            }
        }
        Ok(())
    }

    /// In-core CSR operator (and its dense-reference variant). Rayon and
    /// sequential responses stream into the fold in job-order windows, a
    /// scheduled response when its task is credited; with a checkpoint,
    /// every fresh response is appended and flushed before it is folded.
    fn assembled(&self, dense: bool, pipeline: &mut Pipeline) -> Result<Solved, WorkflowError> {
        let system = &self.workflow.system;
        let engine = self.engine.name();
        let journal = (self.plan.checkpoint.as_deref())
            .map(|path| Journal::open(path, self.decomposition, system, engine))
            .transpose()
            .map_err(WorkflowError::Checkpoint)?;
        let journal = journal.as_ref();
        if let Some(resumed) = journal.map(Journal::resumed).filter(|&n| n > 0) {
            CHECKPOINT_JOBS_RESUMED.add(resumed as u64);
            qfr_obs::trace::instant("checkpoint.resume", &[("jobs", resumed as i64)]);
        }
        let jobs = &self.decomposition.jobs;
        let coupling = Coupling::of(self.engine, system, self.adjacency);
        let (mw, recovery) = pipeline.assemble_in_core(jobs, coupling, |fold| {
            let parallel = match &self.plan.source {
                ResponseSource::Scheduler(runtime) => {
                    return self.scheduled(fold, runtime, journal).map(Some);
                }
                source => matches!(source, ResponseSource::Rayon),
            };
            let held = |k| journal.filter(|journal| journal.holds(k));
            let compute = |k| match held(k) {
                Some(journal) => self.read_back(journal, k),
                None => Ok(self.response(&jobs[k])),
            };
            pipeline::fold_in_windows(fold, parallel, compute, |start, window| {
                let fresh = (start..).zip(window).filter(|(k, _)| held(*k).is_none());
                append(journal, fresh);
            })?;
            Ok(None)
        })?;
        if let Some(Err(e)) = journal.map(Journal::sync) {
            eprintln!("warning: checkpoint sync failed: {e}");
        }
        let dense_of = dense.then_some(&mw.hessian);
        let spectra = pipeline.solve(&mw.hessian, dense_of, &mw.dalpha, &mw.dmu);
        Ok((spectra, mw.hessian.nnz(), recovery))
    }

    /// Responses of a scheduled in-core plan. Jobs `journal` holds are not
    /// dispatched: each is read back when the fold reaches it. A computed
    /// response is held in its job's slot until the scheduler credits its
    /// task, then appended and folded. A quarantined or unfinished job
    /// folds as absent and never reaches the journal.
    fn scheduled(
        &self,
        fold: &mut Fold,
        runtime: &qfr_sched::RuntimeConfig,
        journal: Option<&Journal>,
    ) -> Result<RecoverySummary, WorkflowError> {
        let jobs = &self.decomposition.jobs;
        let held = |k: usize| journal.is_some_and(|journal| journal.holds(k));
        // Item ids are job indices.
        let items = (0..jobs.len()).filter(|&k| !held(k));
        let items = items.map(|k| FragmentWorkItem::new(k as u32, jobs[k].size() as u32)).collect();
        let slots: Vec<Mutex<Slot>> = jobs.iter().map(|_| Mutex::new(Slot::Open)).collect();
        let lock = |k: usize| slots[k].lock().expect("slot poisoned");
        // Exactly-once compute: the slot lock is held across the engine
        // call, so a retry or straggler copy of a job waits for the first
        // copy, then skips — the engine counters stay deterministic.
        let work = |k| {
            let mut slot = lock(k);
            if matches!(*slot, Slot::Open) {
                *slot = Slot::Held(self.response(&jobs[k]));
            }
            true
        };
        let mut read_back = self.resume_into(fold, journal, false);
        let settle = |task: &[FragmentWorkItem]| {
            let settled: Vec<_> = (task.iter().map(|item| item.id as usize))
                .map(|k| match std::mem::replace(&mut *lock(k), Slot::Settled) {
                    Slot::Held(resp) => (k, resp),
                    _ => unreachable!("job {k} settled without a response"),
                })
                .collect();
            append(journal, settled.iter().map(|(k, resp)| (*k, resp)));
            settled.into_iter().for_each(|(k, resp)| fold.push(k, Some(resp)));
            if read_back.is_ok() {
                read_back = self.resume_into(fold, journal, false);
            }
        };
        let report = dispatch(Some(runtime), items, settle, work).expect("the scheduler reports");
        read_back?;
        self.resume_into(fold, journal, true)?;
        let resumed = journal.map_or(0, Journal::resumed);
        Ok(pipeline::recovery_summary(&report, resumed, self.cache_hits()))
    }

    /// Out-of-core operator: work items are shards, built straight to
    /// spill files; nothing but one shard's responses is ever resident.
    fn sharded(&self, cfg: &ShardConfig, pipeline: &mut Pipeline) -> Result<Solved, WorkflowError> {
        let system = &self.workflow.system;
        let plan = ShardPlan::new(system.n_atoms(), cfg.shards);
        let base = engine_fingerprint(self.decomposition, system, self.engine.name());
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
        let runtime = match &self.plan.source {
            ResponseSource::Scheduler(runtime) => Some(runtime),
            _ => None,
        };
        let coupling = Coupling::of(self.engine, system, self.adjacency);
        let guards: Vec<Mutex<()>> = (0..plan.k()).map(|_| Mutex::new(())).collect();
        let failure = Mutex::new(None);
        // Exactly-once build: the guard serializes copies of one shard, and
        // a retry or straggler re-issue finds the first copy's file valid
        // and skips — `shard.shards_built` stays a pure function of the
        // missing-shard set.
        let build = |s: usize| {
            let _g = guards[s].lock().expect("shard guard poisoned");
            if valid(s) {
                return true;
            }
            let jobs = &self.decomposition.jobs;
            let built = shard::build_shard_coupled(
                &path(s),
                system,
                jobs,
                &plan,
                s,
                cfg.tile_rows,
                fp(s),
                coupling,
                |job| self.response(job),
            );
            if let Err(e) = built {
                eprintln!("warning: shard {s} build failed: {e}");
                *failure.lock().expect("failure slot poisoned") = Some(e);
                return false;
            }
            true
        };
        let report = pipeline.responses(|| dispatch(runtime, items, |_| {}, build));
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
