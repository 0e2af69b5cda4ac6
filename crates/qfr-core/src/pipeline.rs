//! The staged QF-RAMAN pipeline shared by [`crate::RamanWorkflow::execute`]
//! and [`crate::SpectrumService`]: `prepare` (validate + decompose) →
//! `responses` → `operator` → `solve` → `finish`. What the responses and
//! operator stages do belongs to the caller (they are the two axes of
//! [`crate::RunPlan`]; the service's per-request pool jobs are one more
//! response executor); everything every run shares, down to fetching one
//! fragment's response ([`response`]), lives here exactly once.

use crate::report::{RamanResult, RecoverySummary, StageTimings};
use crate::workflow::{EngineKind, WorkflowError};
use qfr_cache::{FragmentCache, HitKind};
use qfr_fragment::{
    AssembledSystem, Coupling, Decomposition, DecompositionParams, FragmentEngine, FragmentJob,
    FragmentResponse, FragmentStructure, MassWeighted, RowRangeAccumulator,
};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_linalg::sparse::MatVec;
use qfr_linalg::CsrMatrix;
use qfr_sched::{FragmentWorkItem, RunReport};
use qfr_solver::{
    ir_lanczos, raman_dense_reference, raman_ir_lanczos, RamanOptions, RamanSpectrum,
};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Largest fragment (atoms incl. link H) the model-DFPT engine accepts:
/// each fragment costs `6m` displaced SCFs and their response solves plus
/// `6m` frozen-density gradients.
pub(crate) const DFPT_FRAGMENT_CAP: usize = 12;

/// Span names of one pipeline front end.
pub(crate) struct Stages {
    decompose: &'static str,
    engine: &'static str,
    assemble: &'static str,
    solver: &'static str,
}

pub(crate) const WORKFLOW: Stages = Stages {
    decompose: "workflow.decompose",
    engine: "workflow.engine",
    assemble: "workflow.assemble",
    solver: "workflow.solver",
};

pub(crate) const SERVICE: Stages = Stages {
    decompose: "service.decompose",
    engine: "service.engine",
    assemble: "service.assemble",
    solver: "service.solver",
};

pub(crate) fn make_engine(kind: EngineKind) -> Box<dyn FragmentEngine + Send + Sync> {
    match kind {
        EngineKind::ForceField => Box::new(qfr_model::ForceFieldEngine::new()),
        EngineKind::ModelDfpt => Box::new(qfr_dfpt::DfptEngine::new()),
    }
}

/// One run of the pipeline: the front end whose spans it reports under,
/// what every stage needs, and the stage timings so far.
pub(crate) struct Pipeline<'a> {
    stages: &'static Stages,
    system: &'a MolecularSystem,
    raman: &'a RamanOptions,
    timings: StageTimings,
}

/// One fragment's response and whether the cache served it: from `cache`
/// when there is one (computing and inserting on a miss), from the engine
/// otherwise. Exact hits are bit-identical to a fresh compute.
pub(crate) fn response(
    cache: Option<&FragmentCache>,
    engine: &dyn FragmentEngine,
    frag: &FragmentStructure,
) -> (FragmentResponse, bool) {
    match cache {
        Some(cache) => {
            let (resp, kind) = cache.get_or_compute(frag, || engine.compute(frag));
            ((*resp).clone(), kind != HitKind::Miss)
        }
        None => (engine.compute(frag), false),
    }
}

/// Runs `work(item.id)` for every item: on the fault-tolerant scheduler
/// with `runtime`, else in order on the calling thread. `work` returns
/// `false` on failure — the scheduler retries or quarantines the item's
/// task, the in-order loop stops at the first failure. `settle` gets the
/// items of each task once, as it is credited; in order, an item at a
/// time. Only the scheduler has recovery to report.
pub(crate) fn dispatch(
    runtime: Option<&qfr_sched::RuntimeConfig>,
    items: Vec<FragmentWorkItem>,
    mut settle: impl FnMut(&[FragmentWorkItem]) + Send,
    work: impl Fn(usize) -> bool + Sync,
) -> Option<RunReport> {
    let Some(runtime) = runtime else {
        for item in &items {
            if !work(item.id as usize) {
                break;
            }
            settle(std::slice::from_ref(item));
        }
        return None;
    };
    Some(qfr_sched::run_master_leader_worker_settled(
        Box::new(qfr_sched::SizeSensitivePolicy::with_defaults(items)),
        |item| work(item.id as usize),
        |task| settle(&task.fragments),
        runtime.clone(),
    ))
}

/// Most jobs per window of [`fold_in_windows`]: enough to keep every core
/// busy between two folds of small fragments.
const WINDOW: usize = 128;

/// Most response bytes per window of [`fold_in_windows`]: seven of the
/// largest capped residues (61 atoms, 0.27 MiB each), so large fragments
/// still keep two threads busy while a window stays small beside the
/// operator.
const WINDOW_BYTES: usize = 2 << 20;

/// Bytes of `job`'s response: a `3m x 3m` Hessian and nine derivative
/// rows of `3m`, f64.
fn response_bytes(job: &FragmentJob) -> usize {
    let m = job.size();
    8 * (9 * m * m + 27 * m)
}

/// The Eq. (1) fold of one in-core run, fed `(job index, response)` in any
/// order. An arrival ahead of the next job waits in a reorder buffer; the
/// contiguous job-order prefix is folded into the accumulator and dropped
/// at once. Every Hessian slot therefore sums its addends in global job
/// order — the bits of [`qfr_fragment::assemble::assemble`] — whatever
/// the arrival order, and only early arrivals are ever held.
pub(crate) struct Fold<'j, R = FragmentResponse> {
    jobs: &'j [FragmentJob],
    acc: RowRangeAccumulator,
    /// Index of the next job to fold.
    next: usize,
    /// Early arrivals by job index, all past `next`; `None` is a job left
    /// out (quarantined or never finished).
    early: BTreeMap<usize, Option<R>>,
    /// Seconds spent folding so far.
    fold_s: f64,
}

impl<'j, R: Borrow<FragmentResponse>> Fold<'j, R> {
    /// An empty fold over every atom of an `n_atoms` system, with slots
    /// for the pairs `coupling` admits; laying out the operator's pattern
    /// counts as folding time.
    pub(crate) fn new(jobs: &'j [FragmentJob], n_atoms: usize, coupling: Option<Coupling>) -> Self {
        let start = Instant::now();
        let acc = RowRangeAccumulator::new(jobs, 0..n_atoms, n_atoms, coupling);
        Self { jobs, acc, next: 0, early: BTreeMap::new(), fold_s: start.elapsed().as_secs_f64() }
    }

    /// Job `index`'s response, or `None` to leave the job out. Folds it at
    /// once, with every buffered successor, when it is the next job.
    ///
    /// # Panics
    /// Panics if job `index` arrived before.
    pub(crate) fn push(&mut self, index: usize, resp: Option<R>) {
        assert!(
            index >= self.next && !self.early.contains_key(&index),
            "job {index} arrived twice"
        );
        if index > self.next {
            self.early.insert(index, resp);
            return;
        }
        let start = Instant::now();
        let mut resp = resp;
        loop {
            if let Some(resp) = resp {
                self.acc.add(&self.jobs[self.next], resp.borrow());
            }
            self.next += 1;
            match self.early.first_entry() {
                Some(entry) if *entry.key() == self.next => resp = entry.remove(),
                _ => break,
            }
        }
        self.fold_s += start.elapsed().as_secs_f64();
    }

    /// Index of the next job to fold, unless every job has arrived.
    pub(crate) fn next(&self) -> Option<usize> {
        (self.next < self.jobs.len()).then_some(self.next)
    }

    /// The assembled (unweighted) operators.
    ///
    /// # Panics
    /// Panics if some job never arrived.
    pub(crate) fn finish(self) -> AssembledSystem {
        assert!(
            self.next == self.jobs.len() && self.early.is_empty(),
            "fold finished with job {} of {} missing",
            self.next,
            self.jobs.len()
        );
        self.acc.finish()
    }
}

/// Serves every job of `fold` through `compute(job index)`, folding as it
/// goes. In parallel, job-order windows are computed on the rayon facade,
/// handed to `settle(first job index, responses)`, then folded; a window
/// closes at [`WINDOW`] jobs or before the next job's response would take
/// it past [`WINDOW_BYTES`]. In sequence each job is a window of its own,
/// computed on the calling thread. At most one window of responses is ever
/// alive. The first error of a window's `compute` stops the stage.
pub(crate) fn fold_in_windows<R: Borrow<FragmentResponse> + Send, E: Send>(
    fold: &mut Fold<R>,
    parallel: bool,
    compute: impl Fn(usize) -> Result<R, E> + Sync,
    mut settle: impl FnMut(usize, &[R]),
) -> Result<(), E> {
    let (jobs, most) = (fold.jobs, if parallel { WINDOW } else { 1 });
    let mut start = 0;
    while start < jobs.len() {
        // The window's first job, then every next one that fits.
        let (mut end, mut bytes) = (start + 1, response_bytes(&jobs[start]));
        while end < jobs.len() && end - start < most {
            bytes += response_bytes(&jobs[end]);
            if bytes > WINDOW_BYTES {
                break;
            }
            end += 1;
        }
        let resps: Vec<Result<R, E>> = if parallel {
            (start..end).into_par_iter().map(&compute).collect()
        } else {
            (start..end).map(&compute).collect()
        };
        let resps = resps.into_iter().collect::<Result<Vec<R>, E>>()?;
        settle(start, &resps);
        for (k, resp) in (start..).zip(resps) {
            fold.push(k, Some(resp));
        }
        start = end;
    }
    Ok(())
}

/// Scheduler recovery counters at the workflow level; `resumed` counts the
/// work items restored from disk instead of dispatched.
pub(crate) fn recovery_summary(
    report: &RunReport,
    resumed: usize,
    cache_hits: u64,
) -> RecoverySummary {
    RecoverySummary {
        retries: report.retries,
        resumed_jobs: resumed,
        reissues: report.reissues,
        duplicates_suppressed: report.duplicates_suppressed,
        quarantined_jobs: report.quarantined_fragments.len(),
        unfinished_jobs: report.unfinished_fragments,
        leaders_died: report.leaders_died,
        cache_hits,
    }
}

impl<'a> Pipeline<'a> {
    /// Stage 1: check the system, decompose it, index its bonds for the
    /// per-job extractions of stage 2, and check the fragments against the
    /// engine. The system checks come first: decomposing a corrupted
    /// geometry (a non-finite coordinate) would panic.
    pub(crate) fn prepare(
        stages: &'static Stages,
        system: &'a MolecularSystem,
        params: DecompositionParams,
        engine: EngineKind,
        raman: &'a RamanOptions,
    ) -> Result<(Self, Decomposition, BondAdjacency), WorkflowError> {
        if system.n_atoms() == 0 {
            return Err(WorkflowError::EmptySystem);
        }
        let errs = system.validate();
        if !errs.is_empty() {
            return Err(WorkflowError::InvalidSystem(errs));
        }
        let mut timings = StageTimings::default();
        let ((decomposition, adjacency), dt) = qfr_obs::timed(stages.decompose, || {
            (Decomposition::new(system, params), BondAdjacency::new(system))
        });
        timings.decompose_s = dt;
        if engine == EngineKind::ModelDfpt {
            let largest = decomposition.jobs.iter().map(|j| j.size()).max().unwrap_or(0);
            if largest > DFPT_FRAGMENT_CAP {
                return Err(WorkflowError::DfptTooLarge {
                    largest_fragment: largest,
                    cap: DFPT_FRAGMENT_CAP,
                });
            }
        }
        Ok((Self { stages, system, raman, timings }, decomposition, adjacency))
    }

    /// Stage 2, run by the caller: `f` serves the work items.
    pub(crate) fn responses<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, dt) = qfr_obs::timed(self.stages.engine, f);
        self.timings.engine_s = dt;
        out
    }

    /// Stage 3: `f` makes the Hessian operator available.
    pub(crate) fn operator<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, dt) = qfr_obs::timed(self.stages.assemble, f);
        self.timings.assemble_s = dt;
        out
    }

    /// Stages 2 and 3 for the in-core operator: `serve` runs the work items
    /// and feeds every job's response to the Eq. (1) fold as it arrives;
    /// the fold is then finished and mass-weighted in place. The fold's
    /// pattern holds the pairs `coupling` admits. Folding interleaves with
    /// the engine but is timed as assembly: `engine_s` leaves it out,
    /// `assemble_s` is pattern, fold, finish and mass weighting.
    pub(crate) fn assemble_in_core<T, E>(
        &mut self,
        jobs: &[FragmentJob],
        coupling: Option<Coupling>,
        serve: impl FnOnce(&mut Fold) -> Result<T, E>,
    ) -> Result<(MassWeighted, T), E> {
        let system = self.system;
        let (fold, served) = self.responses(|| {
            let mut fold = Fold::new(jobs, system.n_atoms(), coupling);
            let served = serve(&mut fold);
            (fold, served)
        });
        let (served, fold_s) = (served?, fold.fold_s);
        let mw = self.operator(|| MassWeighted::in_place(fold.finish(), &system.masses()));
        self.timings.engine_s -= fold_s;
        self.timings.assemble_s += fold_s;
        Ok((mw, served))
    }

    /// Stage 4: Raman and IR spectra of `op` — any Hessian operator — from
    /// the mass-weighted derivative vectors. `dense_of` swaps the Raman
    /// solve for the dense-diagonalization reference over that matrix
    /// (small systems).
    pub(crate) fn solve(
        &mut self,
        op: &dyn MatVec,
        dense_of: Option<&CsrMatrix>,
        dalpha: &[Vec<f64>; 6],
        dmu: &[Vec<f64>; 3],
    ) -> (RamanSpectrum, RamanSpectrum) {
        let opts = self.raman;
        let (spectra, dt) = qfr_obs::timed(self.stages.solver, || match dense_of {
            Some(h) => {
                (raman_dense_reference(&h.to_dense(), dalpha, opts), ir_lanczos(op, dmu, opts))
            }
            None => raman_ir_lanczos(op, dalpha, dmu, opts),
        });
        self.timings.solver_s = dt;
        spectra
    }

    /// Stage 5: the run record.
    pub(crate) fn finish(
        self,
        (spectrum, ir): (RamanSpectrum, RamanSpectrum),
        decomposition: Decomposition,
        hessian_nnz: usize,
        engine: &dyn FragmentEngine,
        recovery: Option<RecoverySummary>,
    ) -> RamanResult {
        RamanResult {
            spectrum,
            ir,
            stats: decomposition.stats,
            n_atoms: self.system.n_atoms(),
            dof: self.system.dof(),
            hessian_nnz,
            engine: engine.name().to_string(),
            timings: self.timings,
            recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::assemble::assemble;
    use qfr_geom::{ProteinBuilder, SolvatedSystem, WaterBoxBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A system with a few windows of jobs, its jobs and their responses
    /// in job order.
    fn fixture(
        system: MolecularSystem,
    ) -> (MolecularSystem, Vec<FragmentJob>, Vec<FragmentResponse>) {
        let jobs = Decomposition::new(&system, DecompositionParams::default()).jobs;
        assert!(jobs.len() > 2 * WINDOW, "only {} jobs", jobs.len());
        let engine = qfr_model::ForceFieldEngine::new();
        let responses = jobs.iter().map(|job| engine.compute(&job.structure(&system))).collect();
        (system, jobs, responses)
    }

    fn water_box() -> MolecularSystem {
        WaterBoxBuilder::new(64).seed(8).build()
    }

    /// Capped residues of up to 61 atoms lead the job list.
    fn solvated_protein() -> MolecularSystem {
        SolvatedSystem::build(&ProteinBuilder::new(20).seed(5).build(), 0.0, 3.1, 2.4, 6)
    }

    fn assert_same_bits(got: &AssembledSystem, want: &AssembledSystem) {
        let bits = |vecs: &[Vec<f64>]| -> Vec<u64> {
            vecs.iter().flatten().map(|v| v.to_bits()).collect()
        };
        // Stored values are never ±0 or NaN, so `==` on them is bit equality.
        assert_eq!(got.hessian, want.hessian);
        assert_eq!(bits(&got.dalpha), bits(&want.dalpha));
        assert_eq!(bits(&got.dmu), bits(&want.dmu));
    }

    /// Arrivals in a shuffled order, as a service request's coordinator
    /// sees them from several pool workers, fold to the job-order bits.
    #[test]
    fn permuted_arrivals_fold_to_job_order_bits() {
        let (system, jobs, responses) = fixture(water_box());
        let want = assemble(&jobs, &responses, system.n_atoms());
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut fold = Fold::new(&jobs, system.n_atoms(), None);
        for i in order {
            fold.push(i, Some(&responses[i]));
        }
        assert_same_bits(&fold.finish(), &want);
    }

    /// Live responses of the stage: their count and bytes, and the peaks.
    #[derive(Default)]
    struct Live {
        now: AtomicUsize,
        peak: AtomicUsize,
        bytes: AtomicUsize,
        peak_bytes: AtomicUsize,
    }

    /// A response that counts itself live from creation to drop.
    struct Counted<'a> {
        resp: FragmentResponse,
        live: &'a Live,
    }

    /// The bytes of `resp`'s matrices.
    fn held_bytes(resp: &FragmentResponse) -> usize {
        let matrices = [&resp.hessian, &resp.dalpha, &resp.dmu];
        matrices.iter().map(|m| 8 * m.rows() * m.cols()).sum()
    }

    impl<'a> Counted<'a> {
        fn new(resp: FragmentResponse, live: &'a Live) -> Self {
            let now = live.now.fetch_add(1, Ordering::SeqCst) + 1;
            live.peak.fetch_max(now, Ordering::SeqCst);
            let size = held_bytes(&resp);
            let bytes = live.bytes.fetch_add(size, Ordering::SeqCst) + size;
            live.peak_bytes.fetch_max(bytes, Ordering::SeqCst);
            Self { resp, live }
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.live.now.fetch_sub(1, Ordering::SeqCst);
            self.live.bytes.fetch_sub(held_bytes(&self.resp), Ordering::SeqCst);
        }
    }

    impl Borrow<FragmentResponse> for Counted<'_> {
        fn borrow(&self) -> &FragmentResponse {
            &self.resp
        }
    }

    /// `run()`'s responses stage holds at most one window of responses in
    /// parallel and one response in sequence — a window of at most
    /// [`WINDOW`] jobs and, past its first response, [`WINDOW_BYTES`] — and
    /// folds to the job-order bits either way, in the pattern the engine's
    /// coupling admits.
    #[test]
    fn windowed_stage_holds_at_most_one_window() {
        let engine = qfr_model::ForceFieldEngine::new();
        for system in [water_box(), solvated_protein()] {
            let (system, jobs, responses) = fixture(system);
            let want = assemble(&jobs, &responses, system.n_atoms());
            let adjacency = BondAdjacency::new(&system);
            let largest = jobs.iter().map(response_bytes).max().unwrap_or(0);
            for (parallel, bound) in [(true, WINDOW), (false, 1)] {
                let live = Live::default();
                let coupling = Coupling::of(&engine, &system, &adjacency);
                let mut fold = Fold::new(&jobs, system.n_atoms(), coupling);
                let compute = |k: usize| {
                    let resp = engine.compute(&jobs[k].structure(&system));
                    Ok::<_, ()>(Counted::new(resp, &live))
                };
                fold_in_windows(&mut fold, parallel, compute, |_, _| {}).unwrap();
                assert_same_bits(&fold.finish(), &want);
                let peak = live.peak.load(Ordering::SeqCst);
                assert!(
                    peak <= bound,
                    "parallel {parallel}: {peak} responses alive, bound {bound}"
                );
                let peak_bytes = live.peak_bytes.load(Ordering::SeqCst);
                let byte_bound = if parallel { WINDOW_BYTES + largest } else { largest };
                assert!(
                    peak_bytes <= byte_bound,
                    "parallel {parallel}: {peak_bytes} response bytes alive, bound {byte_bound}"
                );
                assert_eq!(live.now.load(Ordering::SeqCst), 0, "a folded response was kept");
            }
        }
    }
}
