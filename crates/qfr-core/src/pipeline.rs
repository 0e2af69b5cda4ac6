//! The staged QF-RAMAN pipeline shared by [`crate::RamanWorkflow::execute`]
//! and [`crate::SpectrumService`]: `prepare` (validate + decompose) →
//! `responses` → `operator` → `solve` → `finish`. What the responses and
//! operator stages do belongs to the caller (they are the two axes of
//! [`crate::RunPlan`]; the service's per-request pool jobs are one more
//! response executor); everything every run shares, down to fetching one
//! fragment's response ([`response`]), lives here exactly once.

use crate::report::{RamanResult, RecoverySummary, StageTimings};
use crate::workflow::{EngineKind, ResponseSource, WorkflowError};
use qfr_cache::{FragmentCache, HitKind};
use qfr_fragment::{
    Decomposition, DecompositionParams, FragmentEngine, FragmentJob, FragmentResponse,
    FragmentStructure, MassWeighted, RowRangeAccumulator,
};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_linalg::sparse::MatVec;
use qfr_linalg::CsrMatrix;
use qfr_sched::{FragmentWorkItem, RunReport};
use qfr_solver::{
    ir_lanczos, raman_dense_reference, raman_ir_lanczos, RamanOptions, RamanSpectrum,
};
use rayon::prelude::*;

/// Largest fragment (atoms incl. link H) the model-DFPT engine accepts:
/// its cost is `O((3m)²)` energy evaluations per fragment.
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

/// The one executor switch: runs `work(item.id)` for every item on the
/// plan's response source. `work` returns `false` on failure — the
/// scheduler retries or quarantines the item, the in-order loop stops at
/// the first failure. Only the scheduler has recovery to report.
pub(crate) fn dispatch(
    source: &ResponseSource,
    items: Vec<FragmentWorkItem>,
    work: impl Fn(usize) -> bool + Sync,
) -> Option<RunReport> {
    match source {
        ResponseSource::Rayon => {
            items.par_iter().for_each(|item| {
                work(item.id as usize);
            });
            None
        }
        ResponseSource::Sequential => {
            let _ = items.iter().all(|item| work(item.id as usize));
            None
        }
        ResponseSource::Scheduler(runtime) => Some(qfr_sched::run_master_leader_worker(
            Box::new(qfr_sched::SizeSensitivePolicy::with_defaults(items)),
            |item| work(item.id as usize),
            runtime.clone(),
        )),
    }
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

    /// Stage 3 for the in-core operator: the Eq. (1) fold over every atom,
    /// then mass weighting in place. Each response is dropped as it is
    /// folded; an empty slot (quarantined or abandoned work) is left out,
    /// yielding a partial operator.
    pub(crate) fn assemble_in_core(
        &mut self,
        jobs: &[FragmentJob],
        slots: Vec<Option<FragmentResponse>>,
    ) -> MassWeighted {
        let system = self.system;
        self.operator(|| {
            let mut acc = RowRangeAccumulator::new(0..system.n_atoms(), system.n_atoms());
            for (job, slot) in jobs.iter().zip(slots) {
                if let Some(resp) = slot {
                    acc.add(job, &resp);
                }
            }
            MassWeighted::in_place(acc.finish(), &system.masses())
        })
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
