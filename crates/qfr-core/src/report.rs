//! Result and reporting types (serde-serializable for the bench harness).

use qfr_fragment::DecompositionStats;
use qfr_solver::RamanSpectrum;
use serde::Serialize;

/// Wall-clock seconds per pipeline stage.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageTimings {
    /// Fragmentation + pair enumeration.
    pub decompose_s: f64,
    /// Per-fragment engine (all fragments), without the Eq. (1) folds
    /// that interleave with it in core.
    pub engine_s: f64,
    /// Global assembly: the Eq. (1) fold wherever it ran, then `finish`
    /// and mass weighting.
    pub assemble_s: f64,
    /// Lanczos/GAGQ (or dense) spectral solve.
    pub solver_s: f64,
}

impl StageTimings {
    /// Total pipeline seconds.
    pub fn total(&self) -> f64 {
        self.decompose_s + self.engine_s + self.assemble_s + self.solver_s
    }
}

/// Recovery counters of a response stage run under
/// [`crate::ResponseSource::Scheduler`] (the service fills in `cache_hits`
/// only). Mirrors `qfr_sched::RunReport`'s recovery fields at the workflow
/// level, where each scheduled "fragment" is one work item: a
/// decomposition job, or a shard under [`crate::HessianOperator::Sharded`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoverySummary {
    /// Failure-triggered re-queues during the engine stage.
    pub retries: usize,
    /// Work items restored from disk instead of recomputed: checkpointed
    /// jobs, or valid shard spill files.
    pub resumed_jobs: usize,
    /// Straggler duplicates issued to idle leaders.
    pub reissues: usize,
    /// Completions discarded because another copy already won.
    pub duplicates_suppressed: usize,
    /// Jobs that exhausted their attempts; their contributions are missing
    /// from the (partial) spectrum.
    pub quarantined_jobs: usize,
    /// Jobs abandoned because every leader died.
    pub unfinished_jobs: usize,
    /// Leaders that died during the engine stage.
    pub leaders_died: usize,
    /// Fragment responses served from the content-addressed cache instead
    /// of the engine (0 when no cache is attached), counted per request.
    pub cache_hits: u64,
}

impl RecoverySummary {
    /// Whether every job contributed to the result.
    pub fn is_complete(&self) -> bool {
        self.quarantined_jobs == 0 && self.unfinished_jobs == 0
    }
}

/// Everything a Raman run produces.
#[derive(Debug, Clone)]
pub struct RamanResult {
    /// The broadened Raman spectrum (Eq. (4) orientation average).
    pub spectrum: RamanSpectrum,
    /// The companion IR absorption spectrum from the same Hessian and the
    /// assembled dipole derivatives.
    pub ir: RamanSpectrum,
    /// Decomposition statistics (fragment/cap/concap counts).
    pub stats: DecompositionStats,
    /// System size.
    pub n_atoms: usize,
    /// Cartesian degrees of freedom.
    pub dof: usize,
    /// Stored nonzeros of the mass-weighted Hessian.
    pub hessian_nnz: usize,
    /// Engine name used.
    pub engine: String,
    /// Per-stage wall times.
    pub timings: StageTimings,
    /// Recovery counters when the responses came from the scheduler or
    /// the service (`None` for the rayon and sequential sources).
    pub recovery: Option<RecoverySummary>,
}

impl RamanResult {
    /// Serializes the run metadata + spectrum to pretty JSON (used by the
    /// bench harness to record EXPERIMENTS.md provenance).
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Record<'a> {
            n_atoms: usize,
            dof: usize,
            hessian_nnz: usize,
            engine: &'a str,
            timings: StageTimings,
            n_jobs: usize,
            n_capped_fragments: usize,
            n_cap_pairs: usize,
            n_generalized_concaps: usize,
            n_residue_water_pairs: usize,
            n_water_water_pairs: usize,
            fragment_size_min: usize,
            fragment_size_max: usize,
            wavenumbers: &'a [f64],
            intensities: &'a [f64],
            recovery: &'a Option<RecoverySummary>,
        }
        let record = Record {
            n_atoms: self.n_atoms,
            dof: self.dof,
            hessian_nnz: self.hessian_nnz,
            engine: &self.engine,
            timings: self.timings,
            n_jobs: self.stats.n_jobs,
            n_capped_fragments: self.stats.n_capped_fragments,
            n_cap_pairs: self.stats.n_cap_pairs,
            n_generalized_concaps: self.stats.n_generalized_concaps,
            n_residue_water_pairs: self.stats.n_residue_water_pairs,
            n_water_water_pairs: self.stats.n_water_water_pairs,
            fragment_size_min: self.stats.min_size,
            fragment_size_max: self.stats.max_size,
            wavenumbers: &self.spectrum.wavenumbers,
            intensities: &self.spectrum.intensities,
            recovery: &self.recovery,
        };
        serde_json::to_string_pretty(&record).expect("serialization cannot fail")
    }

    /// Short human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} atoms, {} jobs ({}), Hessian nnz {}, peak {:?} cm-1, {:.2}s total",
            self.n_atoms,
            self.stats.n_jobs,
            self.engine,
            self.hessian_nnz,
            self.spectrum.peak().map(|p| p.round()),
            self.timings.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_solver::spectrum::gaussian_broadening;

    fn sample_result() -> RamanResult {
        RamanResult {
            spectrum: gaussian_broadening(&[(1000.0, 1.0)], 0.0, 2000.0, 201, 10.0),
            ir: gaussian_broadening(&[(1500.0, 1.0)], 0.0, 2000.0, 201, 10.0),
            stats: DecompositionStats { n_jobs: 5, ..Default::default() },
            n_atoms: 9,
            dof: 27,
            hessian_nnz: 81,
            engine: "force-field".into(),
            timings: StageTimings {
                decompose_s: 0.1,
                engine_s: 0.2,
                assemble_s: 0.3,
                solver_s: 0.4,
            },
            recovery: None,
        }
    }

    #[test]
    fn json_round_trips_key_fields() {
        let r = sample_result();
        let json = r.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["n_atoms"], 9);
        assert_eq!(v["engine"], "force-field");
        assert_eq!(v["n_jobs"], 5);
        assert_eq!(v["wavenumbers"].as_array().unwrap().len(), 201);
        assert!(v["recovery"].is_null(), "plain runs record no recovery block");
    }

    #[test]
    fn recovery_summary_serializes_when_present() {
        let mut r = sample_result();
        r.recovery = Some(RecoverySummary {
            retries: 2,
            resumed_jobs: 3,
            reissues: 1,
            duplicates_suppressed: 1,
            quarantined_jobs: 1,
            unfinished_jobs: 0,
            leaders_died: 0,
            cache_hits: 4,
        });
        assert!(!r.recovery.as_ref().unwrap().is_complete());
        let v: serde_json::Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(v["recovery"]["retries"], 2);
        assert_eq!(v["recovery"]["resumed_jobs"], 3);
        assert_eq!(v["recovery"]["quarantined_jobs"], 1);
        assert_eq!(v["recovery"]["cache_hits"], 4);
        assert!(RecoverySummary::default().is_complete());
    }

    #[test]
    fn timings_total() {
        let r = sample_result();
        assert!((r.timings.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_engine_and_atoms() {
        let s = sample_result().summary();
        assert!(s.contains("9 atoms"));
        assert!(s.contains("force-field"));
    }
}
