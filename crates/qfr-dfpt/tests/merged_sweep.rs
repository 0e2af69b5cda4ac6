//! Pins the merged displaced-SCF sweep against the scattered reference
//! paths: bit-identical `dalpha`/`dmu`, the predicted drop in
//! displaced-geometry SCF solves, and a gather window of one geometry; and
//! the Hessian's cost of one Poisson solve per displaced gradient.
//!
//! This lives in its own integration-test binary (one `#[test]`) because it
//! reads process-global deterministic counters; sharing a process with other
//! counter-bumping tests would race the deltas.

use qfr_dfpt::engine::DfptEngine;
use qfr_dfpt::ScfSolver;
use qfr_fragment::{FragmentJob, FragmentStructure, JobKind};
use qfr_geom::WaterBoxBuilder;

fn water_fragment() -> FragmentStructure {
    let sys = WaterBoxBuilder::new(1).seed(1).build();
    FragmentJob {
        kind: JobKind::WaterMonomer { w: 0 },
        coefficient: 1.0,
        atoms: vec![0, 1, 2],
        link_hydrogens: vec![],
    }
    .structure(&sys)
}

#[test]
fn merged_sweep_is_bit_identical_and_halves_scf_solves() {
    let engine = DfptEngine::new();
    let frag = water_fragment();
    let dof = frag.dof();
    let counter = |name: &str| qfr_obs::counter::value_of(name).unwrap_or(0);
    let solves = || counter("dfpt.engine.scf_solves");
    let reused = || counter("dfpt.engine.scf_reused");
    let batch = || [counter("linalg.batch.launches"), counter("linalg.batch.jobs")];
    let delta = |before: [u64; 2]| {
        let after = batch();
        [after[0] - before[0], after[1] - before[1]]
    };

    // Scattered reference: dalpha and dmu each re-solve all 2·dof displaced
    // geometries independently — 4·dof solves total.
    let before = solves();
    let before_batch = batch();
    let da_ref = engine.dalpha_fd(&frag);
    let dalpha_batch = delta(before_batch);
    let dm_ref = engine.dmu_fd(&frag);
    let scattered_solves = solves() - before;
    assert_eq!(scattered_solves, 4 * dof as u64, "scattered path solve count");

    // Merged sweep: each displaced geometry solved exactly once, dipole
    // served from the shared ScfResult.
    let (before_s, before_r) = (solves(), reused());
    let before_batch = batch();
    let (da, dm) = engine.displaced_sweep(&frag);
    let sweep_batch = delta(before_batch);
    let merged_solves = solves() - before_s;
    let merged_reused = reused() - before_r;
    // The gather window is one geometry: the sweep launches exactly what
    // dalpha_fd does (the same reference, 2·dof SCFs and 2·dof
    // polarizabilities), not one stream across every geometry.
    assert_eq!(sweep_batch, dalpha_batch, "sweep vs dalpha_fd [batch launches, batch jobs]");
    assert_eq!(merged_solves, 2 * dof as u64, "merged sweep must solve each geometry once");
    assert_eq!(merged_reused, 2 * dof as u64, "every solve must also serve the dipole");
    assert!(
        scattered_solves >= 2 * merged_solves,
        "merged sweep must at least halve SCF solves: {scattered_solves} vs {merged_solves}"
    );

    // Same solve path, same per-entry arithmetic, index-ordered reduction:
    // the merged blocks are bit-identical to the scattered ones.
    assert_eq!(da.shape(), da_ref.shape());
    assert_eq!(dm.shape(), dm_ref.shape());
    assert_eq!(da.as_slice(), da_ref.as_slice(), "dalpha must be bit-identical");
    assert_eq!(dm.as_slice(), dm_ref.as_slice(), "dmu must be bit-identical");

    // Determinism under rayon: a second merged sweep reproduces every bit.
    let (da2, dm2) = engine.displaced_sweep(&frag);
    assert_eq!(da.as_slice(), da2.as_slice());
    assert_eq!(dm.as_slice(), dm2.as_slice());

    // The gradient Hessian: past its own reference SCF, one Poisson solve
    // per displaced gradient, 2·dof in all.
    let poisson = || qfr_obs::counter::value_of("dfpt.poisson.solves").unwrap_or(0);
    let before = poisson();
    ScfSolver { config: engine.config.scf }.solve(&frag);
    let reference_solves = poisson() - before;
    let before = poisson();
    engine.hessian_fd(&frag);
    let hessian_solves = poisson() - before;
    assert_eq!(hessian_solves - reference_solves, 2 * dof as u64, "Poisson solves of hessian_fd");
}
