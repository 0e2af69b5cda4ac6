//! Pins `dfpt.scf.unconverged`: every SCF solve that hits `max_iterations`
//! bumps it exactly once — including the displaced solves whose results
//! feed `dalpha`/`dmu` — and a converged solve never does.
//!
//! Lives in its own integration-test binary because it reads process-global
//! deterministic counters; sharing a process with other counter-bumping
//! tests would race the deltas.

use qfr_dfpt::engine::{DfptEngine, DfptEngineConfig};
use qfr_dfpt::{ScfConfig, ScfSolver};
use qfr_fragment::{FragmentEngine, FragmentJob, FragmentStructure, JobKind};
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

fn counter(name: &str) -> u64 {
    qfr_obs::counter::value_of(name).unwrap_or(0)
}

#[test]
fn every_unconverged_solve_is_counted_once() {
    let frag = water_fragment();
    let capped = ScfConfig { max_iterations: 2, ..DfptEngineConfig::default().scf };

    // Direct solves, cold and warm: one bump each.
    let before = counter("dfpt.scf.unconverged");
    let cold = ScfSolver { config: capped }.solve(&frag);
    let warm = ScfSolver { config: capped }.solve_from(&frag, &cold.p);
    assert!(!cold.converged && !warm.converged);
    assert_eq!((cold.iterations, warm.iterations), (2, 2));
    assert_eq!(counter("dfpt.scf.unconverged") - before, 2);

    // A whole engine fragment: the reference and every displaced solve.
    let engine = DfptEngine { config: DfptEngineConfig { scf: capped, ..Default::default() } };
    let (before, solves_before) = (counter("dfpt.scf.unconverged"), counter("dfpt.scf.solves"));
    let _ = engine.compute(&frag);
    let solves = counter("dfpt.scf.solves") - solves_before;
    assert_eq!(solves, 1 + 2 * frag.dof() as u64, "one reference + 2·dof displaced solves");
    assert_eq!(counter("dfpt.scf.unconverged") - before, solves);

    // A converged solve leaves the counter alone.
    let before = counter("dfpt.scf.unconverged");
    assert!(ScfSolver { config: DfptEngineConfig::default().scf }.solve(&frag).converged);
    assert_eq!(counter("dfpt.scf.unconverged"), before);
}
