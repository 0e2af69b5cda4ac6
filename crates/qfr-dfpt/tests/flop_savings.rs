//! FLOP savings of the symmetry-reduced DFPT paths.
//!
//! A `FlopScope` reads a delta of the process-global FLOP counter, so a
//! kernel running in a sibling test inflates it. Every assertion that
//! compares such deltas lives here, in its own test binary, and every test
//! takes `GUARD`: nothing else in the process adds FLOPs while a delta is
//! read. The value agreement of the two paths is pinned beside the code,
//! in the `displacement` and `response` unit tests.

use qfr_dfpt::response::field_response;
use qfr_dfpt::{displacement_cycle, DisplacementConfig, ResponseConfig, ScfConfig, ScfSolver};
use qfr_fragment::{FragmentJob, FragmentStructure, JobKind};
use qfr_geom::WaterBoxBuilder;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

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

fn fast_scf() -> ScfSolver {
    ScfSolver { config: ScfConfig { max_grid_dim: 16, grid_spacing: 0.5, ..Default::default() } }
}

#[test]
fn reduced_pulay_kernel_saves_flops() {
    let _guard = lock();
    let frag = water_fragment();
    let scf = fast_scf().solve(&frag);
    let mut cfg = DisplacementConfig::new(1, 0);
    cfg.response.use_symmetry_reduction = false;
    let (_, prof_naive) = displacement_cycle(&scf, &frag, &cfg);
    cfg.response.use_symmetry_reduction = true;
    let (_, prof_fast) = displacement_cycle(&scf, &frag, &cfg);
    assert!(
        prof_fast.pulay_flops < prof_naive.pulay_flops,
        "reduced Pulay kernel must save FLOPs ({} vs {})",
        prof_fast.pulay_flops,
        prof_naive.pulay_flops
    );
}

#[test]
fn reduced_response_saves_phase2_flops() {
    let _guard = lock();
    let scf = fast_scf().solve(&water_fragment());
    let naive = field_response(
        &scf,
        2,
        &ResponseConfig { use_symmetry_reduction: false, ..Default::default() },
    );
    let fast = field_response(
        &scf,
        2,
        &ResponseConfig { use_symmetry_reduction: true, ..Default::default() },
    );
    assert!(
        fast.phases.n1_flops < naive.phases.n1_flops,
        "reduced path must save phase-2 FLOPs: {} vs {}",
        fast.phases.n1_flops,
        naive.phases.n1_flops
    );
}
