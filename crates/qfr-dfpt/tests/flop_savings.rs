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
use qfr_geom::{Vec3, WaterBoxBuilder};
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

/// The phase-2 saving holds along every field direction, at the reference
/// geometry and off it (the values of both paths agree there too:
/// `proptest_dfpt::reduction_paths_agree_randomized`).
#[test]
fn reduced_response_saves_phase2_flops() {
    let _guard = lock();
    let moved = [3, 17, 58].map(|seed| jittered(water_fragment(), seed, 0.08));
    for (g, frag) in std::iter::once(water_fragment()).chain(moved).enumerate() {
        let scf = fast_scf().solve(&frag);
        for c in 0..3 {
            let flops = |reduce: bool| {
                let cfg = ResponseConfig { use_symmetry_reduction: reduce, ..Default::default() };
                field_response(&scf, c, &cfg).phases.n1_flops
            };
            let (naive, fast) = (flops(false), flops(true));
            assert!(
                fast < naive,
                "reduced path must save phase-2 FLOPs (geometry {g}, field {c}): {fast} vs {naive}"
            );
        }
    }
}

/// `frag` with every atom moved by up to `jitter` Å per axis (LCG in `seed`).
fn jittered(mut frag: FragmentStructure, seed: u64, jitter: f64) -> FragmentStructure {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0) * jitter
    };
    for p in &mut frag.positions {
        *p += Vec3::new(rnd(), rnd(), rnd());
    }
    frag
}
