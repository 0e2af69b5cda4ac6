//! Property tests for the DFPT mini-engine on randomized small fragments.

use proptest::prelude::*;
use qfr_dfpt::response::{field_response, ResponseConfig};
use qfr_dfpt::scf::{ScfConfig, ScfSolver};
use qfr_dfpt::Basis;
use qfr_fragment::{FragmentJob, FragmentStructure, JobKind};
use qfr_geom::{Vec3, WaterBoxBuilder};
use qfr_linalg::cholesky::Cholesky;

fn fast_scf() -> ScfSolver {
    ScfSolver { config: ScfConfig { max_grid_dim: 16, grid_spacing: 0.55, ..Default::default() } }
}

fn jittered_water(seed: u64, jitter: f64) -> FragmentStructure {
    let sys = WaterBoxBuilder::new(1).seed(seed).build();
    let mut frag = FragmentJob {
        kind: JobKind::WaterMonomer { w: 0 },
        coefficient: 1.0,
        atoms: vec![0, 1, 2],
        link_hydrogens: vec![],
    }
    .structure(&sys);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The overlap matrix is positive definite for any jittered geometry.
    #[test]
    fn overlap_always_spd(seed in 0u64..500, jitter in 0.0..0.15f64) {
        let frag = jittered_water(seed, jitter);
        let basis = Basis::for_fragment(&frag);
        let s = basis.overlap();
        prop_assert!(s.is_symmetric(1e-12));
        prop_assert!(Cholesky::new(&s).is_ok(), "overlap not SPD");
    }

    /// SCF conserves the electron count algebraically: tr(P S) = N_e.
    #[test]
    fn scf_electron_conservation(seed in 0u64..200, jitter in 0.0..0.1f64) {
        let frag = jittered_water(seed, jitter);
        let scf = fast_scf().solve(&frag);
        let tr = qfr_dfpt::scf::trace_product(&scf.p, &scf.s);
        prop_assert!((tr - scf.basis.n_electrons).abs() < 1e-6, "tr(PS) = {tr}");
        prop_assert!(scf.energy < 0.0, "unbound: {}", scf.energy);
    }

    /// The response conserves charge: tr(P1 S) = 0 for any field direction.
    #[test]
    fn response_charge_conservation(seed in 0u64..100, c in 0usize..3) {
        let frag = jittered_water(seed, 0.05);
        let scf = fast_scf().solve(&frag);
        let resp = field_response(&scf, c, &ResponseConfig::default());
        let tr = qfr_dfpt::scf::trace_product(&resp.p1, &scf.s);
        prop_assert!(tr.abs() < 1e-7, "tr(P1 S) = {tr}");
        prop_assert!(resp.p1.is_symmetric(1e-9));
    }

    /// Naive and symmetry-reduced BLAS paths agree for any geometry and
    /// any field direction — the Fig. 6 identities hold unconditionally.
    #[test]
    fn reduction_paths_agree_randomized(seed in 0u64..100, c in 0usize..3) {
        let frag = jittered_water(seed, 0.08);
        let scf = fast_scf().solve(&frag);
        let naive = field_response(
            &scf,
            c,
            &ResponseConfig { use_symmetry_reduction: false, ..Default::default() },
        );
        let fast = field_response(
            &scf,
            c,
            &ResponseConfig { use_symmetry_reduction: true, ..Default::default() },
        );
        let err = naive.h1.max_abs_diff(&fast.h1);
        prop_assert!(err < 1e-9, "paths diverged by {err}");
    }
}
