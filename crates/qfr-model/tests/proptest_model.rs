//! Property tests for the force-field engine: PSD Hessians, acoustic sum
//! rule, finite-difference consistency on random geometries, and the
//! coupling contract on random systems.

use proptest::prelude::*;
use qfr_fragment::{
    Coupling, Decomposition, DecompositionParams, FragmentEngine, FragmentJob, FragmentStructure,
    JobKind,
};
use qfr_geom::system::{Bond, BondClass};
use qfr_geom::{
    BondAdjacency, Element, MolecularSystem, ProteinBuilder, SolvatedSystem, Vec3, WaterBoxBuilder,
};
use qfr_linalg::eigen::symmetric_eigen;
use qfr_model::polarizability::{alpha, dalpha, displaced, COMPONENTS};
use qfr_model::ForceFieldEngine;

/// A randomized small chain molecule: n atoms in a jittered line, bonded
/// sequentially.
fn chain_fragment(n: usize, seed: u64) -> FragmentStructure {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let elements: Vec<Element> = (0..n)
        .map(|i| match i % 4 {
            0 => Element::C,
            1 => Element::H,
            2 => Element::O,
            _ => Element::N,
        })
        .collect();
    let mut positions = Vec::with_capacity(n);
    let mut pos = Vec3::ZERO;
    positions.push(pos);
    for _ in 1..n {
        pos += Vec3::new(1.2 + 0.2 * rnd(), 0.5 * rnd(), 0.5 * rnd());
        positions.push(pos);
    }
    let bonds: Vec<Bond> = (1..n)
        .map(|i| Bond {
            i: i - 1,
            j: i,
            order: 1,
            class: BondClass::classify(elements[i - 1], elements[i], 1),
        })
        .collect();
    FragmentStructure { elements, positions, bonds, global_map: (0..n).map(Some).collect() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hessian_psd_and_translation_invariant(n in 2..10usize, seed in 0u64..1000) {
        let frag = chain_fragment(n, seed);
        let resp = ForceFieldEngine::new().compute(&frag);
        prop_assert!(resp.hessian.is_symmetric(1e-10));
        let eig = symmetric_eigen(&resp.hessian);
        prop_assert!(
            eig.eigenvalues.iter().all(|&w| w > -1e-8),
            "negative eigenvalue {:?}",
            eig.eigenvalues.first()
        );
        // Acoustic sum rule.
        for row in 0..frag.dof() {
            for q in 0..3 {
                let total: f64 = (0..n).map(|b| resp.hessian[(row, 3 * b + q)]).sum();
                prop_assert!(total.abs() < 1e-9, "ASR violated: {total}");
            }
        }
    }

    #[test]
    fn dalpha_fd_consistency_random_geometry(n in 2..7usize, seed in 0u64..1000) {
        let frag = chain_fragment(n, seed);
        let d = dalpha(&frag);
        let h = 1e-6;
        // Spot check a few coordinates.
        for &coord in &[0usize, (3 * n - 1) / 2, 3 * n - 1] {
            let (atom, c) = (coord / 3, coord % 3);
            let ap = alpha(&displaced(&frag, atom, c, h));
            let am = alpha(&displaced(&frag, atom, c, -h));
            for (comp, &(p, q)) in COMPONENTS.iter().enumerate() {
                let fd = (ap[(p, q)] - am[(p, q)]) / (2.0 * h);
                prop_assert!(
                    (fd - d[(comp, coord)]).abs() < 1e-5,
                    "coord {coord} comp {comp}: fd {fd} vs {}",
                    d[(comp, coord)]
                );
            }
        }
    }

    #[test]
    fn engine_scale_invariance_under_global_rotation(seed in 0u64..300, angle in 0.1..3.0f64) {
        // Rotating the whole fragment must leave the Hessian spectrum
        // unchanged (the Hessian transforms covariantly).
        let sys = WaterBoxBuilder::new(1).seed(seed).build();
        let frag = FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![0, 1, 2],
            link_hydrogens: vec![],
        }
        .structure(&sys);
        let mut rotated = frag.clone();
        let axis = Vec3::new(0.3, 0.5, 0.81).normalized();
        for p in &mut rotated.positions {
            *p = p.rotated_about(axis, angle);
        }
        let e = ForceFieldEngine::new();
        let h1 = symmetric_eigen(&e.compute(&frag).hessian).eigenvalues;
        let h2 = symmetric_eigen(&e.compute(&rotated).hessian).eigenvalues;
        for (a, b) in h1.iter().zip(&h2) {
            prop_assert!((a - b).abs() < 1e-8, "rotation changed the spectrum: {a} vs {b}");
        }
    }
}

/// Asserts that every non-zero Hessian block of every job response of
/// `sys` joins two atoms the engine's coupling admits.
fn assert_coupling_kept(sys: &MolecularSystem) -> Result<(), TestCaseError> {
    let engine = ForceFieldEngine::new();
    let adjacency = BondAdjacency::new(sys);
    let coupling = Coupling::of(&engine, sys, &adjacency).expect("the force field couples");
    for job in Decomposition::new(sys, DecompositionParams::default()).jobs {
        let h = engine.compute(&job.structure_with(sys, &adjacency)).hessian;
        for (la, &a) in job.atoms.iter().enumerate() {
            for (lb, &b) in job.atoms.iter().enumerate() {
                let zero =
                    (0..3).all(|p| h.row(3 * la + p)[3 * lb..][..3].iter().all(|&v| v == 0.0));
                prop_assert!(
                    zero || coupling.admits(a, b),
                    "{:?} couples atoms {a} and {b}",
                    job.kind
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The force field keeps the coupling contract the Eq. (1) fold lays
    /// out its pattern by, on water boxes and on solvated proteins whose
    /// short rows put chain turns, where bonded and geminal pairs lie past
    /// the cutoff, in most cases.
    #[test]
    fn responses_keep_the_coupling_contract(
        waters in 2..48usize,
        residues in 2..9usize,
        per_row in 2..5usize,
        pad in 0.0..3.0f64,
        seed in 0u64..100_000,
    ) {
        assert_coupling_kept(&WaterBoxBuilder::new(waters).seed(seed).build())?;
        let protein = ProteinBuilder::new(residues).fold(per_row, 2).seed(seed).build();
        assert_coupling_kept(&SolvatedSystem::build(&protein, pad, 3.1, 2.4, seed + 1))?;
    }
}
