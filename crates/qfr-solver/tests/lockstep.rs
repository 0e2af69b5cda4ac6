//! The solver's batched rules against its one-by-one rules, bit for bit.
//!
//! One panel mixes generic start vectors with a zero one (an empty rule)
//! and two that span invariant subspaces (β_m = 0, so the averaged rule
//! falls back to Gauss); every prefix of it, 1 to 10 lanes, must give the
//! rules `gauss_quadrature` / `averaged_quadrature` give one at a time.

use proptest::prelude::*;
use qfr_linalg::DMatrix;
use qfr_solver::gagq::{averaged_quadrature, gauss_quadrature, quadrature_rules, Quadrature};
use qfr_solver::lanczos_panel;

/// A random symmetric block on the first `n - 3` coordinates beside a
/// diagonal on the last three, which no generic vector mixes with.
fn operator(n: usize, seed: u64) -> DMatrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut h = DMatrix::from_fn(n, n, |i, j| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        if i < n - 3 && j < n - 3 {
            x
        } else {
            0.0
        }
    });
    h.symmetrize_mut();
    for (k, lambda) in [(n - 3, 2.5), (n - 2, -1.0), (n - 1, 0.75)] {
        h[(k, k)] = lambda;
    }
    h
}

fn bits(rules: &[Quadrature]) -> Vec<Vec<u64>> {
    rules.iter().map(|q| q.nodes.iter().chain(&q.weights).map(|x| x.to_bits()).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_lane_count_matches_one_by_one(n in 12..40usize, k in 3..16usize, seed in 0u64..9999) {
        let h = operator(n, seed);
        let generic = |c: usize| -> Vec<f64> {
            let entry = |i: usize| ((i * 7 + c * 13 + seed as usize) % 11) as f64 - 5.0;
            (0..n).map(|i| if i < n - 3 { entry(i) } else { 0.0 }).collect()
        };
        let mut starts: Vec<Vec<f64>> = (0..7).map(generic).collect();
        starts.insert(1, vec![0.0; n]);
        let mut two_dim = vec![0.0; n];
        two_dim[n - 3] = 1.0;
        two_dim[n - 2] = 2.0;
        starts.insert(4, two_dim);
        let mut one_dim = vec![0.0; n];
        one_dim[n - 1] = 3.0;
        starts.push(one_dim);
        let refs: Vec<&[f64]> = starts.iter().map(Vec::as_slice).collect();
        let results = lanczos_panel(&h, &refs, k);
        prop_assert!(results[1].alpha.is_empty());
        prop_assert_eq!((results[4].steps(), results[4].beta_last), (2, 0.0));
        for (gagq, one) in [(false, gauss_quadrature as fn(&_) -> _), (true, averaged_quadrature)] {
            let reference: Vec<Quadrature> = results.iter().map(one).collect();
            for lanes in 1..=results.len() {
                let batched: Vec<Quadrature> =
                    results.chunks(lanes).flat_map(|g| quadrature_rules(g, gagq)).collect();
                prop_assert_eq!(bits(&batched), bits(&reference), "gagq {} lanes {}", gagq, lanes);
            }
        }
    }
}
