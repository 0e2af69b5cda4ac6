//! Lanes of one batched QL against one-by-one solves, bit for bit.
//!
//! `scalar_first_row` is the EISPACK `tql2` loop written out straight, the
//! way the crate ran it before the eigensolves became lanes: every lane of
//! every batch must reproduce its nodes and weights exactly, whatever the
//! batch size, the sizes beside it and the turn on which it finishes.

use proptest::prelude::*;
use qfr_linalg::tridiag::{gauss_quadrature_nodes, gauss_quadrature_nodes_batch};

/// Eigenvalues (ascending) and squared first-row weights by the scalar QL.
fn scalar_first_row(diag: &[f64], sub: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = diag.len();
    let mut d = diag.to_vec();
    let mut e = vec![0.0; n];
    e[n.min(1)..].copy_from_slice(sub);
    let mut v: Vec<f64> = (0..n).map(|j| if j == 0 { 1.0 } else { 0.0 }).collect();
    if n > 0 {
        for i in 1..n {
            e[i - 1] = e[i];
        }
        e[n - 1] = 0.0;
    }
    let (mut f, mut tst1, eps) = (0.0_f64, 0.0_f64, f64::EPSILON);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m > l {
            loop {
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().skip(l + 2) {
                    *item -= h;
                }
                f += h;
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0_f64, 1.0_f64, 1.0_f64);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0_f64, 0.0_f64);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let h = v[i + 1];
                    v[i + 1] = s * v[i] + c * h;
                    v[i] = c * v[i] - s * h;
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    (order.iter().map(|&j| d[j]).collect(), order.iter().map(|&j| v[j] * v[j]).collect())
}

/// A tridiagonal of size `n` from `seed`. `kind` 0 is random, 1 has
/// repeated diagonal entries and zero couplings (early deflation), 2 is
/// diagonal already (no rotation at all).
fn tridiagonal(n: usize, seed: u64, kind: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let diag: Vec<f64> = (0..n)
        .map(|i| match kind {
            1 => [1.5, -0.5][i % 2],
            _ => 4.0 * rnd(),
        })
        .collect();
    let sub: Vec<f64> = (0..n.saturating_sub(1))
        .map(|i| match kind {
            1 if i % 3 == 2 => 0.0,
            2 => 0.0,
            _ => 2.0 * rnd(),
        })
        .collect();
    (diag, sub)
}

fn bits(rule: &(Vec<f64>, Vec<f64>)) -> Vec<u64> {
    rule.0.iter().chain(&rule.1).map(|x| x.to_bits()).collect()
}

#[test]
fn edge_sizes_and_kinds_in_one_batch() {
    let problems: Vec<(Vec<f64>, Vec<f64>)> =
        [(0, 0), (1, 0), (2, 0), (2, 1), (37, 1), (60, 2), (279, 0)]
            .iter()
            .enumerate()
            .map(|(s, &(n, kind))| tridiagonal(n, s as u64, kind))
            .collect();
    let refs: Vec<(&[f64], &[f64])> =
        problems.iter().map(|(d, s)| (d.as_slice(), s.as_slice())).collect();
    let batch = gauss_quadrature_nodes_batch(&refs);
    assert_eq!(batch.len(), refs.len());
    for (&(diag, sub), lane) in refs.iter().zip(&batch) {
        assert_eq!(bits(lane), bits(&scalar_first_row(diag, sub)), "n = {}", diag.len());
        assert_eq!(bits(lane), bits(&gauss_quadrature_nodes(diag, sub)), "n = {}", diag.len());
    }
    assert!(gauss_quadrature_nodes_batch(&[]).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_lane_matches_its_scalar_solve(lanes in 1..11usize, seed in 0u64..100_000) {
        // Sizes from 0 to 120 side by side: short lanes finish many turns
        // before long ones.
        let problems: Vec<(Vec<f64>, Vec<f64>)> = (0..lanes as u64)
            .map(|j| {
                let mix = seed.wrapping_mul(31).wrapping_add(j * 7919);
                let n = match mix % 5 { 0 => (mix % 3) as usize, _ => (mix % 121) as usize };
                tridiagonal(n, mix, (mix / 5) % 3)
            })
            .collect();
        let refs: Vec<(&[f64], &[f64])> =
            problems.iter().map(|(d, s)| (d.as_slice(), s.as_slice())).collect();
        let batch = gauss_quadrature_nodes_batch(&refs);
        prop_assert_eq!(batch.len(), lanes);
        for (&(diag, sub), lane) in refs.iter().zip(&batch) {
            prop_assert_eq!(bits(lane), bits(&scalar_first_row(diag, sub)));
        }
    }
}
