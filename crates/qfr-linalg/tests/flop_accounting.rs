//! FLOP and batch-counter accounting of the dense kernels.
//!
//! The counters are process globals, so every assertion on a *delta* lives
//! here, in its own test binary, and every test takes `GUARD`: nothing
//! else in the process can add to a counter while a delta is read.

use qfr_linalg::batch::{execute_jobs, BatchJob, OffloadMode};
use qfr_linalg::blas::{
    cross_term_naive, sandwich_naive, symmetric_cross_term, symmetric_sandwich,
};
use qfr_linalg::fft::{fft_in_place, ifft_in_place, Complex64, Grid3};
use qfr_linalg::flops::FlopScope;
use qfr_linalg::gemm::gemm_blocked;
use qfr_linalg::syrk::{flops_saved_symmetry, syrk};
use qfr_linalg::tridiag::{gauss_quadrature_nodes, gauss_quadrature_nodes_batch, tql2};
use qfr_linalg::{DMatrix, Trans};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    DMatrix::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn sym_sample(n: usize, seed: u64) -> DMatrix {
    let mut m = sample(n, n, seed);
    m.symmetrize_mut();
    m
}

fn weighted(b: &DMatrix, seed: u64) -> DMatrix {
    let w = sample(b.rows(), 1, seed);
    DMatrix::from_fn(b.rows(), b.cols(), |i, j| w[(i, 0)] * b[(i, j)])
}

/// Three GEMMs and four triangle-family jobs across several size classes.
fn tagged_mixed() -> Vec<BatchJob> {
    let b1 = sample(19, 7, 20);
    let b2 = sample(40, 12, 23);
    vec![
        BatchJob::gemm(sample(5, 7, 21), sample(7, 9, 22)),
        BatchJob::symmetric_product(weighted(&b1, 30), b1.clone()),
        BatchJob::congruence(sample(10, 6, 24), sym_sample(10, 25)),
        BatchJob::similarity(sample(7, 10, 26), sym_sample(10, 27)),
        BatchJob::gemm(sample(33, 40, 28), sample(40, 20, 29)),
        BatchJob::symmetric_product(weighted(&b2, 31), b2.clone()),
        BatchJob::gemm(sample(5, 7, 32), sample(7, 9, 33)),
    ]
}

fn counter(name: &str) -> u64 {
    qfr_obs::counter::value_of(name).unwrap_or(0)
}

#[test]
fn cross_term_reduces_flops_by_about_two_thirds() {
    let _g = lock();
    let x = sample(64, 32, 23);
    let g = sample(64, 32, 24);
    let s = FlopScope::start();
    let _ = cross_term_naive(&x, &g);
    let naive_flops = s.finish().flops;
    let s = FlopScope::start();
    let _ = symmetric_cross_term(&x, &g);
    let fast_flops = s.finish().flops;
    // Paper: strength reduced by 2/3; allow slack for the transpose-add.
    assert!(
        (fast_flops as f64) < 0.45 * naive_flops as f64,
        "fast {fast_flops} vs naive {naive_flops}"
    );
}

#[test]
fn sandwich_reduction_halves_gemm_flops() {
    let _g = lock();
    let x = sample(48, 16, 28);
    let g = sample(48, 16, 29);
    let p = sym_sample(16, 30);
    let s = FlopScope::start();
    let _ = sandwich_naive(&x, &p, &g);
    let naive_flops = s.finish().flops;
    let s = FlopScope::start();
    let _ = symmetric_sandwich(&x, &p, &g);
    let fast_flops = s.finish().flops;
    assert!(
        (fast_flops as f64) < 0.62 * naive_flops as f64,
        "fast {fast_flops} vs naive {naive_flops}"
    );
}

#[test]
fn gemm_flops_accounted() {
    let _g = lock();
    let a = DMatrix::zeros(10, 20);
    let b = DMatrix::zeros(20, 30);
    let mut c = DMatrix::zeros(10, 30);
    let s = FlopScope::start();
    gemm_blocked(&mut c, &a, &b, 1.0, 0.0);
    let m = s.finish();
    assert!(m.flops >= 2 * 10 * 20 * 30);
}

#[test]
fn syrk_flops_accounted_at_reduced_count_and_saved_tracked() {
    let _g = lock();
    let a = sample(20, 30, 16);
    let saved_before = flops_saved_symmetry();
    let scope = FlopScope::start();
    let mut c = DMatrix::zeros(20, 20);
    syrk(Trans::No, 1.0, &a, 0.0, &mut c);
    let m = scope.finish();
    // Reduced count: n(n+1)k = 20*21*30; full would be 2*20*20*30.
    let reduced = 20 * 21 * 30;
    let full = 2 * 20 * 20 * 30;
    assert!(m.flops >= reduced && m.flops < full, "accounted {}", m.flops);
    assert_eq!(flops_saved_symmetry() - saved_before, full - reduced);
}

#[test]
fn packed_flops_match_scattered_and_count_savings() {
    let _g = lock();
    let jobs = tagged_mixed();
    let scope = FlopScope::start();
    let _ = execute_jobs(&jobs, OffloadMode::Scattered);
    let scattered_flops = scope.finish().flops;
    let saved_before = flops_saved_symmetry();
    let scope = FlopScope::start();
    let _ = execute_jobs(&jobs, OffloadMode::Batched { stride: 32 });
    let packed_flops = scope.finish().flops;
    assert_eq!(packed_flops, scattered_flops, "padding must not inflate FLOPs");
    assert!(
        flops_saved_symmetry() > saved_before,
        "batched triangle jobs must credit the symmetry counter"
    );
}

#[test]
fn syrk_and_packed_bytes_counters_advance() {
    let _g = lock();
    let jobs = tagged_mixed();
    let syrk_before = counter("linalg.batch.syrk_jobs");
    let bytes_before = counter("linalg.batch.packed_bytes");
    let _ = execute_jobs(&jobs, OffloadMode::Batched { stride: 32 });
    assert_eq!(
        counter("linalg.batch.syrk_jobs") - syrk_before,
        4,
        "four triangle-family jobs in the mixed set"
    );
    assert!(counter("linalg.batch.packed_bytes") > bytes_before);
}

/// A batched 3-D transform books what one 1-D transform per z, y and x
/// line books: the same `linalg.fft.transforms` and `linalg.flops` deltas.
#[test]
fn grid_transforms_book_the_per_line_totals() {
    let _g = lock();
    for (nx, ny, nz) in [(16, 16, 16), (4, 8, 16), (1, 2, 8)] {
        let real: Vec<f64> = (0..nx * ny * nz).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut grid = Grid3::from_real(nx, ny, nz, &real);
        let transforms = counter("linalg.fft.transforms");
        let scope = FlopScope::start();
        grid.fft();
        grid.ifft();
        let grid_flops = scope.finish().flops;
        let grid_transforms = counter("linalg.fft.transforms") - transforms;

        let transforms = counter("linalg.fft.transforms");
        let scope = FlopScope::start();
        for (lines, n) in [(nx * ny, nz), (nx * nz, ny), (ny * nz, nx)] {
            for _ in 0..lines {
                let mut line = vec![Complex64::new(1.0, 0.0); n];
                fft_in_place(&mut line);
                ifft_in_place(&mut line);
            }
        }
        let line_flops = scope.finish().flops;
        let line_transforms = counter("linalg.fft.transforms") - transforms;

        let log = |n: usize| n.trailing_zeros() as u64;
        let expected: u64 = [(nx * ny, nz), (nx * nz, ny), (ny * nz, nx)]
            .iter()
            .filter(|&&(_, n)| n > 1)
            .map(|&(lines, _)| 2 * lines as u64)
            .sum();
        assert_eq!(grid_transforms, line_transforms, "{nx}x{ny}x{nz} transforms");
        assert_eq!(grid_transforms, expected, "{nx}x{ny}x{nz} transforms");
        assert_eq!(grid_flops, line_flops, "{nx}x{ny}x{nz} flops");
        let per_axis = |lines: usize, n: usize| 2 * lines as u64 * 5 * n as u64 * log(n);
        assert_eq!(
            grid_flops,
            per_axis(nx * ny, nz) + per_axis(nx * nz, ny) + per_axis(ny * nz, nx),
            "{nx}x{ny}x{nz} flops"
        );
    }
}

/// A batched first-row solve books exactly what its problems book one by
/// one, `rotations × (17 + 6)` each; an empty problem books nothing.
#[test]
fn lane_batch_books_the_sum_of_its_one_by_one_solves() {
    let _g = lock();
    let problems: Vec<(Vec<f64>, Vec<f64>)> = [0, 1, 2, 9, 40, 123]
        .iter()
        .map(|&n| {
            let d = sample(1, n, n as u64 + 40);
            let e = sample(1, n.saturating_sub(1), n as u64 + 41);
            (d.as_slice().to_vec(), e.as_slice().to_vec())
        })
        .collect();
    let refs: Vec<(&[f64], &[f64])> =
        problems.iter().map(|(d, e)| (d.as_slice(), e.as_slice())).collect();
    let one_by_one: u64 = (refs.iter())
        .map(|&(d, e)| {
            let s = FlopScope::start();
            let _ = gauss_quadrature_nodes(d, e);
            s.finish().flops
        })
        .sum();
    let s = FlopScope::start();
    let _ = gauss_quadrature_nodes_batch(&refs);
    assert_eq!(s.finish().flops, one_by_one);
    assert!(one_by_one > 0 && one_by_one % 23 == 0, "{one_by_one} is not whole rotations");

    // The dense path: every rotation also turns all n rows of V.
    let (mut d, mut e) = (problems[4].0.clone(), problems[4].1.clone());
    e.insert(0, 0.0);
    let mut v = DMatrix::identity(d.len());
    let s = FlopScope::start();
    tql2(&mut d, &mut e, Some(&mut v));
    assert_eq!(s.finish().flops % (17 + 6 * 40), 0);
}
