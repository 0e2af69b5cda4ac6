//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use qfr_linalg::batch;
use qfr_linalg::blas;
use qfr_linalg::cholesky::Cholesky;
use qfr_linalg::eigen::symmetric_eigen;
use qfr_linalg::fft::{fft_in_place, ifft_in_place, Complex64};
use qfr_linalg::gemm;
use qfr_linalg::gemm::Trans;
use qfr_linalg::lu::Lu;
use qfr_linalg::sparse::TripletBuilder;
use qfr_linalg::syrk;
use qfr_linalg::tridiag::{gauss_quadrature_nodes, tridiagonal_eigen};
use qfr_linalg::DMatrix;

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = DMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| DMatrix::from_vec(r, c, data))
    })
}

fn square_strategy(max_dim: usize) -> impl Strategy<Value = DMatrix> {
    (1..=max_dim).prop_flat_map(|n| {
        prop::collection::vec(-10.0..10.0f64, n * n)
            .prop_map(move |data| DMatrix::from_vec(n, n, data))
    })
}

fn symmetric_strategy(max_dim: usize) -> impl Strategy<Value = DMatrix> {
    square_strategy(max_dim).prop_map(|mut m| {
        m.symmetrize_mut();
        m
    })
}

/// Whether the upper triangles of `a` and `b` hold the same bits.
fn upper_bits_equal(a: &DMatrix, b: &DMatrix) -> bool {
    a.shape() == b.shape()
        && (0..a.rows()).all(|i| (i..a.cols()).all(|j| a[(i, j)].to_bits() == b[(i, j)].to_bits()))
}

/// A deterministic `rows x cols` matrix with entries in `[-1, 1)`.
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> DMatrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    DMatrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// Runs `syrk_matches_gemm_naive`'s fixed parallel-row case once per process.
static PARALLEL_ROWS_CASE: std::sync::Once = std::sync::Once::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_kernels_agree(a in matrix_strategy(24), bcols in 1..20usize, seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let b = DMatrix::from_fn(a.cols(), bcols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut c1 = DMatrix::zeros(a.rows(), bcols);
        let mut c2 = c1.clone();
        gemm::gemm_naive(&mut c1, &a, &b, 1.0, 0.0);
        gemm::gemm_blocked(&mut c2, &a, &b, 1.0, 0.0);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-9);
    }

    #[test]
    fn transpose_involution(m in matrix_strategy(20)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gemm_transpose_identity(a in matrix_strategy(16), seed in 0u64..1000) {
        // (A B)^T == B^T A^T
        let mut state = seed | 1;
        let b = DMatrix::from_fn(a.cols(), 7, |_, _| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let ab_t = gemm::matmul(&a, &b).transpose();
        let bt_at = gemm::matmul(&b.transpose(), &a.transpose());
        prop_assert!(ab_t.max_abs_diff(&bt_at) < 1e-9);
    }

    #[test]
    fn eigen_reconstruction(a in symmetric_strategy(12)) {
        let eig = symmetric_eigen(&a);
        let r = eig.reconstruct();
        prop_assert!(r.max_abs_diff(&a) < 1e-7, "reconstruction error {}", r.max_abs_diff(&a));
        // Eigenvalues ascending.
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn eigen_orthonormal(a in symmetric_strategy(10)) {
        let eig = symmetric_eigen(&a);
        let v = &eig.eigenvectors;
        let vtv = gemm::matmul(&v.transpose(), v);
        prop_assert!(vtv.max_abs_diff(&DMatrix::identity(a.rows())) < 1e-8);
    }

    #[test]
    fn cholesky_solve_residual(n in 2..10usize, data in prop::collection::vec(-1.0..1.0f64, 100), rhs in prop::collection::vec(-5.0..5.0f64, 10)) {
        prop_assume!(data.len() >= n * n && rhs.len() >= n);
        let b = DMatrix::from_vec(n, n, data[..n * n].to_vec());
        let mut a = gemm::matmul(&b.transpose(), &b);
        for i in 0..n { a[(i, i)] += n as f64; }
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&rhs[..n]);
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&rhs[..n]) {
            prop_assert!((axi - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn lu_solve_residual(n in 2..10usize, data in prop::collection::vec(-1.0..1.0f64, 100), rhs in prop::collection::vec(-5.0..5.0f64, 10)) {
        prop_assume!(data.len() >= n * n && rhs.len() >= n);
        let mut a = DMatrix::from_vec(n, n, data[..n * n].to_vec());
        for i in 0..n { a[(i, i)] += n as f64 + 1.0; }
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&rhs[..n]);
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&rhs[..n]) {
            prop_assert!((axi - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn fft_round_trip(re in prop::collection::vec(-100.0..100.0f64, 1..=64)) {
        // Round the length down to a power of two.
        let n = re.len().next_power_of_two() / if re.len().is_power_of_two() { 1 } else { 2 };
        let orig: Vec<Complex64> = re[..n].iter().map(|&r| Complex64::new(r, 0.0)).collect();
        let mut x = orig.clone();
        fft_in_place(&mut x);
        ifft_in_place(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!(a.im.abs() < 1e-8);
        }
    }

    #[test]
    fn fft_linearity(re1 in prop::collection::vec(-10.0..10.0f64, 16), re2 in prop::collection::vec(-10.0..10.0f64, 16), alpha in -3.0..3.0f64) {
        let mut x1: Vec<Complex64> = re1.iter().map(|&r| Complex64::new(r, 0.0)).collect();
        let mut x2: Vec<Complex64> = re2.iter().map(|&r| Complex64::new(r, 0.0)).collect();
        let mut combo: Vec<Complex64> = re1.iter().zip(&re2)
            .map(|(&a, &b)| Complex64::new(a + alpha * b, 0.0)).collect();
        fft_in_place(&mut x1);
        fft_in_place(&mut x2);
        fft_in_place(&mut combo);
        for i in 0..16 {
            let expect = x1[i] + x2[i].scale(alpha);
            prop_assert!((combo[i].re - expect.re).abs() < 1e-8);
            prop_assert!((combo[i].im - expect.im).abs() < 1e-8);
        }
    }

    #[test]
    fn csr_spmv_matches_dense(entries in prop::collection::vec((0..20usize, 0..20usize, -5.0..5.0f64), 0..200), x in prop::collection::vec(-2.0..2.0f64, 20)) {
        let mut b = TripletBuilder::new(20, 20);
        for &(i, j, v) in &entries {
            b.push(i, j, v);
        }
        let m = b.build();
        let d = m.to_dense();
        let mut y = vec![0.0; 20];
        m.spmv(&x, &mut y);
        let yd = d.matvec(&x);
        for (a, b) in y.iter().zip(&yd) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn tridiag_eigen_matches_dense(diag in prop::collection::vec(-5.0..5.0f64, 2..12), subs in prop::collection::vec(-3.0..3.0f64, 11)) {
        let n = diag.len();
        let sub = &subs[..n - 1];
        let (vals, _) = tridiagonal_eigen(&diag, sub);
        let mut dense = DMatrix::zeros(n, n);
        for i in 0..n {
            dense[(i, i)] = diag[i];
            if i + 1 < n {
                dense[(i, i + 1)] = sub[i];
                dense[(i + 1, i)] = sub[i];
            }
        }
        let reference = symmetric_eigen(&dense);
        for (v, r) in vals.iter().zip(&reference.eigenvalues) {
            prop_assert!((v - r).abs() < 1e-8);
        }
    }

    #[test]
    fn quadrature_weights_normalized(diag in prop::collection::vec(-5.0..5.0f64, 2..10), subs in prop::collection::vec(0.1..3.0f64, 9)) {
        let n = diag.len();
        let (_, w) = gauss_quadrature_nodes(&diag, &subs[..n - 1]);
        let total: f64 = w.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(w.iter().all(|&x| x >= -1e-15));
    }

    #[test]
    fn first_row_quadrature_equals_full_eigensolve_bit_for_bit(diag in prop::collection::vec(-5.0..5.0f64, 1..24), subs in prop::collection::vec(-3.0..3.0f64, 23)) {
        // Zero and repeated subdiagonal entries included: deflation and
        // the tie order of equal eigenvalues must agree too.
        let n = diag.len();
        let sub: Vec<f64> = subs[..n - 1].iter().map(|&b| if b.abs() < 0.3 { 0.0 } else { b }).collect();
        let (nodes, weights) = gauss_quadrature_nodes(&diag, &sub);
        let (vals, vecs) = tridiagonal_eigen(&diag, &sub);
        let first_row_sq: Vec<f64> = (0..n).map(|j| vecs[(0, j)] * vecs[(0, j)]).collect();
        prop_assert_eq!(nodes, vals);
        prop_assert_eq!(weights, first_row_sq);
    }

    #[test]
    fn strength_reduction_identities(npts in 4..24usize, nb in 2..10usize, seed in 0u64..500) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
        let mut gen = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x = DMatrix::from_fn(npts, nb, |_, _| gen());
        let g = DMatrix::from_fn(npts, nb, |_, _| gen());
        let mut p = DMatrix::from_fn(nb, nb, |_, _| gen());
        p.symmetrize_mut();
        prop_assert!(blas::cross_term_naive(&x, &g).max_abs_diff(&blas::symmetric_cross_term(&x, &g)) < 1e-9);
        prop_assert!(blas::sandwich_naive(&x, &p, &g).max_abs_diff(&blas::symmetric_sandwich(&x, &p, &g)) < 1e-9);
    }

    #[test]
    fn syrk_matches_gemm_naive(a in matrix_strategy(24), alpha in -3.0..3.0f64, beta in -2.0..2.0f64, seed in 0u64..500) {
        // C = alpha A A^T + beta C against the naive reference, with a random
        // symmetric C (the syrk contract only references one triangle).
        let n = a.rows();
        let mut state = seed | 1;
        let mut c0 = DMatrix::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        c0.symmetrize_mut();
        let mut reference = c0.clone();
        gemm::gemm_naive(&mut reference, &a, &a.transpose(), alpha, beta);
        let mut fast = c0.clone();
        syrk::syrk(Trans::No, alpha, &a, beta, &mut fast);
        prop_assert!(fast.max_abs_diff(&reference) < 1e-9);
        prop_assert!(fast.is_symmetric(0.0));

        // And the A^T A orientation (output cols(a) x cols(a)).
        let m = a.cols();
        let mut ct = DMatrix::zeros(m, m);
        syrk::syrk(Trans::Yes, alpha, &a, 0.0, &mut ct);
        let mut ref_t = DMatrix::zeros(m, m);
        gemm::gemm_naive(&mut ref_t, &a.transpose(), &a, alpha, 0.0);
        prop_assert!(ct.max_abs_diff(&ref_t) < 1e-9);

        // At α = 1, β = 0 both orientations are gemm_naive's upper
        // triangle bit for bit.
        for (trans, op) in [(Trans::No, a.clone()), (Trans::Yes, a.transpose())] {
            let mut bits = DMatrix::zeros(op.rows(), op.rows());
            syrk::syrk(trans, 1.0, &a, 0.0, &mut bits);
            let mut naive = bits.clone();
            gemm::gemm_naive(&mut naive, &op, &op.transpose(), 1.0, 0.0);
            prop_assert!(upper_bits_equal(&bits, &naive));
        }

        // One fixed case with n²k/2 past the kernel's parallel-row
        // threshold (64³·8 multiply-adds), so the rayon row path is held
        // to the same bits.
        PARALLEL_ROWS_CASE.call_once(|| {
            let big = lcg_matrix(160, 200, 19);
            let mut bits = DMatrix::zeros(160, 160);
            syrk::syrk(Trans::No, 1.0, &big, 0.0, &mut bits);
            let mut naive = bits.clone();
            gemm::gemm_naive(&mut naive, &big, &big.transpose(), 1.0, 0.0);
            assert!(upper_bits_equal(&bits, &naive), "parallel triangle rows differ from gemm_naive");
        });
    }

    #[test]
    fn similarity_transform_matches_gemm_naive(a in matrix_strategy(16), seed in 0u64..500) {
        // A M A^T with symmetric M (rows(a) x rows(a) output, M is cols x cols).
        let k = a.cols();
        let mut state = seed | 3;
        let mut m = DMatrix::from_fn(k, k, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        m.symmetrize_mut();
        let n = a.rows();
        let mut am = DMatrix::zeros(n, k);
        gemm::gemm_naive(&mut am, &a, &m, 1.0, 0.0);
        let mut reference = DMatrix::zeros(n, n);
        gemm::gemm_naive(&mut reference, &am, &a.transpose(), 1.0, 0.0);
        let fast = syrk::similarity_transform(&a, &m);
        prop_assert!(fast.max_abs_diff(&reference) < 1e-9);
        prop_assert!(fast.is_symmetric(0.0));
        // With the first product also gemm_naive's, both transforms are the
        // reference's upper triangle bit for bit (`(Aᵀ)ᵀ M Aᵀ` is `A M Aᵀ`).
        prop_assert!(upper_bits_equal(&fast, &reference));
        prop_assert!(upper_bits_equal(&syrk::congruence_transform(&a.transpose(), &m), &reference));
    }

    #[test]
    fn symmetric_product_matches_gemm_naive(k in 2..20usize, n in 2..12usize, alpha in -2.0..2.0f64, seed in 0u64..500) {
        // Standard symmetric-by-construction pair: A = diag(w) B, so that
        // A^T B = B^T diag(w) B is symmetric (the Fock-build shape).
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(5);
        let mut gen = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b = DMatrix::from_fn(k, n, |_, _| gen());
        let w: Vec<f64> = (0..k).map(|_| gen()).collect();
        let a = DMatrix::from_fn(k, n, |i, j| w[i] * b[(i, j)]);
        let mut reference = DMatrix::zeros(n, n);
        gemm::gemm_naive(&mut reference, &a.transpose(), &b, alpha, 0.0);
        let mut fast = DMatrix::zeros(n, n);
        syrk::symmetric_product(alpha, &a, &b, 0.0, &mut fast);
        prop_assert!(fast.max_abs_diff(&reference) < 1e-9);
        prop_assert!(fast.is_symmetric(0.0));
        let mut naive = DMatrix::zeros(n, n);
        gemm::gemm_naive(&mut naive, &a.transpose(), &b, 1.0, 0.0);
        syrk::symmetric_product(1.0, &a, &b, 0.0, &mut fast);
        prop_assert!(upper_bits_equal(&fast, &naive));
    }

    #[test]
    fn batched_tagged_jobs_match_gemm_naive(
        m in 1..20usize, n in 1..14usize, k in 1..20usize,
        stride in 1..48usize, seed in 0u64..500,
    ) {
        // One job per kernel variant at random shapes, executed packed at a
        // random padding stride, pinned against gemm_naive references and
        // exact-equal to the scattered reference path.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(11);
        let mut gen = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let ga = DMatrix::from_fn(m, k, |_, _| gen());
        let gb = DMatrix::from_fn(k, n, |_, _| gen());
        let sb = DMatrix::from_fn(k, n, |_, _| gen());
        let w: Vec<f64> = (0..k).map(|_| gen()).collect();
        let sa = DMatrix::from_fn(k, n, |i, j| w[i] * sb[(i, j)]);
        let ca = DMatrix::from_fn(k, n, |_, _| gen());
        let mut mk = DMatrix::from_fn(k, k, |_, _| gen());
        mk.symmetrize_mut();
        let ya = DMatrix::from_fn(n, k, |_, _| gen());
        let jobs = vec![
            batch::BatchJob::gemm(ga.clone(), gb.clone()),
            batch::BatchJob::symmetric_product(sa.clone(), sb.clone()),
            batch::BatchJob::congruence(ca.clone(), mk.clone()),
            batch::BatchJob::similarity(ya.clone(), mk.clone()),
        ];
        let packed = batch::execute_jobs(&jobs, batch::OffloadMode::Batched { stride });

        let mut r0 = DMatrix::zeros(m, n);
        gemm::gemm_naive(&mut r0, &ga, &gb, 1.0, 0.0);
        let mut r1 = DMatrix::zeros(n, n);
        gemm::gemm_naive(&mut r1, &sa.transpose(), &sb, 1.0, 0.0);
        let mut t2 = DMatrix::zeros(n, k);
        gemm::gemm_naive(&mut t2, &ca.transpose(), &mk, 1.0, 0.0);
        let mut r2 = DMatrix::zeros(n, n);
        gemm::gemm_naive(&mut r2, &t2, &ca, 1.0, 0.0);
        let mut t3 = DMatrix::zeros(n, k);
        gemm::gemm_naive(&mut t3, &ya, &mk, 1.0, 0.0);
        let mut r3 = DMatrix::zeros(n, n);
        gemm::gemm_naive(&mut r3, &t3, &ya.transpose(), 1.0, 0.0);
        for (out, reference) in packed.iter().zip([&r0, &r1, &r2, &r3]) {
            prop_assert!(out.max_abs_diff(reference) < 1e-9);
        }

        let scattered = batch::execute_jobs(&jobs, batch::OffloadMode::Scattered);
        for (p, s) in packed.iter().zip(&scattered) {
            prop_assert_eq!(p.as_slice(), s.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed f64 kernel is bit-identical to `gemm_naive` across
    /// non-tile-multiple shapes and alpha/beta (DESIGN.md §10). Shapes
    /// deliberately straddle the MR/NR/MC tile boundaries; every third case
    /// is stretched past `PAR_WORK_THRESHOLD` (128³ multiply-adds) so the
    /// rayon `ic` sweep is exercised too — the serial/rayon choice is read
    /// from the operand sizes, no caller can force it.
    #[test]
    fn packed_gemm_bit_identical_to_naive(
        m in 1..70usize, n in 1..40usize, k in 1..40usize,
        alpha in -3.0..3.0f64, beta in -2.0..2.0f64,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(17);
        let mut gen = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let (m, n, k) = if seed % 3 == 0 { (m + 128, n + 128, k + 128) } else { (m, n, k) };
        let a = DMatrix::from_fn(m, k, |_, _| gen());
        let b = DMatrix::from_fn(k, n, |_, _| gen());
        let c0 = DMatrix::from_fn(m, n, |_, _| gen());
        let mut cn = c0.clone();
        let mut cp = c0.clone();
        gemm::gemm_naive(&mut cn, &a, &b, alpha, beta);
        gemm::gemm_packed(&mut cp, &a, &b, alpha, beta);
        prop_assert_eq!(cn.as_slice(), cp.as_slice());
    }

    /// `dgemm` under every transpose-flag combination matches naive on the
    /// materialized `op` views bit for bit — the trans flags pack directly
    /// from strided views, with no transpose materialization on the hot
    /// path.
    #[test]
    fn dgemm_trans_flags_bit_identical_to_naive(
        m in 1..40usize, n in 1..40usize, k in 1..40usize,
        alpha in -3.0..3.0f64, beta in -2.0..2.0f64,
        ta in 0..2usize, tb in 0..2usize,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(23);
        let mut gen = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let (ta, tb) = (
            if ta == 1 { Trans::Yes } else { Trans::No },
            if tb == 1 { Trans::Yes } else { Trans::No },
        );
        let a = match ta {
            Trans::No => DMatrix::from_fn(m, k, |_, _| gen()),
            Trans::Yes => DMatrix::from_fn(k, m, |_, _| gen()),
        };
        let b = match tb {
            Trans::No => DMatrix::from_fn(k, n, |_, _| gen()),
            Trans::Yes => DMatrix::from_fn(n, k, |_, _| gen()),
        };
        let aop = match ta { Trans::No => a.clone(), Trans::Yes => a.transpose() };
        let bop = match tb { Trans::No => b.clone(), Trans::Yes => b.transpose() };
        let c0 = DMatrix::from_fn(m, n, |_, _| gen());
        let mut cn = c0.clone();
        let mut cd = c0.clone();
        gemm::gemm_naive(&mut cn, &aop, &bop, alpha, beta);
        gemm::dgemm(ta, tb, alpha, &a, &b, beta, &mut cd);
        prop_assert_eq!(cn.as_slice(), cd.as_slice());
    }
}

/// Packing scratch take-out/put-back must survive packed launches issued
/// from inside rayon parallel regions: each nested packed GEMM — sized past
/// `PAR_WORK_THRESHOLD`, so its `ic` sweep is a parallel call of its own —
/// takes the thread-local buffers out on whichever thread runs it.
#[test]
fn packing_scratch_reentrant_under_nested_parallelism() {
    use rayon::prelude::*;
    let sample = |m: usize, n: usize, seed: u64| {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    };
    let pairs: Vec<(DMatrix, DMatrix)> = (0..16u64)
        .collect::<Vec<_>>()
        .par_iter()
        .map(|&i| {
            let a = sample(134, 129, i + 1);
            let b = sample(129, 131, i + 100);
            let mut c = DMatrix::zeros(134, 131);
            gemm::gemm_packed(&mut c, &a, &b, 1.0, 0.0);
            let mut cref = DMatrix::zeros(134, 131);
            gemm::gemm_naive(&mut cref, &a, &b, 1.0, 0.0);
            (c, cref)
        })
        .collect();
    for (c, cref) in &pairs {
        assert_eq!(c.as_slice(), cref.as_slice());
    }
}
