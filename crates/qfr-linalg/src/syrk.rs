//! Symmetric rank-k kernels — the strength-reduction layer of Section V-D.
//!
//! A naive DFPT implementation issues general GEMMs for products whose
//! results are symmetric by construction: Gram matrices `AᵀA`, density
//! builds `C_occ C_occᵀ`, Löwdin sandwiches `L⁻¹ M L⁻ᵀ`, and weighted
//! overlap accumulations `Xᵀ diag(w) X`. Half of every such product is
//! redundant. This module provides the BLAS-3 symmetric family that
//! computes only one triangle and mirrors:
//!
//! - [`syrk`] — `C = α A Aᵀ + β C` or `C = α Aᵀ A + β C`;
//! - [`syr2k`] — `C = α (A Bᵀ + B Aᵀ) + β C` (and the transposed form);
//! - [`symmetric_product`] — `C = α Aᵀ B + β C` for operand pairs whose
//!   product is symmetric by construction (e.g. `B = diag(w) A`), at half
//!   the general-GEMM FLOP count;
//! - [`similarity_transform`] — `A M Aᵀ` for symmetric `M` without
//!   materializing `Aᵀ`, with a triangle-only second product;
//! - [`congruence_transform`] — the `Aᵀ M A` counterpart.
//!
//! The last three are what gathered job streams execute in scattered mode.
//! These dot-order kernels are the reference the packed batch executor
//! (`crate::batch`) is bit-compared against.
//!
//! FLOPs are accounted at the *reduced* count (the work actually done), and
//! the difference to the general-GEMM count is accumulated in the
//! deterministic `linalg.gemm.flops_saved_symmetry` counter so the CI
//! metrics gate can pin that the strength reduction is live.
//!
//! Determinism contract: every output entry is a single dot product
//! accumulated in ascending inner-index order, in both the serial and the
//! rayon-parallel variant (parallelism is over disjoint output rows). Kernel
//! selection depends only on operand shapes, so same-seed runs produce
//! byte-identical results and counter reports.

use crate::gemm::Trans;
use crate::matrix::DMatrix;
use rayon::prelude::*;

/// Every triangle-kernel invocation ([`syrk`], [`syr2k`],
/// [`symmetric_product`], and the second product of the transforms) counts
/// exactly once.
static SYRK_CALLS: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.syrk.calls");

/// GEMM FLOPs avoided by exploiting symmetry: the general-GEMM count of the
/// same product minus the reduced count actually executed.
static FLOPS_SAVED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("linalg.gemm.flops_saved_symmetry");

/// Current value of the `linalg.gemm.flops_saved_symmetry` counter (test and
/// bench hook).
pub fn flops_saved_symmetry() -> u64 {
    FLOPS_SAVED.get()
}

/// Symmetric rank-k update, mirroring BLAS `DSYRK`:
///
/// - `trans == Trans::No`: `C = α A Aᵀ + β C` with `A` being `n x k`;
/// - `trans == Trans::Yes`: `C = α Aᵀ A + β C` with `A` being `k x n`.
///
/// Only the upper triangle is computed (half the multiply count of the
/// general GEMM); the lower triangle is mirrored, so the result is exactly
/// symmetric. With `β != 0` the input `C` must be symmetric — like BLAS,
/// only one triangle of `C` is referenced.
///
/// # Panics
/// Panics if `C` is not square or does not match the updated dimension.
pub fn syrk(trans: Trans, alpha: f64, a: &DMatrix, beta: f64, c: &mut DMatrix) {
    let rows = rows_of(trans, a);
    triangle_product_rows(&rows, &rows, alpha, beta, c, PairKind::Single);
}

/// Symmetric rank-2k update, mirroring BLAS `DSYR2K`:
///
/// - `trans == Trans::No`: `C = α (A Bᵀ + B Aᵀ) + β C`, `A`/`B` `n x k`;
/// - `trans == Trans::Yes`: `C = α (Aᵀ B + Bᵀ A) + β C`, `A`/`B` `k x n`.
///
/// Triangle-only compute + mirror; with `β != 0` the input `C` must be
/// symmetric.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn syr2k(trans: Trans, alpha: f64, a: &DMatrix, b: &DMatrix, beta: f64, c: &mut DMatrix) {
    assert_eq!(a.shape(), b.shape(), "syr2k: A and B shapes differ");
    let ra = rows_of(trans, a);
    let rb = rows_of(trans, b);
    triangle_product_rows(&ra, &rb, alpha, beta, c, PairKind::Rank2);
}

/// `C = α Aᵀ B + β C` for operand pairs whose product is *symmetric by
/// construction* — the caller guarantees `Aᵀ B = Bᵀ A` (the canonical case
/// is `A = diag(w) B`, the weighted-overlap accumulation `Xᵀ diag(w) X` of
/// the SCF/response Fock builds). Computes one triangle and mirrors: half
/// the FLOPs of the `dgemm(Trans::Yes, Trans::No, ..)` it replaces.
///
/// `A` and `B` are `k x n`; `C` is `n x n`. With `β != 0` the input `C`
/// must be symmetric.
///
/// # Panics
/// Panics on shape mismatch. The symmetry of the product itself is the
/// caller's contract and is not checked (that would cost the FLOPs back).
pub fn symmetric_product(alpha: f64, a: &DMatrix, b: &DMatrix, beta: f64, c: &mut DMatrix) {
    assert_eq!(a.shape(), b.shape(), "symmetric_product: A and B shapes differ");
    let ra = rows_of(Trans::Yes, a);
    let rb = rows_of(Trans::Yes, b);
    triangle_product_rows(&ra, &rb, alpha, beta, c, PairKind::Single);
}

/// `A M Aᵀ` for symmetric `M` — the Löwdin sandwich `L⁻¹ F L⁻ᵀ` and the
/// MO back-transform `C P_mo Cᵀ` of the DFPT cycle. The first product
/// `T = A M` is a general GEMM; the second exploits row-major layout
/// (`(T Aᵀ)[i][j] = T_i · A_j`, both contiguous rows) so `Aᵀ` is never
/// materialized, and computes only one triangle. The result is exactly
/// symmetric.
///
/// # Panics
/// Panics if `M` is not square or `A.cols() != M.rows()`. Debug builds
/// assert `M` is symmetric.
pub fn similarity_transform(a: &DMatrix, m: &DMatrix) -> DMatrix {
    assert!(m.is_square(), "similarity_transform: M must be square");
    assert_eq!(a.cols(), m.rows(), "similarity_transform: A/M mismatch");
    debug_assert!(m.is_symmetric(1e-10), "similarity_transform requires symmetric M");
    let mut tmp = DMatrix::zeros(a.rows(), m.cols());
    crate::gemm::gemm_auto(&mut tmp, a, m, 1.0, 0.0);
    let mut out = DMatrix::zeros(a.rows(), a.rows());
    triangle_product_rows(&tmp, a, 1.0, 0.0, &mut out, PairKind::Single);
    out
}

/// `Aᵀ M A` for symmetric `M` — the MO forward transform `Cᵀ H1 C` of the
/// response cycle. Implemented as [`similarity_transform`] on the (single)
/// materialized transpose.
///
/// # Panics
/// Panics if `M` is not square or `A.rows() != M.rows()`.
pub fn congruence_transform(a: &DMatrix, m: &DMatrix) -> DMatrix {
    assert!(m.is_square(), "congruence_transform: M must be square");
    assert_eq!(a.rows(), m.rows(), "congruence_transform: A/M mismatch");
    similarity_transform(&a.transpose(), m)
}

/// Reduced FLOP count of one single-dot triangle product (`n x n` output,
/// inner dimension `k`): `n(n+1)/2` entries of `2k` FLOPs each.
pub(crate) fn triangle_flops(n: usize, k: usize) -> u64 {
    (n as u64 * (n as u64 + 1)) / 2 * 2 * k as u64
}

/// Counter/FLOP accounting for one single-dot triangle product (`n x n`
/// output, inner dimension `k`): bumps `linalg.syrk.calls`, adds the
/// *reduced* FLOP count, and credits `linalg.gemm.flops_saved_symmetry`.
/// Shared with `crate::batch`'s packed executor so batched triangle jobs
/// account identically to the scattered kernels.
pub(crate) fn account_triangle(n: usize, k: usize) {
    account_triangle_dots(n, k, 1);
}

fn account_triangle_dots(n: usize, k: usize, dots_per_entry: u64) {
    SYRK_CALLS.incr();
    let reduced = dots_per_entry * triangle_flops(n, k);
    let full = dots_per_entry * crate::flops::gemm_flops(n, n, k);
    crate::flops::add(reduced);
    FLOPS_SAVED.add(full - reduced);
}

/// Whether an entry is one dot product ([`syrk`]/[`symmetric_product`]) or
/// the rank-2 pair of dots ([`syr2k`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum PairKind {
    Single,
    Rank2,
}

/// Row-view of the operand that makes every output entry a dot product of
/// two contiguous rows: the operand itself for `Trans::No`, its transpose
/// (materialized once, O(nk) traffic against O(n²k) compute) otherwise.
fn rows_of<'a>(trans: Trans, a: &'a DMatrix) -> std::borrow::Cow<'a, DMatrix> {
    match trans {
        Trans::No => std::borrow::Cow::Borrowed(a),
        Trans::Yes => std::borrow::Cow::Owned(a.transpose()),
    }
}

/// Shared triangle kernel: `C[i][j] = α f(i, j) + β C[i][j]` for `j >= i`,
/// mirrored to the lower triangle, where `f` is `Ra_i · Rb_j` (`Single`) or
/// `Ra_i · Rb_j + Rb_i · Ra_j` (`Rank2`). `Ra`/`Rb` are `n x k` row views.
fn triangle_product_rows(
    ra: &DMatrix,
    rb: &DMatrix,
    alpha: f64,
    beta: f64,
    c: &mut DMatrix,
    kind: PairKind,
) {
    assert_eq!(ra.shape(), rb.shape(), "triangle kernel: row-view shapes differ");
    let (n, k) = ra.shape();
    assert!(c.is_square() && c.rows() == n, "triangle kernel: C must be {n}x{n}");
    if n == 0 {
        return;
    }
    let dots_per_entry = match kind {
        PairKind::Single => 1,
        PairKind::Rank2 => 2,
    };
    account_triangle_dots(n, k, dots_per_entry);

    let entry = |i: usize, j: usize, old: f64| -> f64 {
        let mut acc = dot(ra.row(i), rb.row(j));
        if kind == PairKind::Rank2 {
            acc += dot(rb.row(i), ra.row(j));
        }
        alpha * acc + if beta == 0.0 { 0.0 } else { beta * old }
    };

    // Triangle work is n(n+1)k/2 multiply-adds; parallelize over the
    // disjoint output rows past the same threshold the GEMM family uses.
    let work = n * n * k / 2;
    if work >= crate::gemm::PAR_WORK_THRESHOLD {
        c.as_mut_slice().par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
            for j in i..n {
                crow[j] = entry(i, j, crow[j]);
            }
        });
    } else {
        for i in 0..n {
            for j in i..n {
                c[(i, j)] = entry(i, j, c[(i, j)]);
            }
        }
    }
    // Mirror the computed triangle: exact symmetry by construction.
    for i in 0..n {
        for j in (i + 1)..n {
            c[(j, i)] = c[(i, j)];
        }
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_naive, matmul};

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

    #[test]
    fn syrk_no_matches_a_at() {
        let a = sample(9, 14, 1);
        let mut c = DMatrix::zeros(9, 9);
        syrk(Trans::No, 1.0, &a, 0.0, &mut c);
        let reference = matmul(&a, &a.transpose());
        assert!(c.max_abs_diff(&reference) < 1e-12);
        assert!(c.is_symmetric(0.0), "mirror must be exact");
    }

    #[test]
    fn syrk_yes_matches_at_a() {
        let a = sample(23, 7, 2);
        let mut c = DMatrix::zeros(7, 7);
        syrk(Trans::Yes, 1.0, &a, 0.0, &mut c);
        let reference = matmul(&a.transpose(), &a);
        assert!(c.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn syrk_alpha_beta_semantics() {
        let a = sample(6, 11, 3);
        let mut c = sym_sample(6, 4);
        let mut reference = c.clone();
        syrk(Trans::No, 2.0, &a, -0.5, &mut c);
        gemm_naive(&mut reference, &a, &a.transpose(), 2.0, -0.5);
        assert!(c.max_abs_diff(&reference) < 1e-12);
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn syr2k_matches_two_gemms() {
        let a = sample(8, 13, 5);
        let b = sample(8, 13, 6);
        let mut c = sym_sample(8, 7);
        let mut reference = c.clone();
        syr2k(Trans::No, 1.5, &a, &b, 0.25, &mut c);
        gemm_naive(&mut reference, &a, &b.transpose(), 1.5, 0.25);
        gemm_naive(&mut reference, &b, &a.transpose(), 1.5, 1.0);
        assert!(c.max_abs_diff(&reference) < 1e-11);
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn syr2k_yes_matches_two_gemms() {
        let a = sample(17, 6, 8);
        let b = sample(17, 6, 9);
        let mut c = DMatrix::zeros(6, 6);
        syr2k(Trans::Yes, 1.0, &a, &b, 0.0, &mut c);
        let mut reference = DMatrix::zeros(6, 6);
        gemm_naive(&mut reference, &a.transpose(), &b, 1.0, 0.0);
        gemm_naive(&mut reference, &b.transpose(), &a, 1.0, 1.0);
        assert!(c.max_abs_diff(&reference) < 1e-11);
    }

    #[test]
    fn symmetric_product_weighted_overlap() {
        // The caller contract case: A = diag(w) B makes AᵀB symmetric.
        let b = sample(19, 8, 10);
        let w: Vec<f64> = (0..19).map(|i| 0.1 + (i % 5) as f64).collect();
        let a = DMatrix::from_fn(19, 8, |i, j| w[i] * b[(i, j)]);
        let mut c = DMatrix::zeros(8, 8);
        symmetric_product(1.0, &a, &b, 0.0, &mut c);
        let reference = matmul(&a.transpose(), &b);
        assert!(c.max_abs_diff(&reference) < 1e-12);
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn similarity_matches_explicit_chain() {
        let a = sample(7, 10, 11);
        let m = sym_sample(10, 12);
        let fast = similarity_transform(&a, &m);
        let reference = matmul(&matmul(&a, &m), &a.transpose());
        assert!(fast.max_abs_diff(&reference) < 1e-11);
        assert!(fast.is_symmetric(0.0));
    }

    #[test]
    fn congruence_matches_explicit_chain() {
        let a = sample(10, 6, 13);
        let m = sym_sample(10, 14);
        let fast = congruence_transform(&a, &m);
        let reference = matmul(&matmul(&a.transpose(), &m), &a);
        assert!(fast.max_abs_diff(&reference) < 1e-11);
    }

    #[test]
    fn parallel_path_matches_serial_values() {
        // Large enough to cross PAR_WORK_THRESHOLD; the parallel rows must
        // produce the same dot products the serial loop would.
        let a = sample(180, 160, 15);
        let mut c = DMatrix::zeros(180, 180);
        syrk(Trans::No, 1.0, &a, 0.0, &mut c);
        let reference = matmul(&a, &a.transpose());
        assert!(c.max_abs_diff(&reference) < 1e-10);
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let a = DMatrix::zeros(0, 5);
        let mut c = DMatrix::zeros(0, 0);
        syrk(Trans::No, 1.0, &a, 0.0, &mut c); // must not panic
        let a = DMatrix::zeros(4, 0);
        let mut c = DMatrix::identity(4);
        syrk(Trans::No, 1.0, &a, 1.0, &mut c);
        assert!(c.max_abs_diff(&DMatrix::identity(4)) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "C must be")]
    fn shape_mismatch_panics() {
        let a = DMatrix::zeros(3, 4);
        let mut c = DMatrix::zeros(4, 4);
        syrk(Trans::No, 1.0, &a, 0.0, &mut c);
    }
}
