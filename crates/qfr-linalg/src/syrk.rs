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
//! - [`symmetric_product`] — `C = α Aᵀ B + β C` for operand pairs whose
//!   product is symmetric by construction (e.g. `B = diag(w) A`), at half
//!   the general-GEMM FLOP count;
//! - [`similarity_transform`] — `A M Aᵀ` for symmetric `M`: a general
//!   first product, then a triangle-only second one;
//! - [`congruence_transform`] — the `Aᵀ M A` counterpart.
//!
//! All of them run one triangle kernel over two `k x n` row views `V`, `W`:
//! `C[i][i..] += α V[p][i] · W[p][i..]` for ascending `p` from a β-scaled
//! `C`, then the mirror. The batched executor (`crate::batch`) runs the
//! same kernel and the same transform body, uncounted. For `n ≤ 16` the
//! kernel holds row pairs in register accumulators across all of `p` and
//! stores only `j ≥ i`: the same fold per entry, so the same bits.
//!
//! FLOPs are accounted at the *reduced* count (the work actually done), and
//! the difference to the general-GEMM count is accumulated in the
//! deterministic `linalg.gemm.flops_saved_symmetry` counter so the CI
//! metrics gate can pin that the strength reduction is live.
//!
//! Determinism contract: every output entry is an ascending-index fold, in
//! both the serial and the rayon-parallel variant (parallelism is over
//! disjoint output rows). Kernel selection depends only on operand shapes,
//! so same-seed runs produce byte-identical results and counter reports.

use crate::gemm::{narrow_axpy, narrow_start, Trans, NARROW};
use crate::matrix::DMatrix;
use rayon::prelude::*;

/// Every triangle-kernel invocation ([`syrk`], [`symmetric_product`], and
/// the second product of the transforms) counts exactly once.
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

/// A GEMM body, `C <- α A B + β C`: the counted `crate::gemm::gemm_auto` or
/// the uncounted `crate::gemm::blocked_core`.
pub(crate) type GemmFn = fn(&mut DMatrix, &DMatrix, &DMatrix, f64, f64);

/// A triangle body, `C = α Vᵀ W + β C`: the counted [`symmetric_product`]
/// or the uncounted [`triangle_core`].
pub(crate) type TriangleFn = fn(f64, &DMatrix, &DMatrix, f64, &mut DMatrix);

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
    // The kernel reads `k x n` row views: `A` itself for `Aᵀ A`, its
    // transpose (materialized once, O(nk) against O(n²k)) for `A Aᵀ`.
    let v = match trans {
        Trans::Yes => std::borrow::Cow::Borrowed(a),
        Trans::No => std::borrow::Cow::Owned(a.transpose()),
    };
    symmetric_product(alpha, &v, &v, beta, c);
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
    triangle_core(alpha, a, b, beta, c);
    account_triangle(a.cols(), a.rows());
}

/// `A M Aᵀ` for symmetric `M` — the Löwdin sandwich `L⁻¹ F L⁻ᵀ` and the
/// MO back-transform `C P_mo Cᵀ` of the DFPT cycle. The first product
/// `T = A M` is a general GEMM through `gemm_auto`; the second computes
/// only one triangle. The result is exactly symmetric.
///
/// # Panics
/// Panics if `M` is not square or `A.cols() != M.rows()`. Debug builds
/// assert `M` is symmetric.
pub fn similarity_transform(a: &DMatrix, m: &DMatrix) -> DMatrix {
    assert!(m.is_square(), "similarity_transform: M must be square");
    assert_eq!(a.cols(), m.rows(), "similarity_transform: A/M mismatch");
    debug_assert!(m.is_symmetric(1e-10), "similarity_transform requires symmetric M");
    transform(a, &a.transpose(), m, crate::gemm::gemm_auto, symmetric_product)
}

/// `Aᵀ M A` for symmetric `M` — the MO forward transform `Cᵀ H1 C` of the
/// response cycle: [`similarity_transform`]'s body on the `k x n` row view
/// `A` itself.
///
/// # Panics
/// Panics if `M` is not square or `A.rows() != M.rows()`.
pub fn congruence_transform(a: &DMatrix, m: &DMatrix) -> DMatrix {
    assert!(m.is_square(), "congruence_transform: M must be square");
    assert_eq!(a.rows(), m.rows(), "congruence_transform: A/M mismatch");
    transform(&a.transpose(), a, m, crate::gemm::gemm_auto, symmetric_product)
}

/// `Vᵀ M V` for the `k x n` row view `v`, given with its `n x k` transpose
/// `vt`: the first product `T = Vᵀ M` through `gemm`, then the triangle
/// pass of `Tᵀ` against `V` through `triangle`. The public transforms pass
/// the counted entries, batched jobs the uncounted cores.
pub(crate) fn transform(
    vt: &DMatrix,
    v: &DMatrix,
    m: &DMatrix,
    gemm: GemmFn,
    triangle: TriangleFn,
) -> DMatrix {
    let mut t = DMatrix::zeros(vt.rows(), m.cols());
    gemm(&mut t, vt, m, 1.0, 0.0);
    let mut out = DMatrix::zeros(v.cols(), v.cols());
    triangle(1.0, &t.transpose(), v, 0.0, &mut out);
    out
}

/// Reduced FLOP count of one triangle product (`n x n` output, inner
/// dimension `k`): `n(n+1)/2` entries of `2k` FLOPs each.
pub(crate) fn triangle_flops(n: usize, k: usize) -> u64 {
    (n as u64 * (n as u64 + 1)) / 2 * 2 * k as u64
}

/// Counter/FLOP accounting for one triangle product (`n x n` output, inner
/// dimension `k`): bumps `linalg.syrk.calls`, adds the *reduced* FLOP
/// count, and credits `linalg.gemm.flops_saved_symmetry`. An empty output
/// books nothing. Shared with `crate::batch`, which books batched triangle
/// jobs here on its dispatching thread.
pub(crate) fn account_triangle(n: usize, k: usize) {
    if n == 0 {
        return;
    }
    SYRK_CALLS.incr();
    let reduced = triangle_flops(n, k);
    crate::flops::add(reduced);
    FLOPS_SAVED.add(crate::flops::gemm_flops(n, n, k) - reduced);
}

/// The one triangle kernel, uncounted: `C = α Vᵀ W + β C` on the upper
/// triangle for the `k x n` row views `V`, `W`, then the mirror. Each
/// stored entry `C[i][j]`, `j ≥ i`, is one fold: its β-scaled start, then
/// `+= (α V[p][i]) · W[p][j]` for ascending `p` — the per-entry order of
/// `gemm_naive` on `Vᵀ`, without its zero skip. The loop nest follows the
/// shape only, never the bits: past `PAR_WORK_THRESHOLD` multiply-adds
/// each row is its own rayon task ([`triangle_fold`]); up to `NARROW`
/// columns, row pairs accumulate in registers ([`narrow_rows`]); otherwise
/// [`triangle_fold`] runs serially with `p` outermost, so both row views
/// stream once and `C` stays in cache.
pub(crate) fn triangle_core(alpha: f64, v: &DMatrix, w: &DMatrix, beta: f64, c: &mut DMatrix) {
    assert_eq!(v.shape(), w.shape(), "triangle kernel: A and B shapes differ");
    let (k, n) = v.shape();
    assert!(c.is_square() && c.rows() == n, "triangle kernel: C must be {n}x{n}");
    if n == 0 {
        return;
    }
    let (v, w) = (v.as_slice(), w.as_slice());
    if n * n * k / 2 >= crate::gemm::PAR_WORK_THRESHOLD {
        c.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, crow)| triangle_fold(alpha, v, w, n, beta, i, crow));
    } else if n <= NARROW {
        for i0 in (0..n).step_by(2) {
            macro_rules! narrow {
                ($($r:literal)*) => {
                    match n - i0 {
                        $($r => narrow_rows::<$r>(alpha, v, w, i0, beta, c.as_mut_slice()),)*
                        _ => unreachable!("narrow rows are 1..=NARROW wide"),
                    }
                };
            }
            narrow!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        }
    } else {
        triangle_fold(alpha, v, w, n, beta, 0, c.as_mut_slice());
    }
    mirror_upper(c);
}

/// The upper-triangle fold over rows `i0..` of `C`, held contiguously in
/// `rows`: β-scale each row from its diagonal on, then for ascending `p`
/// `C[i][i..] += (α V[p][i]) · W[p][i..]`, whose innermost loop writes
/// independent entries and vectorizes without FP reassociation.
fn triangle_fold(
    alpha: f64,
    v: &[f64],
    w: &[f64],
    n: usize,
    beta: f64,
    i0: usize,
    rows: &mut [f64],
) {
    for (i, crow) in (i0..).zip(rows.chunks_mut(n)) {
        if beta == 0.0 {
            crow[i..].fill(0.0);
        } else if beta != 1.0 {
            crow[i..].iter_mut().for_each(|x| *x *= beta);
        }
    }
    for (vrow, wrow) in v.chunks_exact(n).zip(w.chunks_exact(n)) {
        for (i, crow) in (i0..).zip(rows.chunks_mut(n)) {
            let vpi = alpha * vrow[i];
            for (cv, wv) in crow[i..].iter_mut().zip(&wrow[i..]) {
                *cv += vpi * wv;
            }
        }
    }
}

/// Copies the upper triangle of square `c` onto the lower: exact symmetry
/// by construction.
fn mirror_upper(c: &mut DMatrix) {
    for i in 0..c.rows() {
        for j in (i + 1)..c.cols() {
            c[(j, i)] = c[(i, j)];
        }
    }
}

/// Rows `i0` and, for `R ≥ 2`, `i0 + 1` of the upper triangle of an
/// `n x n` output, over the `R = n − i0` columns `i0..n`: both rows are
/// `[f64; R]` accumulators held across the whole ascending `p` sweep and
/// share each `W`-row load. Per stored entry (`j ≥ i`) this is
/// [`triangle_core`]'s fold exactly: β-scaled start, `+= (α V[p][i])
/// W[p][j]` for ascending `p`, no fused multiply-add. Row `i0 + 1` also
/// folds its one entry left of the diagonal, which is never stored.
fn narrow_rows<const R: usize>(
    alpha: f64,
    v: &[f64],
    w: &[f64],
    i0: usize,
    beta: f64,
    c: &mut [f64],
) {
    let n = i0 + R;
    let (top, next) = c[i0 * n..].split_at_mut(n);
    let mut acc0 = narrow_start::<R>(&top[i0..], beta);
    let mut acc1 = if R >= 2 { narrow_start::<R>(&next[i0..n], beta) } else { [0.0; R] };
    for (vrow, wrow) in v.chunks_exact(n).zip(w.chunks_exact(n)) {
        let wrow: &[f64; R] = wrow[i0..].try_into().expect("W row tail is R wide");
        narrow_axpy(&mut acc0, alpha * vrow[i0], wrow);
        if R >= 2 {
            narrow_axpy(&mut acc1, alpha * vrow[i0 + 1], wrow);
        }
    }
    top[i0..].copy_from_slice(&acc0);
    if R >= 2 {
        next[i0 + 1..n].copy_from_slice(&acc1[1..]);
    }
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
        // produce the same folds the serial loop would.
        let a = sample(180, 160, 15);
        let mut c = DMatrix::zeros(180, 180);
        syrk(Trans::No, 1.0, &a, 0.0, &mut c);
        let reference = matmul(&a, &a.transpose());
        assert!(c.max_abs_diff(&reference) < 1e-10);
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn narrow_rows_match_the_general_fold_bit_for_bit() {
        // Widths 1..=16 take the register-resident row pairs, 17 the
        // general fold; `V` has exact zeros and `C` has −0.0 entries, which
        // β = 1 keeps as the start of their folds.
        let bits = |m: &DMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1..=17 {
            for k in [1, 63, 64, 65, 512] {
                let mut v = sample(k, n, 20 + n as u64);
                v.as_mut_slice().iter_mut().step_by(5).for_each(|x| *x = 0.0);
                let w = sample(k, n, 40 + k as u64);
                let mut c0 = sample(n, n, 60);
                c0.as_mut_slice().iter_mut().step_by(3).for_each(|x| *x = -0.0);
                for alpha in [1.0, -0.5] {
                    for beta in [0.0, 1.0, 0.3] {
                        let mut general = c0.clone();
                        let out = general.as_mut_slice();
                        triangle_fold(alpha, v.as_slice(), w.as_slice(), n, beta, 0, out);
                        mirror_upper(&mut general);
                        let mut c = c0.clone();
                        triangle_core(alpha, &v, &w, beta, &mut c);
                        assert_eq!(bits(&c), bits(&general), "n={n} k={k} α={alpha} β={beta}");
                    }
                }
            }
        }
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
