//! General matrix-matrix multiply (GEMM) kernels.
//!
//! The DFPT worker phases spend the bulk of their time in small-to-medium
//! GEMMs over grid batches (the paper measures a 40-atom fragment issuing
//! ~2,400 GEMM calls per Hamiltonian evaluation). One function per kernel:
//!
//! - [`gemm_naive`] — the triple loop, the correctness reference every
//!   bit-parity test compares against;
//! - [`gemm_blocked`] — cache-blocked i-k-j loop order (row-major friendly);
//!   an output at most 16 columns wide (the DFPT `X·P` panels, `n` = basis
//!   size) instead keeps each row in a `[f64; n]` register accumulator
//!   across the whole inner sweep, chosen by shape, bit for bit the same;
//! - [`gemm_packed`] — packed-panel microkernel GEMM (`crate::pack` +
//!   `crate::microkernel`, DESIGN.md §10), the highest-throughput path.
//!   Whether its `ic` macro-loop runs under rayon is read from the operand
//!   sizes, never from the caller;
//! - [`gemm_auto`] / [`matmul`] — work-based choice between the two;
//! - [`dgemm`] — BLAS-style interface with transpose flags and alpha/beta;
//! - [`gemv`] — matrix-vector multiply with alpha/beta.
//!
//! All kernels account FLOPs via [`crate::flops`], which is how the Table I
//! harness measures achieved FP64 rates.

use crate::matrix::DMatrix;

/// Every base kernel ([`gemm_naive`], [`gemm_blocked`] and the packed
/// driver behind [`gemm_packed`]) counts exactly one call; wrappers
/// ([`dgemm`], [`gemm_auto`], [`matmul`]) delegate to a base kernel, so
/// nothing is double-counted. Batched jobs run the uncounted
/// `blocked_core` and count no call.
static GEMM_CALLS: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.gemm.calls");
static GEMV_CALLS: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.gemv.calls");
/// Packed-panel driver invocations — the metrics gate
/// pins this above zero so the microkernel path cannot silently fall out
/// of the dispatch.
static PACKED_CALLS: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.gemm.packed_calls");

/// Transpose flag for [`dgemm`], mirroring BLAS `TRANSA`/`TRANSB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Tile edge used by the blocked kernel. 64 doubles = 512 B per row segment;
/// a 64x64 tile of `f64` is 32 KiB, sized to stay within a typical L1+L2
/// working set for the three operand tiles.
const BLOCK: usize = 64;

/// Minimum multiply-add count before the packed driver and the `syrk`
/// triangle kernel run their outer loop under rayon.
pub(crate) const PAR_WORK_THRESHOLD: usize = 64 * 64 * 64 * 8;

/// Minimum multiply-add count before [`gemm_auto`] routes through the
/// packed-panel microkernel: below this the O(mk + kn) packing traffic is
/// not paid back (fragment-sized operands stay on the blocked kernel).
pub(crate) const PACKED_WORK_THRESHOLD: usize = 96 * 96 * 96;

fn check_dims(c: &DMatrix, a: &DMatrix, b: &DMatrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm: inner dimensions differ: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(c.rows(), a.rows(), "gemm: C row count mismatch");
    assert_eq!(c.cols(), b.cols(), "gemm: C col count mismatch");
}

/// Reference triple-loop GEMM: `C <- alpha * A * B + beta * C`.
pub fn gemm_naive(c: &mut DMatrix, a: &DMatrix, b: &DMatrix, alpha: f64, beta: f64) {
    check_dims(c, a, b);
    let (m, k) = a.shape();
    let n = b.cols();
    if m == 0 || n == 0 {
        return; // no output entries; nothing to scale or accumulate
    }
    GEMM_CALLS.incr();
    crate::flops::add(crate::flops::gemm_flops(m, n, k));
    for i in 0..m {
        let crow = c.row_mut(i);
        if beta == 0.0 {
            crow.iter_mut().for_each(|x| *x = 0.0);
        } else if beta != 1.0 {
            crow.iter_mut().for_each(|x| *x *= beta);
        }
        for p in 0..k {
            let aip = alpha * a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aip * brow[j];
            }
        }
    }
}

/// Cache-blocked GEMM: `C <- alpha * A * B + beta * C`.
///
/// Uses i-k-j loop order inside `BLOCK`-sized tiles so all three operands are
/// streamed along rows (row-major layout).
pub fn gemm_blocked(c: &mut DMatrix, a: &DMatrix, b: &DMatrix, alpha: f64, beta: f64) {
    check_dims(c, a, b);
    let (m, k) = a.shape();
    let n = b.cols();
    if m == 0 || n == 0 {
        return;
    }
    GEMM_CALLS.incr();
    crate::flops::add(crate::flops::gemm_flops(m, n, k));
    blocked_core(c, a, b, alpha, beta);
}

/// Uncounted body of [`gemm_blocked`]: what batched jobs run for a GEMM
/// or a transform's first product. The executor books their FLOPs on its
/// dispatching thread, and they are no `linalg.gemm.calls`. Outputs at
/// most `NARROW` columns wide take [`narrow_core`], chosen by shape alone.
pub(crate) fn blocked_core(c: &mut DMatrix, a: &DMatrix, b: &DMatrix, alpha: f64, beta: f64) {
    let (m, k) = a.shape();
    let n = b.cols();
    macro_rules! narrow {
        ($($w:literal)*) => {
            match n {
                $($w => return narrow_core::<$w>(c, a, b, alpha, beta),)*
                _ => {}
            }
        };
    }
    narrow!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    scale_rows(c, beta, 0, m);
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for p0 in (0..k).step_by(BLOCK) {
            let p1 = (p0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                tile_kernel(c, a, b, alpha, i0, i1, p0, p1, j0, j1);
            }
        }
    }
}

/// Widest output, in columns, that the narrow GEMM and triangle cores hold
/// in registers: two `[f64; 16]` row accumulators fill the sixteen SSE2
/// registers.
pub(crate) const NARROW: usize = 16;

/// [`blocked_core`] for outputs `W ≤ NARROW` columns wide. Each output row
/// is a `[f64; W]` accumulator kept across the whole ascending `p` sweep,
/// and rows go in pairs that share each `B`-row load, so `C` is read and
/// written once instead of once per `p`. Per entry this is the tiled fold
/// exactly (β-scaled start, `+= (α a[i,p]) b[p,j]` for ascending `p`,
/// skipped where `α a[i,p] == 0`, no fused multiply-add), hence the same
/// bits as [`gemm_naive`].
fn narrow_core<const W: usize>(c: &mut DMatrix, a: &DMatrix, b: &DMatrix, alpha: f64, beta: f64) {
    let k = a.cols();
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut pairs = c.as_mut_slice().chunks_exact_mut(2 * W);
    for (i, pair) in pairs.by_ref().enumerate() {
        let (c0, c1) = pair.split_at_mut(W);
        let (a0, a1) = a[2 * i * k..(2 * i + 2) * k].split_at(k);
        let (mut acc0, mut acc1) = (narrow_start::<W>(c0, beta), narrow_start::<W>(c1, beta));
        for ((brow, &x0), &x1) in b.chunks_exact(W).zip(a0).zip(a1) {
            let brow: &[f64; W] = brow.try_into().expect("B row is W wide");
            let (s0, s1) = (alpha * x0, alpha * x1);
            if s0 != 0.0 {
                narrow_axpy(&mut acc0, s0, brow);
            }
            if s1 != 0.0 {
                narrow_axpy(&mut acc1, s1, brow);
            }
        }
        c0.copy_from_slice(&acc0);
        c1.copy_from_slice(&acc1);
    }
    // An odd last row runs alone.
    let c0 = pairs.into_remainder();
    if !c0.is_empty() {
        let a0 = &a[a.len() - k..];
        let mut acc0 = narrow_start::<W>(c0, beta);
        for (brow, &x0) in b.chunks_exact(W).zip(a0) {
            let s0 = alpha * x0;
            if s0 != 0.0 {
                narrow_axpy(&mut acc0, s0, brow.try_into().expect("B row is W wide"));
            }
        }
        c0.copy_from_slice(&acc0);
    }
}

/// A narrow accumulator's start: the row of `C` scaled as [`scale_rows`]
/// scales it (`β = 1` keeps it, `β = 0` clears it, else `x·β`).
#[inline(always)]
pub(crate) fn narrow_start<const W: usize>(row: &[f64], beta: f64) -> [f64; W] {
    let mut acc: [f64; W] = row.try_into().expect("C row is W wide");
    if beta == 0.0 {
        acc = [0.0; W];
    } else if beta != 1.0 {
        acc.iter_mut().for_each(|x| *x *= beta);
    }
    acc
}

/// `acc[j] += s · row[j]`, one rounded product and one rounded sum per
/// entry.
#[inline(always)]
pub(crate) fn narrow_axpy<const W: usize>(acc: &mut [f64; W], s: f64, row: &[f64; W]) {
    for j in 0..W {
        acc[j] += s * row[j];
    }
}

#[inline]
pub(crate) fn scale_rows(c: &mut DMatrix, beta: f64, row0: usize, row1: usize) {
    if beta == 1.0 {
        return;
    }
    for i in row0..row1 {
        let row = c.row_mut(i);
        if beta == 0.0 {
            row.iter_mut().for_each(|x| *x = 0.0);
        } else {
            row.iter_mut().for_each(|x| *x *= beta);
        }
    }
}

#[inline]
#[allow(clippy::too_many_arguments)] // BLAS-style tile bounds are clearest flat
fn tile_kernel(
    c: &mut DMatrix,
    a: &DMatrix,
    b: &DMatrix,
    alpha: f64,
    i0: usize,
    i1: usize,
    p0: usize,
    p1: usize,
    j0: usize,
    j1: usize,
) {
    for i in i0..i1 {
        for p in p0..p1 {
            let aip = alpha * a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = &b.row(p)[j0..j1];
            let crow = &mut c.row_mut(i)[j0..j1];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aip * bv;
            }
        }
    }
}

/// Packed-panel GEMM: `C <- alpha * A * B + beta * C`.
///
/// Cache-blocked panel packing + the `MR x NR` register-tiled microkernel
/// of `crate::microkernel`. Per-entry accumulation order is identical to
/// [`gemm_blocked`]/[`gemm_naive`], so results are interchangeable with
/// the slice-tiled kernels value for value. Past `PAR_WORK_THRESHOLD`
/// multiply-adds the `ic` macro-loop runs under rayon (disjoint `MC`-row
/// blocks of `C`, bitwise identical to the serial sweep).
pub fn gemm_packed(c: &mut DMatrix, a: &DMatrix, b: &DMatrix, alpha: f64, beta: f64) {
    packed_entry(c, Trans::No, a, Trans::No, b, alpha, beta);
}

/// Shared packed-path entry: dimension checks against the *op* shapes (so
/// transposed operands never need materializing), counters, FLOP
/// accounting and the size-based serial/rayon choice.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel plumbing is clearest flat
fn packed_entry(
    c: &mut DMatrix,
    ta: Trans,
    a: &DMatrix,
    tb: Trans,
    b: &DMatrix,
    alpha: f64,
    beta: f64,
) {
    let (m, k) = crate::microkernel::op_shape(ta, a);
    let (kb, n) = crate::microkernel::op_shape(tb, b);
    assert_eq!(k, kb, "gemm: inner dimensions differ: {m}x{k} * {kb}x{n}");
    assert_eq!(c.rows(), m, "gemm: C row count mismatch");
    assert_eq!(c.cols(), n, "gemm: C col count mismatch");
    if m == 0 || n == 0 {
        return;
    }
    GEMM_CALLS.incr();
    PACKED_CALLS.incr();
    crate::flops::add(crate::flops::gemm_flops(m, n, k));
    let parallel = m * k * n >= PAR_WORK_THRESHOLD;
    crate::microkernel::packed_driver(c, ta, a, tb, b, alpha, beta, parallel);
}

/// BLAS-style GEMM with transpose flags:
/// `C <- alpha * op(A) * op(B) + beta * C` where `op(X)` is `X` or `X^T`.
///
/// Transposed operands are packed directly from their strided views by the
/// packed-panel driver — no transpose is ever materialized. Untransposed
/// calls follow the [`gemm_auto`] work-based dispatch.
pub fn dgemm(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &DMatrix,
    b: &DMatrix,
    beta: f64,
    c: &mut DMatrix,
) {
    if ta == Trans::No && tb == Trans::No {
        return gemm_auto(c, a, b, alpha, beta);
    }
    packed_entry(c, ta, a, tb, b, alpha, beta);
}

/// Work-based kernel choice — what [`matmul`], untransposed [`dgemm`],
/// the transforms' first product and scattered GEMM jobs run:
/// [`gemm_blocked`] below `PACKED_WORK_THRESHOLD` (96³) multiply-adds,
/// where packing traffic would not amortize, [`gemm_packed`] above.
pub fn gemm_auto(c: &mut DMatrix, a: &DMatrix, b: &DMatrix, alpha: f64, beta: f64) {
    if a.rows() * a.cols() * b.cols() < PACKED_WORK_THRESHOLD {
        gemm_blocked(c, a, b, alpha, beta);
    } else {
        gemm_packed(c, a, b, alpha, beta);
    }
}

/// `y <- alpha * A x + beta * y`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv(alpha: f64, a: &DMatrix, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), a.cols(), "gemv: x length mismatch");
    assert_eq!(y.len(), a.rows(), "gemv: y length mismatch");
    GEMV_CALLS.incr();
    crate::flops::add(2 * a.rows() as u64 * a.cols() as u64);
    for (i, yi) in y.iter_mut().enumerate() {
        let row = a.row(i);
        let acc: f64 = row.iter().zip(x).map(|(av, xv)| av * xv).sum();
        *yi = alpha * acc + if beta == 0.0 { 0.0 } else { beta * *yi };
    }
}

/// Convenience product `A * B` through [`gemm_auto`].
pub fn matmul(a: &DMatrix, b: &DMatrix) -> DMatrix {
    let mut c = DMatrix::zeros(a.rows(), b.cols());
    gemm_auto(&mut c, a, b, 1.0, 0.0);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
        // Small deterministic LCG so tests do not need a rand dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn naive_identity() {
        let a = sample(5, 5, 1);
        let i = DMatrix::identity(5);
        let mut c = DMatrix::zeros(5, 5);
        gemm_naive(&mut c, &a, &i, 1.0, 0.0);
        assert!(c.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn blocked_matches_naive_rectangular() {
        let a = sample(70, 33, 2);
        let b = sample(33, 91, 3);
        let mut c1 = DMatrix::zeros(70, 91);
        let mut c2 = DMatrix::zeros(70, 91);
        gemm_naive(&mut c1, &a, &b, 1.0, 0.0);
        gemm_blocked(&mut c2, &a, &b, 1.0, 0.0);
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn parallel_matches_naive() {
        // Past PAR_WORK_THRESHOLD the packed driver sweeps its `ic` blocks
        // under rayon; the result must still be naive's, bit for bit.
        let (m, k, n) = (160, 96, 140);
        assert!(m * k * n >= PAR_WORK_THRESHOLD);
        let a = sample(m, k, 4);
        let b = sample(k, n, 5);
        let mut c1 = sample(m, n, 6);
        let mut c2 = c1.clone();
        gemm_naive(&mut c1, &a, &b, 2.0, 0.5);
        gemm_packed(&mut c2, &a, &b, 2.0, 0.5);
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn narrow_widths_match_naive_bit_for_bit() {
        // Widths 1..=16 take the register-resident rows, 17 the tiles; odd
        // `m` leaves a lone last row. `A` has exact zeros, and its row 1 and
        // last row are all zero, so the skip keeps `C`'s −0.0 entries there
        // under β = 1, in a row pair and in the lone row.
        let bits = |m: &DMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1..=17 {
            for k in [1, 63, 64, 65, 512] {
                for m in [1, 6, 7] {
                    let mut a = sample(m, k, 20 + n as u64);
                    a.as_mut_slice().iter_mut().step_by(5).for_each(|x| *x = 0.0);
                    if m > 1 {
                        a.row_mut(1).fill(0.0);
                        a.row_mut(m - 1).fill(0.0);
                    }
                    let b = sample(k, n, 40 + k as u64);
                    let mut c0 = sample(m, n, 60);
                    c0.as_mut_slice().iter_mut().step_by(3).for_each(|x| *x = -0.0);
                    for alpha in [1.0, -0.5] {
                        for beta in [0.0, 1.0, 0.3] {
                            let (mut naive, mut blocked) = (c0.clone(), c0.clone());
                            gemm_naive(&mut naive, &a, &b, alpha, beta);
                            gemm_blocked(&mut blocked, &a, &b, alpha, beta);
                            assert_eq!(
                                bits(&blocked),
                                bits(&naive),
                                "m={m} n={n} k={k} α={alpha} β={beta}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = DMatrix::identity(3);
        let b = DMatrix::identity(3);
        let mut c = DMatrix::from_fn(3, 3, |_, _| 1.0);
        gemm_blocked(&mut c, &a, &b, 2.0, 3.0);
        // C = 2*I + 3*ones
        assert_eq!(c[(0, 0)], 5.0);
        assert_eq!(c[(0, 1)], 3.0);
    }

    #[test]
    fn beta_zero_overwrites_nan_free() {
        let a = DMatrix::identity(2);
        let b = DMatrix::identity(2);
        let mut c = DMatrix::from_fn(2, 2, |_, _| f64::NAN);
        gemm_blocked(&mut c, &a, &b, 1.0, 0.0);
        assert!(c.max_abs_diff(&DMatrix::identity(2)) < 1e-15);
    }

    #[test]
    fn dgemm_transpose_flags() {
        let a = sample(13, 7, 7);
        let b = sample(13, 9, 8);
        // C = A^T * B : (7x13)*(13x9)
        let mut c = DMatrix::zeros(7, 9);
        dgemm(Trans::Yes, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        let at = a.transpose();
        let mut cref = DMatrix::zeros(7, 9);
        gemm_naive(&mut cref, &at, &b, 1.0, 0.0);
        assert!(c.max_abs_diff(&cref) < 1e-12);

        // C = A * B^T with A 13x7, B 9x7
        let b2 = sample(9, 7, 9);
        let mut c2 = DMatrix::zeros(13, 9);
        dgemm(Trans::No, Trans::Yes, 1.0, &a, &b2, 0.0, &mut c2);
        let mut c2ref = DMatrix::zeros(13, 9);
        gemm_naive(&mut c2ref, &a, &b2.transpose(), 1.0, 0.0);
        assert!(c2.max_abs_diff(&c2ref) < 1e-12);
    }

    #[test]
    fn gemv_matches_matvec() {
        let a = sample(8, 5, 10);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let mut y = vec![1.0; 8];
        gemv(2.0, &a, &x, -1.0, &mut y);
        let reference: Vec<f64> = a.matvec(&x).iter().map(|v| 2.0 * v - 1.0).collect();
        for (yi, ri) in y.iter().zip(&reference) {
            assert!((yi - ri).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_beta_zero_ignores_y_garbage() {
        let a = DMatrix::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![f64::NAN; 3];
        gemv(1.0, &a, &x, 0.0, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn matmul_dispatch_small_and_large() {
        let a = sample(4, 4, 11);
        let b = sample(4, 4, 12);
        let mut cref = DMatrix::zeros(4, 4);
        gemm_naive(&mut cref, &a, &b, 1.0, 0.0);
        assert!(matmul(&a, &b).max_abs_diff(&cref) < 1e-12);

        let a = sample(160, 160, 13);
        let b = sample(160, 160, 14);
        let mut cref = DMatrix::zeros(160, 160);
        gemm_naive(&mut cref, &a, &b, 1.0, 0.0);
        assert!(matmul(&a, &b).max_abs_diff(&cref) < 1e-10);
    }

    #[test]
    fn empty_dimensions_do_not_panic() {
        for (m, k, n) in [(0usize, 3usize, 4usize), (3, 3, 0), (0, 0, 0), (4, 0, 0)] {
            let a = DMatrix::zeros(m, k);
            let b = DMatrix::zeros(k, n);
            let mut c1 = DMatrix::zeros(m, n);
            let mut c2 = DMatrix::zeros(m, n);
            let mut c3 = DMatrix::zeros(m, n);
            gemm_naive(&mut c1, &a, &b, 1.0, 0.5);
            gemm_blocked(&mut c2, &a, &b, 1.0, 0.5);
            gemm_packed(&mut c3, &a, &b, 1.0, 0.5);
            assert_eq!(c1.shape(), (m, n));
        }
        // k == 0 with non-empty output still applies the beta scaling.
        let a = DMatrix::zeros(2, 0);
        let b = DMatrix::zeros(0, 3);
        let mut c = DMatrix::from_fn(2, 3, |_, _| 2.0);
        gemm_packed(&mut c, &a, &b, 1.0, 0.5);
        assert!(c.max_abs_diff(&DMatrix::from_fn(2, 3, |_, _| 1.0)) < 1e-15);
        let empty = matmul(&DMatrix::zeros(5, 4), &DMatrix::zeros(4, 0));
        assert_eq!(empty.shape(), (5, 0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dim_mismatch_panics() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(4, 2);
        let mut c = DMatrix::zeros(2, 2);
        gemm_naive(&mut c, &a, &b, 1.0, 0.0);
    }
}
