//! Operand packing for the packed-panel GEMM (DESIGN.md §10).
//!
//! The slice-tiled kernels in [`crate::gemm`] stream operands straight out
//! of the row-major matrices, so every `BLOCK`-tile pass re-reads `A` and
//! `B` through the cache hierarchy at full `f64` width and the inner loop
//! is a memory-bound axpy. The packed path instead copies each cache block
//! of `A` and `B` **once** into a contiguous panel laid out exactly in the
//! order the [`crate::microkernel`] consumes it:
//!
//! - the `A` block (`mc x kc` rows of `op(A)`, pre-scaled by `alpha`) is
//!   packed into micro-panels of `MR` rows — element `(ir, p)` of
//!   micro-panel `it` lives at `it·MR·kc + p·MR + ir`, so one microkernel
//!   step reads `MR` consecutive values;
//! - the `B` block (`kc x nc` columns of `op(B)`) is packed into
//!   micro-panels of `NR` columns — element `(p, jr)` of micro-panel
//!   `jt` lives at `jt·NR·kc + p·NR + jr`.
//!
//! Ragged edges are zero-padded to full `MR`/`NR` micro-panels: the
//! microkernel always executes full-width multiply-adds (the padded lanes
//! contribute exact zeros that are never stored back), so only the C
//! load/store needs a masked path. Packing understands [`Trans`] directly
//! — a transposed operand is packed from its strided view, which is what
//! lets [`crate::gemm::dgemm`] skip materializing `Aᵀ`/`Bᵀ` entirely.
//!
//! Packing scratch is thread-local and reused across calls. It is taken out
//! of its cell for a call and put back after, so a nested packed call on
//! the same thread finds an empty cell instead of a held borrow.

use crate::gemm::Trans;
use crate::matrix::DMatrix;
use std::cell::RefCell;

/// Microkernel register-tile rows. `MR x NR` `f64` accumulators must fit
/// the SSE2 register file with room for operand loads (see
/// `crate::microkernel`).
pub const MR: usize = 4;
/// Microkernel register-tile columns.
pub const NR: usize = 4;
/// Rows of `op(A)` per packed macro-panel (the `ic` step): an
/// `MC x KC` `f64` A-panel is 128 KiB, sized for L2 residency while the
/// B micro-panel streams from L1.
pub const MC: usize = 64;
/// Shared dimension per packing pass (the `pc` step).
pub const KC: usize = 256;
/// Columns of `op(B)` per packed macro-panel (the `jc` step): a
/// `KC x NC` `f64` B-panel is 2 MiB, the last-level-cache working set.
pub const NC: usize = 1024;

thread_local! {
    // One reusable buffer per operand. Grown, never shrunk: response
    // cycles issue thousands of packed calls and the allocation would
    // otherwise dominate small panels. Kept out of any RefCell borrow
    // across parallel regions — see `with_scratch`.
    pub(crate) static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    pub(crate) static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Take-out/put-back scratch access: the buffer is moved *out* of the
/// thread-local before `f` runs, so a nested call on this thread finds an
/// empty cell and allocates fresh instead of panicking on a held borrow.
/// Put-back keeps the larger buffer so steady-state reuse is unchanged.
pub(crate) fn with_scratch<R>(
    cell: &'static std::thread::LocalKey<RefCell<Vec<f64>>>,
    len: usize,
    f: impl FnOnce(&mut [f64]) -> R,
) -> R {
    let mut buf = cell.with(|c| std::mem::take(&mut *c.borrow_mut()));
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let out = f(&mut buf[..len]);
    cell.with(|c| {
        let mut cur = c.borrow_mut();
        if buf.len() > cur.len() {
            *cur = buf;
        }
    });
    out
}

/// Packed A-panel length in elements for `mc` rows and depth `kc`.
#[inline]
pub(crate) fn a_panel_len(mc: usize, kc: usize) -> usize {
    mc.div_ceil(MR) * MR * kc
}

/// Packed B-panel length in elements for `nc` columns and depth `kc`.
#[inline]
pub(crate) fn b_panel_len(nc: usize, kc: usize) -> usize {
    nc.div_ceil(NR) * NR * kc
}

/// Packs the `mc x kc` block of `op(A)` starting at row `i0`, depth `p0`
/// into `dst` (`a_panel_len(mc, kc)` elements), pre-scaled by `alpha` so
/// the microkernel never multiplies by `alpha` itself — exactly the
/// `aip = alpha * a[(i, p)]` the reference kernels form. Rows past `mc`
/// in the last micro-panel are zero-padded.
#[allow(clippy::too_many_arguments)] // BLAS-style panel bounds are clearest flat
pub(crate) fn pack_a(
    dst: &mut [f64],
    a: &DMatrix,
    ta: Trans,
    alpha: f64,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
) {
    debug_assert_eq!(dst.len(), a_panel_len(mc, kc));
    for (it, panel) in dst.chunks_exact_mut(MR * kc).enumerate() {
        let ir0 = it * MR;
        let rows = MR.min(mc - ir0);
        match ta {
            Trans::No => {
                // op(A)[i][p] = A[i][p]: contiguous reads along each row,
                // MR-strided writes into the micro-panel.
                for ir in 0..rows {
                    let arow = &a.row(i0 + ir0 + ir)[p0..p0 + kc];
                    for (p, &v) in arow.iter().enumerate() {
                        panel[p * MR + ir] = alpha * v;
                    }
                }
                if rows < MR {
                    for p in 0..kc {
                        for ir in rows..MR {
                            panel[p * MR + ir] = 0.0;
                        }
                    }
                }
            }
            Trans::Yes => {
                // op(A)[i][p] = A[p][i]: each depth step reads MR
                // consecutive elements of one A row — the transposed view
                // packs contiguously, no materialized transpose needed.
                for (p, prow) in panel.chunks_exact_mut(MR).enumerate() {
                    let arow = &a.row(p0 + p)[i0 + ir0..i0 + ir0 + rows];
                    for (pv, &v) in prow.iter_mut().zip(arow) {
                        *pv = alpha * v;
                    }
                    for pv in prow[rows..].iter_mut() {
                        *pv = 0.0;
                    }
                }
            }
        }
    }
}

/// Packs the `kc x nc` block of `op(B)` starting at depth `p0`, column
/// `j0` into `dst` (`b_panel_len(nc, kc)` elements). Columns past `nc` in
/// the last micro-panel are zero-padded.
pub(crate) fn pack_b(
    dst: &mut [f64],
    b: &DMatrix,
    tb: Trans,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    debug_assert_eq!(dst.len(), b_panel_len(nc, kc));
    for (jt, panel) in dst.chunks_exact_mut(NR * kc).enumerate() {
        let jr0 = jt * NR;
        let cols = NR.min(nc - jr0);
        match tb {
            Trans::No => {
                // op(B)[p][j] = B[p][j]: contiguous reads and writes.
                for (p, prow) in panel.chunks_exact_mut(NR).enumerate() {
                    let brow = &b.row(p0 + p)[j0 + jr0..j0 + jr0 + cols];
                    for (pv, &v) in prow.iter_mut().zip(brow) {
                        *pv = v;
                    }
                    for pv in prow[cols..].iter_mut() {
                        *pv = 0.0;
                    }
                }
            }
            Trans::Yes => {
                // op(B)[p][j] = B[j][p]: contiguous reads along each B row,
                // NR-strided writes.
                for jr in 0..cols {
                    let brow = &b.row(j0 + jr0 + jr)[p0..p0 + kc];
                    for (p, &v) in brow.iter().enumerate() {
                        panel[p * NR + jr] = v;
                    }
                }
                if cols < NR {
                    for p in 0..kc {
                        for jr in cols..NR {
                            panel[p * NR + jr] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn a_panel_layout_no_trans() {
        let a = sample(7, 9, 1);
        let (mc, kc) = (7, 9);
        let mut dst = vec![f64::NAN; a_panel_len(mc, kc)];
        pack_a(&mut dst, &a, Trans::No, 2.0, 0, mc, 0, kc);
        for it in 0..mc.div_ceil(MR) {
            for p in 0..kc {
                for ir in 0..MR {
                    let want = if it * MR + ir < mc { 2.0 * a[(it * MR + ir, p)] } else { 0.0 };
                    assert_eq!(dst[it * MR * kc + p * MR + ir], want);
                }
            }
        }
    }

    #[test]
    fn a_panel_trans_matches_materialized() {
        let a = sample(9, 6, 2);
        let at = a.transpose(); // 6 x 9 — op(A) when ta = Yes
        let (mc, kc) = (6, 9);
        let mut packed_t = vec![0.0; a_panel_len(mc, kc)];
        let mut packed_m = vec![0.0; a_panel_len(mc, kc)];
        pack_a(&mut packed_t, &a, Trans::Yes, 1.5, 0, mc, 0, kc);
        pack_a(&mut packed_m, &at, Trans::No, 1.5, 0, mc, 0, kc);
        assert_eq!(packed_t, packed_m, "strided trans packing must equal materialized packing");
    }

    #[test]
    fn b_panel_trans_matches_materialized() {
        let b = sample(11, 5, 3);
        let bt = b.transpose(); // 5 x 11
        let (kc, nc) = (5, 11);
        let mut packed_t = vec![0.0; b_panel_len(nc, kc)];
        let mut packed_m = vec![0.0; b_panel_len(nc, kc)];
        pack_b(&mut packed_t, &b, Trans::Yes, 0, kc, 0, nc);
        pack_b(&mut packed_m, &bt, Trans::No, 0, kc, 0, nc);
        assert_eq!(packed_t, packed_m);
    }

    #[test]
    fn b_panel_edge_padding_is_zero() {
        let b = sample(4, NR + 3, 4);
        let (kc, nc) = (4, NR + 3);
        let mut dst = vec![f64::NAN; b_panel_len(nc, kc)];
        pack_b(&mut dst, &b, Trans::No, 0, kc, 0, nc);
        // Last micro-panel has 3 real columns + NR-3 padded zeros.
        let last = &dst[NR * kc..];
        for p in 0..kc {
            for jr in 3..NR {
                assert_eq!(last[p * NR + jr], 0.0);
            }
        }
    }

    #[test]
    fn scratch_survives_nested_use() {
        // Take-out/put-back: a nested with-scratch call while the outer
        // one is live must not panic and must see its own buffer.
        with_scratch(&PACK_A, 8, |outer| {
            outer.fill(1.0);
            with_scratch(&PACK_A, 4, |inner| inner.fill(2.0));
            assert_eq!(outer[0], 1.0, "nested call must not alias the outer buffer");
        });
    }
}
