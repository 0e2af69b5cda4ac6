//! Register-tiled GEMM microkernel and its cache-blocked macro loops
//! (DESIGN.md §10).
//!
//! The driver follows the classic packed-panel decomposition: the output
//! is swept in `(jc, pc, ic)` macro blocks of `(NC, KC, MC)`, the `B`
//! block is packed once per `(jc, pc)` and the `A` block once per `ic`
//! (see [`crate::pack`] for the panel layout), and the innermost work is
//! an `MR``x``NR` register tile updated by `microkernel` — plain
//! fixed-size array loops the autovectorizer turns into SIMD, no
//! intrinsics and no `unsafe` anywhere.
//!
//! Determinism/bit-parity contract: per output entry the accumulation is
//! *identical* to the reference kernels' — `beta` scaling first, then
//! `alpha`-pre-scaled products added in ascending shared-index order. The
//! microkernel loads the current `C` tile into its accumulators, adds the
//! `kc` products of the current depth block in order, and stores back;
//! `pc` blocks execute serially, so the per-entry sum is one ascending
//! fold exactly like `gemm_blocked`'s. Rayon parallelism covers only the
//! `ic` macro-loop (disjoint row blocks of `C` via `par_chunks_mut`), so
//! scheduling can never reorder any entry's accumulation: serial and
//! parallel drivers produce the same bits.

use crate::gemm::Trans;
use crate::matrix::DMatrix;
use crate::pack::{self, KC, MC, MR, NC, NR};
use rayon::prelude::*;

/// One `MR x NR` register-tile update: loads the tile of `C`, accumulates
/// `kc` rank-1 steps from the packed micro-panels, stores back. `ctile`
/// starts at the tile's top-left entry with row stride `ldc`; `mr`/`nr`
/// select the masked edge path (`< MR`/`< NR`), which pads the unused
/// accumulator lanes with zeros from the packed panels and simply never
/// stores them.
#[inline]
fn microkernel(
    amicro: &[f64],
    bmicro: &[f64],
    ctile: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    // Masked load: only real C entries seed their accumulators; padded
    // lanes start at 0 and only ever add exact zeros.
    for (ir, accrow) in acc.iter_mut().enumerate().take(mr) {
        let crow = &ctile[ir * ldc..ir * ldc + nr];
        accrow[..nr].copy_from_slice(crow);
    }
    // Full-width compute: MR*NR multiply-adds per depth step against
    // MR + NR loads, all accumulators live in registers. The fixed-size
    // array conversion lets LLVM drop every bounds check and unroll.
    for (arow, brow) in amicro.chunks_exact(MR).zip(bmicro.chunks_exact(NR)) {
        let arow: &[f64; MR] = arow.try_into().expect("chunks_exact yields MR");
        let brow: &[f64; NR] = brow.try_into().expect("chunks_exact yields NR");
        for (accrow, &av) in acc.iter_mut().zip(arow) {
            for (accv, &bv) in accrow.iter_mut().zip(brow) {
                *accv += av * bv;
            }
        }
    }
    // Masked store.
    for (ir, accrow) in acc.iter().enumerate().take(mr) {
        let crow = &mut ctile[ir * ldc..ir * ldc + nr];
        crow.copy_from_slice(&accrow[..nr]);
    }
}

/// Dimensions of `op(X)` under a transpose flag.
#[inline]
pub(crate) fn op_shape(t: Trans, x: &DMatrix) -> (usize, usize) {
    match t {
        Trans::No => x.shape(),
        Trans::Yes => (x.cols(), x.rows()),
    }
}

/// Packed-panel GEMM driver: `C <- alpha * op(A) * op(B) + beta * C`.
///
/// Dimension checks, counter bumps and FLOP accounting are the caller's
/// job (`crate::gemm::packed_entry`); this function is pure kernel. With
/// `parallel` the `ic` macro-loop runs under rayon over disjoint `MC`-row
/// chunks of `C`, each task packing its own A block into thread-local
/// scratch (take-out/put-back, safe under nesting).
#[allow(clippy::too_many_arguments)] // BLAS-style panel bounds are clearest flat
pub(crate) fn packed_driver(
    c: &mut DMatrix,
    ta: Trans,
    a: &DMatrix,
    tb: Trans,
    b: &DMatrix,
    alpha: f64,
    beta: f64,
    parallel: bool,
) {
    let (m, k) = op_shape(ta, a);
    let n = op_shape(tb, b).1;
    crate::gemm::scale_rows(c, beta, 0, m);
    if k == 0 || alpha == 0.0 {
        // Nothing to accumulate; matches the reference kernels, whose
        // zero-skip drops every `alpha * a == 0` product.
        return;
    }
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack::with_scratch(&pack::PACK_B, pack::b_panel_len(nc, kc), |bbuf| {
                pack::pack_b(bbuf, b, tb, pc, kc, jc, nc);
                let bbuf: &[f64] = bbuf;
                let run_chunk = |chunk_idx: usize, cchunk: &mut [f64]| {
                    let i0 = chunk_idx * MC;
                    let mc = cchunk.len() / n;
                    pack::with_scratch(&pack::PACK_A, pack::a_panel_len(mc, kc), |abuf| {
                        pack::pack_a(abuf, a, ta, alpha, i0, mc, pc, kc);
                        for (jt, jr0) in (0..nc).step_by(NR).enumerate() {
                            let nr = NR.min(nc - jr0);
                            let bmicro = &bbuf[jt * NR * kc..(jt + 1) * NR * kc];
                            for (it, ir0) in (0..mc).step_by(MR).enumerate() {
                                let mr = MR.min(mc - ir0);
                                let amicro = &abuf[it * MR * kc..(it + 1) * MR * kc];
                                let coff = ir0 * n + jc + jr0;
                                microkernel(amicro, bmicro, &mut cchunk[coff..], n, mr, nr);
                            }
                        }
                    });
                };
                // Row blocks of C are disjoint slices; values are
                // identical either way, so `parallel` is purely a
                // scheduling choice.
                if parallel {
                    c.as_mut_slice()
                        .par_chunks_mut(MC * n)
                        .enumerate()
                        .for_each(|(ci, cc)| run_chunk(ci, cc));
                } else {
                    c.as_mut_slice().chunks_mut(MC * n).enumerate().for_each(|(ci, cc)| {
                        run_chunk(ci, cc);
                    });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;

    fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn driver_matches_naive_exactly_odd_shapes() {
        // Shapes straddling every tile boundary: full tiles, ragged MR/NR
        // edges, kc < KC, multiple pc blocks.
        for (m, n, k, seed) in
            [(1, 1, 1, 1u64), (3, 5, 2, 2), (MR, NR, 7, 3), (13, 21, 300, 4), (70, 33, 17, 5)]
        {
            let a = sample(m, k, seed);
            let b = sample(k, n, seed + 100);
            let mut c1 = sample(m, n, seed + 200);
            let mut c2 = c1.clone();
            gemm_naive(&mut c1, &a, &b, 1.25, -0.5);
            packed_driver(&mut c2, Trans::No, &a, Trans::No, &b, 1.25, -0.5, false);
            assert_eq!(c1.as_slice(), c2.as_slice(), "{m}x{n}x{k}");
        }
    }

    #[test]
    fn parallel_driver_bitwise_matches_serial() {
        // The rayon `ic` sweep forced on shapes the size-based choice in
        // `gemm::gemm_packed` would run serially: ragged MR/NR edges,
        // several MC row blocks, alpha/beta both live.
        for (m, n, k, seed) in [(150, 77, 90, 6u64), (3, 5, 2, 7), (70, 33, 17, 8), (65, 4, 300, 9)]
        {
            let a = sample(m, k, seed);
            let b = sample(k, n, seed + 100);
            let mut cs = sample(m, n, seed + 200);
            let mut cp = cs.clone();
            let mut cn = cs.clone();
            packed_driver(&mut cs, Trans::No, &a, Trans::No, &b, 1.5, 0.3, false);
            packed_driver(&mut cp, Trans::No, &a, Trans::No, &b, 1.5, 0.3, true);
            gemm_naive(&mut cn, &a, &b, 1.5, 0.3);
            assert_eq!(cs.as_slice(), cp.as_slice(), "{m}x{n}x{k}");
            assert_eq!(cn.as_slice(), cp.as_slice(), "{m}x{n}x{k}");
        }
    }

    #[test]
    fn trans_views_match_materialized() {
        let a = sample(40, 23, 9); // op(A) = Aᵀ: 23 x 40
        let b = sample(31, 40, 10); // op(B) = Bᵀ: 40 x 31
        let mut c1 = DMatrix::zeros(23, 31);
        let mut c2 = DMatrix::zeros(23, 31);
        packed_driver(&mut c1, Trans::Yes, &a, Trans::Yes, &b, 1.0, 0.0, false);
        packed_driver(
            &mut c2,
            Trans::No,
            &a.transpose(),
            Trans::No,
            &b.transpose(),
            1.0,
            0.0,
            false,
        );
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn beta_only_and_alpha_zero() {
        let a = sample(6, 4, 13);
        let b = sample(4, 5, 14);
        let mut c = DMatrix::from_fn(6, 5, |_, _| 2.0);
        packed_driver(&mut c, Trans::No, &a, Trans::No, &b, 0.0, 0.5, false);
        assert!(c.max_abs_diff(&DMatrix::from_fn(6, 5, |_, _| 1.0)) == 0.0);
    }
}
