//! Higher-level BLAS-style helpers exploiting symmetry.
//!
//! These implement the linear-algebra identities behind the paper's
//! *symmetry-aware strength reduction* (Section V-D, Fig. 6):
//!
//! - Fig. 6(a): an expression of the form `X^T X + X^T G + G^T X` equals
//!   `M + M^T` with `M = X^T (X/2 + G)` — three GEMMs collapse to one GEMM
//!   plus a cheap transpose-add ([`symmetric_cross_term`]).
//! - Fig. 6(b): with a symmetric `P`, `X P G^T + G P X^T` equals `M + M^T`
//!   with `M = (X P) G^T` — two GEMMs and two GEMVs collapse to one of each
//!   ([`symmetric_sandwich`]).
//!
//! The *naive* counterparts are provided too, so the Fig. 9 bench can measure
//! the speedup of the reduction on identical inputs.

use crate::gemm::{dgemm, Trans};
use crate::matrix::DMatrix;

/// `C = M + M^T` for square `M`, costing only additions.
pub fn plus_transpose(m: &DMatrix) -> DMatrix {
    assert!(m.is_square(), "plus_transpose requires a square matrix");
    let n = m.rows();
    crate::flops::add((n * n) as u64);
    DMatrix::from_fn(n, n, |i, j| m[(i, j)] + m[(j, i)])
}

/// Naive evaluation of the Fig. 6(a) expression
/// `X^T X + X^T G + G^T X` using three explicit GEMMs.
///
/// `x` and `g` are `npts x nbasis` (grid-batch by basis-function) matrices;
/// the result is `nbasis x nbasis`.
pub fn cross_term_naive(x: &DMatrix, g: &DMatrix) -> DMatrix {
    assert_eq!(x.shape(), g.shape(), "cross_term: operand shapes differ");
    let n = x.cols();
    let mut c = DMatrix::zeros(n, n);
    dgemm(Trans::Yes, Trans::No, 1.0, x, x, 0.0, &mut c); // X^T X
    dgemm(Trans::Yes, Trans::No, 1.0, x, g, 1.0, &mut c); // + X^T G
    dgemm(Trans::Yes, Trans::No, 1.0, g, x, 1.0, &mut c); // + G^T X
    c
}

/// Symmetry-reduced evaluation of the same expression with ONE GEMM:
/// `M = X^T (X/2 + G)`, result `M + M^T`.
pub fn symmetric_cross_term(x: &DMatrix, g: &DMatrix) -> DMatrix {
    assert_eq!(x.shape(), g.shape(), "cross_term: operand shapes differ");
    // halfg = X/2 + G
    crate::flops::add(2 * (x.rows() * x.cols()) as u64);
    let halfg = DMatrix::from_fn(x.rows(), x.cols(), |i, j| 0.5 * x[(i, j)] + g[(i, j)]);
    let n = x.cols();
    let mut m = DMatrix::zeros(n, n);
    dgemm(Trans::Yes, Trans::No, 1.0, x, &halfg, 0.0, &mut m);
    plus_transpose(&m)
}

/// Naive evaluation of the Fig. 6(b) expression
/// `X P G^T + G P X^T` with symmetric `P`, via two GEMM pairs.
///
/// `x`, `g` are `npts x nbasis`; `p` is `nbasis x nbasis` symmetric. Result
/// is `npts x npts` (the response-density gradient on the grid batch).
pub fn sandwich_naive(x: &DMatrix, p: &DMatrix, g: &DMatrix) -> DMatrix {
    assert_eq!(x.cols(), p.rows(), "sandwich: X/P mismatch");
    assert!(p.is_square(), "sandwich: P must be square");
    assert_eq!(g.cols(), p.cols(), "sandwich: G/P mismatch");
    let npts = x.rows();
    let mut xp = DMatrix::zeros(npts, p.cols());
    dgemm(Trans::No, Trans::No, 1.0, x, p, 0.0, &mut xp);
    let mut c = DMatrix::zeros(npts, g.rows());
    dgemm(Trans::No, Trans::Yes, 1.0, &xp, g, 0.0, &mut c); // X P G^T
    let mut gp = DMatrix::zeros(g.rows(), p.cols());
    dgemm(Trans::No, Trans::No, 1.0, g, p, 0.0, &mut gp);
    let mut c2 = DMatrix::zeros(g.rows(), x.rows());
    dgemm(Trans::No, Trans::Yes, 1.0, &gp, x, 0.0, &mut c2); // G P X^T
    crate::flops::add((npts * npts) as u64);
    for i in 0..npts {
        for j in 0..npts {
            c[(i, j)] += c2[(i, j)];
        }
    }
    c
}

/// Symmetry-reduced evaluation of the Fig. 6(b) expression:
/// since `P = P^T`, `G P X^T = (X P G^T)^T`, so one GEMM chain suffices.
pub fn symmetric_sandwich(x: &DMatrix, p: &DMatrix, g: &DMatrix) -> DMatrix {
    assert_eq!(x.cols(), p.rows(), "sandwich: X/P mismatch");
    assert!(p.is_square(), "sandwich: P must be square");
    assert_eq!(g.cols(), p.cols(), "sandwich: G/P mismatch");
    debug_assert!(p.is_symmetric(1e-10), "symmetric_sandwich requires symmetric P");
    let npts = x.rows();
    let mut xp = DMatrix::zeros(npts, p.cols());
    dgemm(Trans::No, Trans::No, 1.0, x, p, 0.0, &mut xp);
    let mut m = DMatrix::zeros(npts, g.rows());
    dgemm(Trans::No, Trans::Yes, 1.0, &xp, g, 0.0, &mut m);
    plus_transpose(&m)
}

/// Symmetric rank-k update `C = A^T A` (the Gram matrix), computing only one
/// triangle and mirroring — half the multiply count of a full GEMM.
/// Delegates to the [`crate::syrk`] kernel so the call and the saved FLOPs
/// land in the `linalg.syrk.*` counters.
pub fn gram(a: &DMatrix) -> DMatrix {
    let n = a.cols();
    let mut c = DMatrix::zeros(n, n);
    crate::syrk::syrk(Trans::Yes, 1.0, a, 0.0, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        DMatrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn sym_sample(n: usize, seed: u64) -> DMatrix {
        let mut m = sample(n, n, seed);
        m.symmetrize_mut();
        m
    }

    #[test]
    fn plus_transpose_basic() {
        let m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = plus_transpose(&m);
        assert_eq!(s.as_slice(), &[2.0, 5.0, 5.0, 8.0]);
        assert!(s.is_symmetric(0.0));
    }

    #[test]
    fn cross_term_reduction_is_exact() {
        let x = sample(40, 12, 21);
        let g = sample(40, 12, 22);
        let naive = cross_term_naive(&x, &g);
        let fast = symmetric_cross_term(&x, &g);
        assert!(naive.max_abs_diff(&fast) < 1e-11);
        assert!(fast.is_symmetric(1e-11));
    }

    #[test]
    fn sandwich_reduction_is_exact() {
        let x = sample(30, 10, 25);
        let g = sample(30, 10, 26);
        let p = sym_sample(10, 27);
        let naive = sandwich_naive(&x, &p, &g);
        let fast = symmetric_sandwich(&x, &p, &g);
        assert!(naive.max_abs_diff(&fast) < 1e-11);
    }

    #[test]
    fn gram_matches_explicit_ata() {
        let a = sample(20, 7, 31);
        let gm = gram(&a);
        let at = a.transpose();
        let explicit = crate::gemm::matmul(&at, &a);
        assert!(gm.max_abs_diff(&explicit) < 1e-12);
        assert!(gm.is_symmetric(0.0));
        // Gram matrices are PSD: diagonal must be non-negative.
        assert!(gm.diagonal().iter().all(|&d| d >= 0.0));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn plus_transpose_rejects_rectangular() {
        let _ = plus_transpose(&DMatrix::zeros(2, 3));
    }
}
