//! Compressed sparse row (CSR) matrices and the mat-vec abstraction.
//!
//! The assembled mass-weighted Hessian of Eq. (1) is block sparse: each
//! fragment, cap and two-body concap contributes a small dense block to the
//! global `3N x 3N` matrix, and fragments only couple within the λ = 4 Å
//! threshold. The Lanczos solver needs only `y = H x`, so we expose a
//! [`MatVec`] trait; [`CsrMatrix`] is the materialized in-core
//! implementation, while the out-of-core path streams the same rows as CSR
//! tiles from disk (`qfr_solver::ShardedOperator`).

use crate::matrix::DMatrix;
use rayon::prelude::*;

/// FLOPs one parallel SpMM chunk carries at least: starting a helper
/// thread costs tens of microseconds, a chunk this size about a
/// millisecond.
const MIN_TASK_FLOPS: usize = 1 << 21;

/// Anything that can apply itself to a vector: the only operation the
/// Lanczos/GAGQ spectral solver requires.
pub trait MatVec: Sync {
    /// Matrix dimension (square operators only).
    fn dim(&self) -> usize;
    /// Computes `y = A x`. `y` is fully overwritten.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Computes `Y = A X` for row-major `dim x p` panels (entry `(i, c)` at
    /// `i * p + c`). Column `c` of `Y` must carry exactly the bits `apply`
    /// produces for column `c` of `X`, so a solver's per-column arithmetic
    /// depends neither on the panel width nor on the operator. The default
    /// gathers each column and calls `apply`; operators that can serve all
    /// columns from one pass over their data override it.
    fn apply_panel(&self, p: usize, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        assert!(x.len() == n * p && y.len() == n * p, "apply_panel: panel size mismatch");
        let (mut xc, mut yc) = (vec![0.0; n], vec![0.0; n]);
        for c in 0..p {
            xc.iter_mut().enumerate().for_each(|(i, xi)| *xi = x[i * p + c]);
            self.apply(&xc, &mut yc);
            yc.iter().enumerate().for_each(|(i, yi)| y[i * p + c] = *yi);
        }
    }
}

impl MatVec for DMatrix {
    fn dim(&self) -> usize {
        assert!(self.is_square(), "MatVec requires a square matrix");
        self.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let out = self.matvec(x);
        y.copy_from_slice(&out);
    }
}

/// Accumulates `(row, col, value)` triplets, then compresses to CSR.
/// Duplicate coordinates are summed — exactly the semantics fragment-block
/// assembly needs (overlapping caps subtract via negative values).
#[derive(Debug, Clone, Default)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletBuilder {
    /// New builder for an `rows x cols` matrix.
    ///
    /// # Panics
    /// Panics if a dimension exceeds `u32::MAX` (the CSR index type).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "TripletBuilder dimensions exceed u32 index range"
        );
        Self { rows, cols, entries: Vec::new() }
    }

    /// Adds `value` at `(row, col)` (accumulating with any prior entry).
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of {}x{}",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row as u32, col as u32, value));
        }
    }

    /// Adds an entire dense block with top-left corner `(row0, col0)`,
    /// scaled by `scale`. This is the fragment-assembly workhorse.
    pub fn push_block(&mut self, row0: usize, col0: usize, block: &DMatrix, scale: f64) {
        self.entries.reserve(block.rows() * block.cols());
        for i in 0..block.rows() {
            for j in 0..block.cols() {
                self.push(row0 + i, col0 + j, scale * block[(i, j)]);
            }
        }
    }

    /// Number of raw (pre-compression) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no triplets were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compresses to CSR, summing duplicates and dropping entries that
    /// cancel to exactly zero.
    ///
    /// The sort is **stable**, so duplicate `(row, col)` entries accumulate
    /// in push order. That makes the compressed values a pure function of
    /// the per-row push sequence (an unstable sort may order equal keys
    /// differently for different subsets, changing the f64 summation
    /// order) — the property the Eq. (1) fold's oracle test compares
    /// against.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.par_sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());

        let mut iter = self.entries.iter().peekable();
        while let Some(&(r, c, v)) = iter.next() {
            let mut acc = v;
            while let Some(&&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    acc += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            if acc != 0.0 {
                col_idx.push(c);
                values.push(acc);
                row_ptr[r as usize + 1] += 1;
            }
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

/// Compressed sparse row matrix with `u32` column indices.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates `(col, value)` pairs of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&c, &v)| (c as usize, v))
    }

    /// Value at `(i, j)` (0 if not stored). Binary search within the row.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&(j as u32)) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// SpMV `y = A x`: the one-column case of [`CsrMatrix::spmm`].
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmm(1, x, y);
    }

    /// Panel SpMV `Y = A X` over row-major panels of `p` columns (`X` is
    /// `cols x p`, `Y` is `rows x p`): one pass over the CSR arrays serves
    /// every column, row-partitioned under rayon. Each `Y[i, c]` is the
    /// sum over row `i`'s entries in ascending `k`, from 0.0 — the same
    /// bits for any `p`.
    pub fn spmm(&self, p: usize, x: &[f64], y: &mut [f64]) {
        assert!(x.len() == self.cols * p && y.len() == self.rows * p, "spmm: panel size mismatch");
        crate::flops::add(2 * (self.nnz() * p) as u64);
        if p == 0 {
            return;
        }
        // Rows are independent, so the chunking never changes a bit. Small
        // operators, such as one tile of a sharded solve, run inline.
        let row_flops = (2 * p * self.nnz()).div_ceil(self.rows.max(1)).max(1);
        let min_rows = MIN_TASK_FLOPS.div_ceil(row_flops);
        y.par_chunks_mut(p).enumerate().with_min_len(min_rows).for_each(|(i, yi)| {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let (cols, vals) = (&self.col_idx[lo..hi], &self.values[lo..hi]);
            // One sweep over the row serves up to 12 columns from register
            // accumulators (six SSE2 registers); wider panels take further
            // sweeps while the row's entries are still in L1.
            for (c0, out) in (0..p).step_by(12).zip(yi.chunks_mut(12)) {
                macro_rules! sweep {
                    ($($w:literal)*) => {
                        match out.len() {
                            $($w => row_chunk::<$w>(cols, vals, &x[c0..], p, out),)*
                            _ => unreachable!("chunk width is 1..=12"),
                        }
                    };
                }
                sweep!(1 2 3 4 5 6 7 8 9 10 11 12);
            }
        });
    }

    /// Raw CSR arrays `(row_ptr, col_idx, values)`, for serialization of
    /// out-of-core shard tiles. `row_ptr` has `rows + 1` entries.
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Rebuilds a CSR matrix from raw arrays (the inverse of
    /// [`CsrMatrix::raw_parts`]). Used when streaming shard tiles back
    /// from disk; the arrays must describe a valid CSR layout.
    ///
    /// # Panics
    /// Panics if `row_ptr` length, monotonicity, or `col_idx`/`values`
    /// lengths are inconsistent.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr must have rows+1 entries");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr must be non-decreasing");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr end must equal nnz");
        assert_eq!(col_idx.len(), values.len(), "col_idx/values length mismatch");
        assert!(col_idx.iter().all(|&c| (c as usize) < cols), "column index out of range");
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// Replaces every stored `a_ij` by `a_ij * row_scale[i] * col_scale[j]`
    /// (the two products in that order), in place. The pattern is kept as
    /// is: `D_r A D_c` of a compressed matrix needs no second compression.
    ///
    /// # Panics
    /// Panics unless there is one scale per row and one per column.
    pub fn scale_rows_cols(&mut self, row_scale: &[f64], col_scale: &[f64]) {
        assert!(
            row_scale.len() == self.rows && col_scale.len() == self.cols,
            "scale_rows_cols: one scale per row and per column required"
        );
        for (i, &wi) in row_scale.iter().enumerate() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for (v, &j) in self.values[lo..hi].iter_mut().zip(&self.col_idx[lo..hi]) {
                *v = *v * wi * col_scale[j as usize];
            }
        }
    }

    /// Converts to dense; for tests and small reference problems only.
    pub fn to_dense(&self) -> DMatrix {
        let mut m = DMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Maximum absolute asymmetry `|a_ij - a_ji|` over stored entries
    /// (requires square). Used to validate assembled Hessians.
    pub fn max_asymmetry(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                worst = worst.max((v - self.get(j, i)).abs());
            }
        }
        worst
    }
}

/// `out[c] = Σ_k vals[k] * x[cols[k] * p + c]` for `c < W = out.len()`, each
/// column summed from 0.0 in ascending `k`.
#[inline(always)]
fn row_chunk<const W: usize>(cols: &[u32], vals: &[f64], x: &[f64], p: usize, out: &mut [f64]) {
    let mut acc = [0.0; W];
    for (&col, &v) in cols.iter().zip(vals) {
        let at = col as usize * p;
        let xr: &[f64; W] = x[at..at + W].try_into().expect("chunk width");
        for c in 0..W {
            acc[c] += v * xr[c];
        }
    }
    out.copy_from_slice(&acc);
}

impl MatVec for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.rows, self.cols, "MatVec requires a square matrix");
        self.rows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    fn apply_panel(&self, p: usize, x: &[f64], y: &mut [f64]) {
        self.spmm(p, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_csr() -> CsrMatrix {
        // [[1, 0, 2], [0, 3, 0], [4, 0, 5]]
        let mut b = TripletBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(1, 1, 3.0);
        b.push(2, 0, 4.0);
        b.push(2, 2, 5.0);
        b.build()
    }

    #[test]
    fn build_and_get() {
        let m = small_csr();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.5);
        b.push(0, 0, 2.5);
        b.push(1, 1, 1.0);
        b.push(1, 1, -1.0); // cancels exactly
        let m = b.build();
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 1, "exact cancellation should drop the entry");
    }

    #[test]
    fn zero_pushes_ignored() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 1, 0.0);
        assert!(b.is_empty());
        assert_eq!(b.build().nnz(), 0);
    }

    #[test]
    fn push_block_scales() {
        let mut b = TripletBuilder::new(4, 4);
        let blk = DMatrix::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f64);
        b.push_block(1, 1, &blk, -2.0);
        let m = b.build();
        assert_eq!(m.get(1, 1), -2.0);
        assert_eq!(m.get(2, 2), -8.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn scale_rows_cols_keeps_pattern_and_scales_each_entry() {
        let raw = small_csr();
        let mut m = raw.clone();
        let (r, c) = ([0.5, 3.0, 0.1], [7.0, 0.3, 1.5]);
        m.scale_rows_cols(&r, &c);
        assert_eq!(m.raw_parts().0, raw.raw_parts().0);
        assert_eq!(m.raw_parts().1, raw.raw_parts().1);
        for i in 0..3 {
            for (j, v) in raw.row_entries(i) {
                assert_eq!(m.get(i, j), v * r[i] * c[j], "({i},{j})");
            }
        }
    }

    #[test]
    fn spmv_matches_dense() {
        let m = small_csr();
        let d = m.to_dense();
        let x = vec![1.0, -2.0, 0.5];
        let mut y = vec![0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, d.matvec(&x));
    }

    #[test]
    fn matvec_trait_objects() {
        let m = small_csr();
        let d = m.to_dense();
        let ops: Vec<&dyn MatVec> = vec![&m, &d];
        let x = vec![1.0, 1.0, 1.0];
        let mut outs = Vec::new();
        for op in ops {
            assert_eq!(op.dim(), 3);
            let mut y = vec![0.0; 3];
            op.apply(&x, &mut y);
            outs.push(y);
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn apply_panel_is_per_column_apply_bit_for_bit() {
        // Irregular rows (0..=12 entries), values without short binary
        // expansions so any reordering of a row sum would show.
        let n = 61;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            for t in 0..(i * 5) % 13 {
                b.push(i, (i * 7 + t * 11) % n, 1.0 / (1.0 + ((i + 3 * t) % 17) as f64) - 0.3);
            }
        }
        let csr = b.build();
        let dense = csr.to_dense();
        let ops: [&dyn MatVec; 2] = [&csr, &dense]; // override and provided default
        for p in [1, 2, 3, 5, 7, 10, 11] {
            let x: Vec<f64> = (0..n * p).map(|t| ((t * 37 + p) % 29) as f64 / 7.0 - 2.0).collect();
            for op in ops {
                let mut y = vec![f64::NAN; n * p];
                op.apply_panel(p, &x, &mut y);
                for c in 0..p {
                    let xc: Vec<f64> = (0..n).map(|i| x[i * p + c]).collect();
                    let mut yc = vec![0.0; n];
                    op.apply(&xc, &mut yc);
                    let got: Vec<f64> = (0..n).map(|i| y[i * p + c]).collect();
                    assert_eq!(got, yc, "p = {p}, column {c}");
                }
            }
            // And the CSR kernel is the plain ascending-k row sum.
            let mut y = vec![f64::NAN; n * p];
            csr.spmm(p, &x, &mut y);
            for (i, yi) in y.chunks(p).enumerate() {
                for (c, got) in yi.iter().enumerate() {
                    let sum = csr.row_entries(i).fold(0.0, |acc, (j, v)| acc + v * x[j * p + c]);
                    assert_eq!(*got, sum, "p = {p}, entry ({i}, {c})");
                }
            }
        }
    }

    #[test]
    fn row_entries_iteration() {
        let m = small_csr();
        let row0: Vec<(usize, f64)> = m.row_entries(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
        let row1: Vec<(usize, f64)> = m.row_entries(1).collect();
        assert_eq!(row1, vec![(1, 3.0)]);
    }

    #[test]
    fn asymmetry_detection() {
        let m = small_csr(); // entry (0,2)=2 vs (2,0)=4
        assert_eq!(m.max_asymmetry(), 2.0);
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 1, 3.0);
        b.push(1, 0, 3.0);
        assert_eq!(b.build().max_asymmetry(), 0.0);
    }

    #[test]
    fn empty_matrix() {
        let b = TripletBuilder::new(3, 3);
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        let mut y = vec![7.0; 3];
        m.spmv(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }
}
