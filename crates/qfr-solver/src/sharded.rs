//! Out-of-core matrix-free operator streaming SpMV tile-by-tile.
//!
//! The 10⁸-atom run cannot hold the assembled mass-weighted Hessian in one
//! address space. [`TileSource`] abstracts a store that owns the matrix as
//! horizontal CSR *tiles* — contiguous row windows, typically spilled to
//! disk by `qfr_core::shard` — and [`ShardedOperator`] turns any such store
//! into a [`MatVec`] the Lanczos loop can drive: each `apply_panel` walks
//! the tiles **in ascending row order**, loads one tile at a time, computes
//! its row window of `Y = H X` for every column of the panel, and drops it
//! — one tile pass per Lanczos step however many start vectors advance.
//! Peak residency of the solver stage is therefore one tile plus the three
//! Lanczos panels instead of the whole matrix.
//!
//! Bit parity with the in-core path: tiles partition the rows exactly, each
//! tile stores its rows' CSR entries in the same ascending-column order the
//! in-core [`CsrMatrix`] does, and `Y[i, c]` is a single dot product over
//! row `i`'s entries in either layout — the same f64 operations in the same
//! order, hence bit-identical `Y` and bit-identical spectra.

use qfr_linalg::sparse::MatVec;
use qfr_linalg::CsrMatrix;

/// One horizontal tile of the operator: a CSR block covering the global
/// rows `row0 .. row0 + matrix.rows()` against all columns.
#[derive(Debug, Clone)]
pub struct CsrTile {
    /// Global index of the tile's first row.
    pub row0: usize,
    /// The tile's rows (`rows x dim` CSR).
    pub matrix: CsrMatrix,
}

/// A store that can produce the operator's row tiles in streaming order.
///
/// Tiles `0..n_tiles()` must cover `0..dim()` contiguously without overlap.
/// `load_tile` returning `None` marks a *missing* window (e.g. a shard
/// quarantined after exhausting its retry budget): its rows act as zero,
/// yielding the same partial-spectrum semantics as the scheduled in-core
/// path, which simply leaves quarantined fragments out of the assembly.
pub trait TileSource: Sync {
    /// Operator dimension (rows == cols).
    fn dim(&self) -> usize;
    /// Number of row tiles.
    fn n_tiles(&self) -> usize;
    /// Loads tile `index` (ascending row order). `None` = missing window.
    fn load_tile(&self, index: usize) -> Option<CsrTile>;
}

/// A [`MatVec`] over a [`TileSource`]: the solver-facing face of the
/// out-of-core sharded assembly.
pub struct ShardedOperator<'a> {
    source: &'a dyn TileSource,
}

impl<'a> ShardedOperator<'a> {
    /// Wraps a tile store as a matrix-free operator.
    pub fn new(source: &'a dyn TileSource) -> Self {
        Self { source }
    }
}

impl MatVec for ShardedOperator<'_> {
    fn dim(&self) -> usize {
        self.source.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_panel(1, x, y);
    }

    /// One `load_tile` per tile serves all `p` columns.
    fn apply_panel(&self, p: usize, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        assert!(x.len() == n * p && y.len() == n * p, "sharded apply: panel size mismatch");
        // Missing tiles contribute zero rows (partial spectrum).
        y.fill(0.0);
        for t in 0..self.source.n_tiles() {
            let Some(tile) = self.source.load_tile(t) else { continue };
            let rows = tile.row0..tile.row0 + tile.matrix.rows();
            tile.matrix.spmm(p, x, &mut y[rows.start * p..rows.end * p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_linalg::TripletBuilder;

    /// In-memory tile store slicing a full CSR matrix into row windows.
    struct SlicedMatrix {
        full: CsrMatrix,
        tile_rows: usize,
        missing: Vec<usize>,
    }

    impl SlicedMatrix {
        fn new(full: CsrMatrix, tile_rows: usize) -> Self {
            Self { full, tile_rows, missing: Vec::new() }
        }
    }

    impl TileSource for SlicedMatrix {
        fn dim(&self) -> usize {
            self.full.rows()
        }

        fn n_tiles(&self) -> usize {
            self.full.rows().div_ceil(self.tile_rows)
        }

        fn load_tile(&self, index: usize) -> Option<CsrTile> {
            if self.missing.contains(&index) {
                return None;
            }
            let row0 = index * self.tile_rows;
            let rows = self.tile_rows.min(self.full.rows() - row0);
            let mut b = TripletBuilder::new(rows, self.full.cols());
            for r in 0..rows {
                for (c, v) in self.full.row_entries(row0 + r) {
                    b.push(r, c, v);
                }
            }
            Some(CsrTile { row0, matrix: b.build() })
        }
    }

    fn banded(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0 + i as f64 * 0.01);
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
                b.push(i + 1, i, -1.5);
            }
            if i + 7 < n {
                b.push(i, i + 7, 0.25);
            }
        }
        b.build()
    }

    #[test]
    fn tiled_apply_is_bit_identical_to_full_spmv() {
        let n = 123;
        let full = banded(n);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 17) as f64 - 8.0).collect();
        let mut y_full = vec![0.0; n];
        full.spmv(&x, &mut y_full);
        // Several tile widths, including ones that do not divide n.
        for tile_rows in [1, 8, 40, 123, 200] {
            let src = SlicedMatrix::new(full.clone(), tile_rows);
            let op = ShardedOperator::new(&src);
            assert_eq!(op.dim(), n);
            let mut y = vec![7.0; n];
            op.apply(&x, &mut y);
            assert_eq!(y, y_full, "tile_rows = {tile_rows}");
        }
    }

    #[test]
    fn missing_tile_rows_act_as_zero() {
        let n = 64;
        let full = banded(n);
        let mut src = SlicedMatrix::new(full.clone(), 16);
        src.missing = vec![1];
        let op = ShardedOperator::new(&src);
        let x = vec![1.0; n];
        let mut y = vec![3.0; n];
        op.apply(&x, &mut y);
        let mut y_full = vec![0.0; n];
        full.spmv(&x, &mut y_full);
        for i in 0..n {
            if (16..32).contains(&i) {
                assert_eq!(y[i], 0.0, "missing window row {i}");
            } else {
                assert_eq!(y[i], y_full[i], "present row {i}");
            }
        }
    }

    #[test]
    fn tiled_apply_panel_is_per_column_apply_bit_for_bit() {
        let n = 123;
        let mut src = SlicedMatrix::new(banded(n), 40);
        src.missing = vec![2];
        let op = ShardedOperator::new(&src);
        for p in [1, 3, 7, 10] {
            let x: Vec<f64> = (0..n * p).map(|t| ((t * 31 + 7) % 17) as f64 / 3.0 - 2.5).collect();
            let mut y = vec![7.0; n * p];
            op.apply_panel(p, &x, &mut y);
            for c in 0..p {
                let xc: Vec<f64> = (0..n).map(|i| x[i * p + c]).collect();
                let mut yc = vec![7.0; n];
                op.apply(&xc, &mut yc);
                let got: Vec<f64> = (0..n).map(|i| y[i * p + c]).collect();
                assert_eq!(got, yc, "p = {p}, column {c}");
            }
        }
    }

    /// Implements `dim`/`apply` only, like the benchmark's timing adapter:
    /// the panel reaches it through the provided `apply_panel`.
    struct ApplyOnly<'a>(&'a dyn MatVec);

    impl MatVec for ApplyOnly<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y);
        }
    }

    /// Symmetric, with dofs 0 and 1 coupled only to each other: a start
    /// vector there breaks down after two steps.
    fn symmetric_with_invariant_pair(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        b.push(0, 0, 1.5);
        b.push(1, 1, 0.5);
        b.push(0, 1, 0.25);
        b.push(1, 0, 0.25);
        for i in 2..n {
            b.push(i, i, 2.0 + (i % 9) as f64 * 0.37);
            for off in [1, 7] {
                if i + off < n {
                    let v = 1.0 / (3.0 + ((i * off) % 5) as f64);
                    b.push(i, i + off, v);
                    b.push(i + off, i, v);
                }
            }
        }
        b.build()
    }

    fn same_bits(a: &crate::LanczosResult, b: &crate::LanczosResult, what: &str) {
        assert_eq!(a.alpha, b.alpha, "{what}: alpha");
        assert_eq!(a.beta, b.beta, "{what}: beta");
        assert_eq!(a.beta_last.to_bits(), b.beta_last.to_bits(), "{what}: beta_last");
        assert_eq!(a.start_norm.to_bits(), b.start_norm.to_bits(), "{what}: start_norm");
    }

    #[test]
    fn panel_columns_equal_solo_runs_over_every_operator() {
        // (n, k): a three-vector run and one that keeps its basis (k >= n).
        for (n, k) in [(90, 30), (24, 24)] {
            let sym = symmetric_with_invariant_pair(n);
            let dense = sym.to_dense();
            let tiles = SlicedMatrix::new(sym.clone(), 13);
            let mut holed = SlicedMatrix::new(sym.clone(), 13);
            holed.missing = vec![1];
            let (tiled, holed) = (ShardedOperator::new(&tiles), ShardedOperator::new(&holed));
            let apply_only = ApplyOnly(&sym);

            // Column 1 is zero, column 2 breaks down early.
            let mut starts: Vec<Vec<f64>> = (0..10)
                .map(|c| (0..n).map(|i| 1.0 + ((i * (c + 3) + c) % 7) as f64 * 0.31).collect())
                .collect();
            starts[1] = vec![0.0; n];
            starts[2] = vec![0.0; n];
            starts[2][0] = 3.0;
            let starts: Vec<&[f64]> = starts.iter().map(Vec::as_slice).collect();

            let ops: [(&str, &dyn MatVec); 5] = [
                ("csr", &sym),
                ("tiles", &tiled),
                ("apply-only", &apply_only),
                ("dense", &dense),
                ("missing tile", &holed),
            ];
            for (name, op) in ops {
                for p in [1, 3, 7, 10] {
                    let panel = crate::lanczos_panel(op, &starts[..p], k);
                    assert_eq!(panel.len(), p);
                    for (c, col) in panel.iter().enumerate() {
                        let what = format!("{name}, n = {n}, p = {p}, column {c}");
                        same_bits(col, &crate::lanczos(op, starts[c], k), &what);
                        // Same bits whatever serves the rows: CSR, tiles, or
                        // per-column `apply` behind the default panel.
                        if matches!(name, "tiles" | "apply-only") {
                            same_bits(col, &crate::lanczos(&sym, starts[c], k), &what);
                        }
                    }
                    if p >= 3 {
                        assert_eq!(panel[1].steps(), 0, "zero column stays empty");
                        assert_eq!(panel[1].start_norm, 0.0);
                        // (Zeroed rows make the operator rank-deficient and
                        // couple the pair to nothing at all.)
                        if name != "missing tile" {
                            assert_eq!(panel[2].steps(), 2, "{name}: invariant pair");
                            assert_eq!(panel[2].beta_last, 0.0);
                            assert_eq!(panel[0].steps(), k, "{name}: live column runs on");
                        }
                    }
                }
            }
        }
    }
}
