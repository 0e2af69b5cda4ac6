//! Row-major dense `f64` matrix.
//!
//! [`DMatrix`] is the single dense-matrix type used across the QF-RAMAN
//! stack: fragment Hessian blocks, DFPT density/Hamiltonian matrices, batched
//! GEMM operands and eigensolver inputs are all `DMatrix` values. Row-major
//! storage keeps the GEMM microkernels straightforward and matches how grid
//! batches are laid out by the DFPT engine.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// A dense, row-major matrix of `f64` values.
#[derive(Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "DMatrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Extracts the diagonal as a vector. Works for rectangular matrices
    /// (length is `min(rows, cols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).collect()
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diagonal().iter().sum()
    }

    /// Frobenius norm: `sqrt(sum a_ij^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Scales every entry in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub fn scaled(&self, s: f64) -> DMatrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Copies a rectangular block from `src` into `self` with the block's
    /// top-left corner at `(row0, col0)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, row0: usize, col0: usize, src: &DMatrix) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "set_block: {}x{} block at ({row0},{col0}) does not fit in {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for i in 0..src.rows {
            let dst = &mut self.row_mut(row0 + i)[col0..col0 + src.cols];
            dst.copy_from_slice(src.row(i));
        }
    }

    /// Adds a rectangular block of `src` into `self` at `(row0, col0)`.
    pub fn add_block(&mut self, row0: usize, col0: usize, src: &DMatrix) {
        assert!(
            row0 + src.rows <= self.rows && col0 + src.cols <= self.cols,
            "add_block: {}x{} block at ({row0},{col0}) does not fit in {}x{}",
            src.rows,
            src.cols,
            self.rows,
            self.cols
        );
        for i in 0..src.rows {
            let dst = &mut self.row_mut(row0 + i)[col0..col0 + src.cols];
            for (d, s) in dst.iter_mut().zip(src.row(i)) {
                *d += s;
            }
        }
    }

    /// Extracts the `nrows x ncols` block with top-left corner `(row0, col0)`.
    pub fn block(&self, row0: usize, col0: usize, nrows: usize, ncols: usize) -> DMatrix {
        assert!(row0 + nrows <= self.rows && col0 + ncols <= self.cols);
        let mut out = DMatrix::zeros(nrows, ncols);
        for i in 0..nrows {
            out.row_mut(i).copy_from_slice(&self.row(row0 + i)[col0..col0 + ncols]);
        }
        out
    }

    /// Matrix-vector product `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        crate::flops::add(2 * self.rows as u64 * self.cols as u64);
        (0..self.rows).map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum()).collect()
    }

    /// True if `|a_ij - a_ji| <= tol` for all entries (requires square).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes in place: `A <- (A + A^T) / 2`.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Entry-wise maximum absolute difference to another matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &DMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&DMatrix> for &DMatrix {
    type Output = DMatrix;
    fn add(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        DMatrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&DMatrix> for &DMatrix {
    type Output = DMatrix;
    fn sub(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        DMatrix::from_vec(self.rows, self.cols, data)
    }
}

impl AddAssign<&DMatrix> for DMatrix {
    fn add_assign(&mut self, rhs: &DMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&DMatrix> for DMatrix {
    fn sub_assign(&mut self, rhs: &DMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<&DMatrix> for &DMatrix {
    type Output = DMatrix;
    /// Convenience `A * B` using the blocked GEMM.
    fn mul(self, rhs: &DMatrix) -> DMatrix {
        crate::gemm::matmul(self, rhs)
    }
}

impl fmt::Debug for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DMatrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = DMatrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_bad_len_panics() {
        let _ = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = DMatrix::from_fn(3, 5, |i, j| (i + 2 * j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn block_set_add_extract() {
        let mut big = DMatrix::zeros(4, 4);
        let b = DMatrix::from_fn(2, 2, |i, j| 1.0 + (i * 2 + j) as f64);
        big.set_block(1, 2, &b);
        assert_eq!(big[(1, 2)], 1.0);
        assert_eq!(big[(2, 3)], 4.0);
        big.add_block(1, 2, &b);
        assert_eq!(big[(2, 3)], 8.0);
        let e = big.block(1, 2, 2, 2);
        assert_eq!(e, b.scaled(2.0));
    }

    #[test]
    #[should_panic(expected = "set_block")]
    fn set_block_out_of_bounds_panics() {
        let mut big = DMatrix::zeros(3, 3);
        let b = DMatrix::zeros(2, 2);
        big.set_block(2, 2, &b);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = DMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn symmetry_check_and_symmetrize() {
        let mut m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 4.0, 3.0]);
        assert!(!m.is_symmetric(1e-12));
        assert!(m.is_symmetric(3.0));
        m.symmetrize_mut();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn norms_and_scaling() {
        let mut m = DMatrix::from_vec(2, 2, vec![3.0, 0.0, 4.0, 0.0]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
        m.scale_mut(2.0);
        assert_eq!(m.frobenius_norm(), 10.0);
        m.fill_zero();
        assert_eq!(m.frobenius_norm(), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = DMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = DMatrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 1.0);
        assert_eq!(sum[(1, 1)], 3.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, sum);
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn diagonal_and_trace_rectangular() {
        let m = DMatrix::from_fn(2, 3, |i, j| if i == j { 5.0 } else { 0.0 });
        assert_eq!(m.diagonal(), vec![5.0, 5.0]);
        assert_eq!(m.trace(), 10.0);
    }

    #[test]
    fn max_abs_diff_detects_deviation() {
        let a = DMatrix::identity(3);
        let mut b = a.clone();
        b[(2, 0)] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn from_diagonal_builds_square() {
        let d = DMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert!(d.is_symmetric(0.0));
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
