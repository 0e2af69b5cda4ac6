//! Level-1 BLAS-style vector operations on `&[f64]` slices.
//!
//! These are the primitives the Lanczos solver and SCF loops are built on.
//! All of them account their double-precision FLOPs through [`crate::flops`].

/// Dot product `x . y`.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    crate::flops::add(2 * x.len() as u64);
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `||x||_2`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y <- a * x + y`.
///
/// # Panics
/// Panics if lengths differ.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    crate::flops::add(2 * x.len() as u64);
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x <- s * x`.
pub fn scale(s: f64, x: &mut [f64]) {
    crate::flops::add(x.len() as u64);
    for xi in x.iter_mut() {
        *xi *= s;
    }
}

/// Normalizes `x` to unit 2-norm, returning the original norm.
/// Leaves `x` untouched (and returns 0) if its norm is exactly zero.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Column dot products of two row-major `n x p` panels (entry `(i, c)` at
/// `i * p + c`, `p = out.len() > 0`): `out[c] = Σ_i x[i, c] * y[i, c]`,
/// each summed from 0.0 in ascending `i` whatever `p` is, so a column's
/// value does not depend on the panel around it. Like the two kernels
/// below, panics on panels that are not `n x p`.
pub fn panel_dot(x: &[f64], y: &[f64], out: &mut [f64]) {
    let p = out.len();
    assert!(x.len() == y.len() && x.len() % p == 0, "panel_dot: panel shape mismatch");
    crate::flops::add(2 * x.len() as u64);
    out.fill(0.0);
    for (xr, yr) in x.chunks_exact(p).zip(y.chunks_exact(p)) {
        for ((o, a), b) in out.iter_mut().zip(xr).zip(yr) {
            *o += a * b;
        }
    }
}

/// Column-wise `y[:, c] <- a[c] * x[:, c] + y[:, c]` on `n x p` panels,
/// `p = a.len() > 0`.
pub fn panel_axpy(a: &[f64], x: &[f64], y: &mut [f64]) {
    let p = a.len();
    assert!(x.len() == y.len() && x.len() % p == 0, "panel_axpy: panel shape mismatch");
    crate::flops::add(2 * x.len() as u64);
    for (xr, yr) in x.chunks_exact(p).zip(y.chunks_exact_mut(p)) {
        for ((yi, xi), ac) in yr.iter_mut().zip(xr).zip(a) {
            *yi += ac * xi;
        }
    }
}

/// Column-wise `x[:, c] <- s[c] * x[:, c]` on an `n x p` panel,
/// `p = s.len() > 0`.
pub fn panel_scale(s: &[f64], x: &mut [f64]) {
    assert_eq!(x.len() % s.len(), 0, "panel_scale: panel shape mismatch");
    crate::flops::add(x.len() as u64);
    for xr in x.chunks_exact_mut(s.len()) {
        for (xi, sc) in xr.iter_mut().zip(s) {
            *xi *= sc;
        }
    }
}

/// Entry-wise `z = x - y` into a fresh vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    crate::flops::add(x.len() as u64);
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Maximum absolute entry, 0 for an empty slice.
pub fn max_abs(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// Maximum absolute difference between two equal-length slices.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter().zip(y).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_small() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_parallel_path_matches_serial() {
        // Long vectors sum in one ascending pass, bit for bit.
        let n = (1 << 15) + 17;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 / 3.0 - 1.1).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64 / 7.0 - 0.3).collect();
        let mut serial = 0.0;
        for i in 0..n {
            serial += x[i] * y[i];
        }
        assert_eq!(dot(&x, &y), serial);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm_and_normalize() {
        let mut v = vec![3.0, 4.0];
        assert_eq!(norm2(&v), 5.0);
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((norm2(&v) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0; 4];
        assert_eq!(normalize(&mut v), 0.0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn axpy_accumulates() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, vec![10.5, 21.0]);
    }

    #[test]
    fn axpy_parallel_path() {
        let n = (1 << 15) + 3;
        let x: Vec<f64> = (0..n).map(|i| (i % 11) as f64 / 3.0).collect();
        let mut y: Vec<f64> = (0..n).map(|i| (i % 13) as f64 / 7.0).collect();
        let mut serial = y.clone();
        for i in 0..n {
            serial[i] += -0.7 * x[i];
        }
        axpy(-0.7, &x, &mut y);
        assert_eq!(y, serial);
    }

    #[test]
    fn panel_kernels_match_the_vector_kernels_per_column() {
        let (n, p) = (37, 3);
        let x: Vec<f64> = (0..n * p).map(|t| ((t * 13) % 11) as f64 / 3.0 - 1.5).collect();
        let y: Vec<f64> = (0..n * p).map(|t| ((t * 7) % 19) as f64 / 9.0 - 1.0).collect();
        let column = |v: &[f64], c: usize| -> Vec<f64> { (0..n).map(|i| v[i * p + c]).collect() };
        let coef = [0.7, -1.3, 0.0];

        let mut dots = [f64::NAN; 3];
        panel_dot(&x, &y, &mut dots);
        let mut axpyd = y.clone();
        panel_axpy(&coef, &x, &mut axpyd);
        let mut scaled = x.clone();
        panel_scale(&coef, &mut scaled);
        for c in 0..p {
            let (xc, mut yc) = (column(&x, c), column(&y, c));
            assert_eq!(dots[c], dot(&xc, &yc));
            axpy(coef[c], &xc, &mut yc);
            assert_eq!(column(&axpyd, c), yc);
            let mut sc = xc;
            scale(coef[c], &mut sc);
            assert_eq!(column(&scaled, c), sc);
        }
    }

    #[test]
    #[should_panic(expected = "panel shape mismatch")]
    fn ragged_panel_panics() {
        panel_dot(&[1.0; 7], &[1.0; 7], &mut [0.0; 2]);
    }

    #[test]
    fn scale_and_maxabs() {
        let mut v = vec![-2.0, 1.0, 0.5];
        scale(2.0, &mut v);
        assert_eq!(v, vec![-4.0, 2.0, 1.0]);
        assert_eq!(max_abs(&v), 4.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn sub_and_diff() {
        assert_eq!(sub(&[3.0, 2.0], &[1.0, 5.0]), vec![2.0, -3.0]);
        assert_eq!(max_abs_diff(&[3.0, 2.0], &[1.0, 5.0]), 3.0);
    }
}
