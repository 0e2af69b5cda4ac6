//! Radix-2 complex FFT, 1-D and 3-D.
//!
//! The DFPT worker's third phase solves the Poisson equation for the
//! response electrostatic potential `v1_es(r)` from the response density
//! `n1(r)` on a real-space grid. In Fourier space the solve is a pointwise
//! division by `|k|^2`, so all the heavy lifting is the forward/inverse 3-D
//! FFT implemented here (grid dimensions are powers of two by construction
//! in `qfr-dfpt`).

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Minimal complex number type (no external num crates needed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Constructs `re + i*im`.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    pub const ZERO: Complex64 = Complex64::new(0.0, 0.0);

    /// `e^{i theta}`.
    pub fn cis(theta: f64) -> Self {
        Self { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

/// In-place forward FFT (`sum x_n e^{-2 pi i k n / N}`). Length must be a
/// power of two.
pub fn fft_in_place(x: &mut [Complex64]) {
    transform(x, &twiddles(x.len(), false), false);
}

/// In-place inverse FFT including the `1/N` normalization.
pub fn ifft_in_place(x: &mut [Complex64]) {
    transform(x, &twiddles(x.len(), true), true);
}

static FFT_TRANSFORMS: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.fft.transforms");

/// The twiddle table of a length-`n` transform: `cis(∓2πk/n)` for
/// `k < n/2` (`+` for the inverse). Stage `len` of the butterflies reads
/// every `n/len`-th entry, so one table serves every stage.
fn twiddles(n: usize, inverse: bool) -> Vec<Complex64> {
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n / 2)
        .map(|k| Complex64::cis(sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64))
        .collect()
}

/// Radix-2 transform of `x` with the twiddle table of its length (the sign
/// lives in the table), followed by the `1/N` scaling when `normalize`.
fn transform(x: &mut [Complex64], table: &[Complex64], normalize: bool) {
    transform_lanes(x, 1, table, normalize);
    book(1, x.len());
}

/// Books `lines` transforms of length `n` on the transform and FLOP
/// counters (a length-1 transform is a no-op and books nothing).
fn book(lines: usize, n: usize) {
    if n > 1 {
        FFT_TRANSFORMS.add(lines as u64);
        // ~5 N log2 N real FLOPs per radix-2 complex FFT.
        crate::flops::add(lines as u64 * 5 * n as u64 * n.trailing_zeros() as u64);
    }
}

/// Radix-2 transforms of `lanes` interleaved lines of one power-of-two
/// length `n = x.len() / lanes`: element `e` of lane `l` is
/// `x[e * lanes + l]`, so each butterfly runs across a contiguous run of
/// lanes. Every lane sees exactly the permutation, butterflies, twiddles
/// and `1/n` scaling of a single-line transform, so each lane's bits equal
/// those of transforming it alone. Books nothing: callers [`book`] the
/// lines once per batch.
fn transform_lanes(x: &mut [Complex64], lanes: usize, table: &[Complex64], normalize: bool) {
    let n = x.len() / lanes;
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
    if n <= 1 {
        return;
    }
    debug_assert_eq!(x.len(), n * lanes, "lanes must divide the data");
    debug_assert_eq!(table.len(), n / 2, "twiddle table length");

    // Bit-reversal permutation of whole lane rows.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            let (head, tail) = x.split_at_mut(j * lanes);
            head[i * lanes..(i + 1) * lanes].swap_with_slice(&mut tail[..lanes]);
        }
    }

    // Iterative Cooley-Tukey butterflies; stage `len` uses the twiddles
    // `cis(∓2πi/len) = table[i · n/len]`.
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for block in x.chunks_mut(len * lanes) {
            let (lo, hi) = block.split_at_mut(half * lanes);
            for (i, (us, vs)) in lo.chunks_mut(lanes).zip(hi.chunks_mut(lanes)).enumerate() {
                let w = table[i * step];
                for (u, v) in us.iter_mut().zip(vs.iter_mut()) {
                    let a = *u;
                    let b = *v * w;
                    *u = a + b;
                    *v = a - b;
                }
            }
        }
        len <<= 1;
    }
    if normalize {
        let scale = 1.0 / n as f64;
        for v in x.iter_mut() {
            *v = v.scale(scale);
        }
    }
}

/// 3-D grid of complex values in row-major `[nx][ny][nz]` order with
/// in-place forward/inverse FFT along every axis.
#[derive(Debug, Clone)]
pub struct Grid3 {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<Complex64>,
}

impl Grid3 {
    /// Zero-filled grid. Each dimension must be a power of two.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            nx.is_power_of_two() && ny.is_power_of_two() && nz.is_power_of_two(),
            "Grid3 dimensions must be powers of two ({nx},{ny},{nz})"
        );
        Self { nx, ny, nz, data: vec![Complex64::ZERO; nx * ny * nz] }
    }

    /// Builds from a real-valued field.
    pub fn from_real(nx: usize, ny: usize, nz: usize, real: &[f64]) -> Self {
        assert_eq!(real.len(), nx * ny * nz, "Grid3::from_real length mismatch");
        let mut g = Self::zeros(nx, ny, nz);
        for (c, &r) in g.data.iter_mut().zip(real) {
            c.re = r;
        }
        g
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Linear index of `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.ny + j) * self.nz + k
    }

    /// Immutable access to the raw data.
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable access to the raw data.
    pub fn data_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Extracts the real parts.
    pub fn to_real(&self) -> Vec<f64> {
        self.data.iter().map(|c| c.re).collect()
    }

    /// Largest absolute imaginary part — a diagnostic that a round-tripped
    /// real field stayed real.
    pub fn max_imag(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, c| m.max(c.im.abs()))
    }

    /// Forward 3-D FFT (in place).
    pub fn fft(&mut self) {
        self.transform_axes(false);
    }

    /// Inverse 3-D FFT (in place, normalized).
    pub fn ifft(&mut self) {
        self.transform_axes(true);
    }

    /// Transforms the z, y and x axes in that order, each in one batched
    /// pass over all of its lines. The x and y lines are already lanes of
    /// the row-major layout (`[x][y·z]` and, per x slab, `[y][z]`); the z
    /// lines are contiguous, so they go through a transposed copy in which
    /// they become lanes.
    fn transform_axes(&mut self, inverse: bool) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        // One twiddle table per axis for the whole 3-D transform.
        let (tx, ty, tz) = (twiddles(nx, inverse), twiddles(ny, inverse), twiddles(nz, inverse));
        // z axis: transpose `[x·y][z]` to `[z][x·y]`, transform, transpose back.
        let rows = nx * ny;
        book(rows, nz);
        if nz > 1 {
            let mut t = vec![Complex64::ZERO; self.data.len()];
            for (r, row) in self.data.chunks(nz).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    t[k * rows + r] = v;
                }
            }
            transform_lanes(&mut t, rows, &tz, inverse);
            for (r, row) in self.data.chunks_mut(nz).enumerate() {
                for (k, v) in row.iter_mut().enumerate() {
                    *v = t[k * rows + r];
                }
            }
        }
        // y axis: the nz lanes of each y row, one x slab at a time.
        book(nx * nz, ny);
        for slab in self.data.chunks_mut(ny * nz) {
            transform_lanes(slab, nz, &ty, inverse);
        }
        // x axis: the ny·nz lanes of each x plane.
        book(ny * nz, nx);
        transform_lanes(&mut self.data, ny * nz, &tx, inverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        let p = a * b;
        assert!(close(p.re, 5.0, 1e-15) && close(p.im, 5.0, 1e-15));
        assert_eq!(a.conj().im, -2.0);
        assert!(close(a.norm_sqr(), 5.0, 1e-15));
        assert_eq!((-a).re, -1.0);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        assert_eq!((a - b).re, -2.0);
    }

    #[test]
    fn cis_unit_circle() {
        let z = Complex64::cis(std::f64::consts::FRAC_PI_2);
        assert!(close(z.re, 0.0, 1e-15) && close(z.im, 1.0, 1e-15));
        assert!(close(z.abs(), 1.0, 1e-15));
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::new(1.0, 0.0);
        fft_in_place(&mut x);
        for v in &x {
            assert!(close(v.re, 1.0, 1e-12) && close(v.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut x = vec![Complex64::new(2.0, 0.0); 16];
        fft_in_place(&mut x);
        assert!(close(x[0].re, 32.0, 1e-12));
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn single_frequency_bin() {
        // x_n = e^{2 pi i * 3 n / N} -> spike at bin 3.
        let n = 32;
        let mut x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * std::f64::consts::PI * 3.0 * i as f64 / n as f64))
            .collect();
        fft_in_place(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == 3 {
                assert!(close(v.re, n as f64, 1e-9));
            } else {
                assert!(v.abs() < 1e-9, "leak at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let n = 64;
        let orig: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut x = orig.clone();
        fft_in_place(&mut x);
        ifft_in_place(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!(close(a.re, b.re, 1e-12) && close(a.im, b.im, 1e-12));
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 128;
        let x: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64 * 0.7).sin(), 0.0)).collect();
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut f = x;
        fft_in_place(&mut f);
        let freq_energy: f64 = f.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!(close(time_energy, freq_energy, 1e-9));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![Complex64::ZERO; 12];
        fft_in_place(&mut x);
    }

    #[test]
    fn grid3_round_trip() {
        let (nx, ny, nz) = (4, 8, 2);
        let real: Vec<f64> = (0..nx * ny * nz).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut g = Grid3::from_real(nx, ny, nz, &real);
        g.fft();
        g.ifft();
        for (a, b) in g.to_real().iter().zip(&real) {
            assert!(close(*a, *b, 1e-10));
        }
        assert!(g.max_imag() < 1e-10);
    }

    #[test]
    fn grid3_dc_component() {
        let (nx, ny, nz) = (4, 4, 4);
        let real = vec![1.5; nx * ny * nz];
        let mut g = Grid3::from_real(nx, ny, nz, &real);
        g.fft();
        // DC bin holds the field sum.
        assert!(close(g.data()[0].re, 1.5 * 64.0, 1e-10));
        let others: f64 = g.data()[1..].iter().map(|c| c.abs()).sum();
        assert!(others < 1e-9);
    }

    #[test]
    fn grid3_indexing() {
        let g = Grid3::zeros(2, 4, 8);
        assert_eq!(g.dims(), (2, 4, 8));
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(1, 0, 0), 32);
        assert_eq!(g.idx(0, 1, 0), 8);
        assert_eq!(g.idx(0, 0, 1), 1);
    }

    /// `sum x_j e^{∓2πi jk/n}` term by term, with `jk` reduced mod `n` so
    /// every twiddle is exact to one rounding.
    fn naive_dft(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        (0..n)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let angle = sign * 2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                    acc += v * Complex64::cis(angle);
                }
                if inverse {
                    acc.scale(1.0 / n as f64)
                } else {
                    acc
                }
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in (0..=6).map(|p| 1usize << p) {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.91).sin() + 0.3, (i as f64 * 0.47).cos()))
                .collect();
            for inverse in [false, true] {
                let mut fast = x.clone();
                if inverse {
                    ifft_in_place(&mut fast);
                } else {
                    fft_in_place(&mut fast);
                }
                let exact = naive_dft(&x, inverse);
                let peak = exact.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                let err = fast.iter().zip(&exact).fold(0.0_f64, |m, (a, b)| m.max((*a - *b).abs()));
                assert!(
                    err <= 1e-13 * peak,
                    "n = {n}, inverse = {inverse}: error {err:e} of {peak}"
                );
            }
        }
    }

    #[test]
    fn grid3_round_trip_to_rounding() {
        let (nx, ny, nz) = (16, 8, 32);
        let real: Vec<f64> = (0..nx * ny * nz).map(|i| (i as f64 * 0.613).sin()).collect();
        let mut g = Grid3::from_real(nx, ny, nz, &real);
        g.fft();
        g.ifft();
        let err = g.to_real().iter().zip(&real).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(err <= 1e-14, "round trip error {err:e}");
        assert!(g.max_imag() <= 1e-14);
    }

    /// The per-line 3-D transform the batched axes replaced: every z, y
    /// and x line gathered, transformed with `fft_in_place` /
    /// `ifft_in_place`, and scattered back.
    fn per_line(g: &Grid3, inverse: bool) -> Vec<Complex64> {
        let (nx, ny, nz) = g.dims();
        let mut data = g.data().to_vec();
        let line = |data: &mut [Complex64], idx: &dyn Fn(usize) -> usize, n: usize| {
            let mut buf: Vec<Complex64> = (0..n).map(|e| data[idx(e)]).collect();
            if inverse {
                ifft_in_place(&mut buf);
            } else {
                fft_in_place(&mut buf);
            }
            for (e, v) in buf.into_iter().enumerate() {
                data[idx(e)] = v;
            }
        };
        for i in 0..nx {
            for j in 0..ny {
                line(&mut data, &|k| (i * ny + j) * nz + k, nz);
            }
        }
        for i in 0..nx {
            for k in 0..nz {
                line(&mut data, &|j| (i * ny + j) * nz + k, ny);
            }
        }
        for j in 0..ny {
            for k in 0..nz {
                line(&mut data, &|i| (i * ny + j) * nz + k, nx);
            }
        }
        data
    }

    fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
        data.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn batched_axes_match_per_line_transforms_bit_for_bit() {
        for (nx, ny, nz) in [(16, 16, 16), (4, 8, 16), (1, 2, 8), (8, 1, 4)] {
            let mut g = Grid3::zeros(nx, ny, nz);
            for (i, c) in g.data_mut().iter_mut().enumerate() {
                *c = Complex64::new((i as f64 * 0.613).sin(), (i as f64 * 0.271).cos() - 0.4);
            }
            let mut forward = g.clone();
            forward.fft();
            assert_eq!(bits(forward.data()), bits(&per_line(&g, false)), "fft {nx}x{ny}x{nz}");
            let mut inverse = forward.clone();
            inverse.ifft();
            assert_eq!(
                bits(inverse.data()),
                bits(&per_line(&forward, true)),
                "ifft {nx}x{ny}x{nz}"
            );
        }
    }

    #[test]
    fn tiny_sizes() {
        let mut x = vec![Complex64::new(5.0, 0.0)];
        fft_in_place(&mut x);
        assert_eq!(x[0].re, 5.0);
        let mut x = vec![Complex64::new(1.0, 0.0), Complex64::new(-1.0, 0.0)];
        fft_in_place(&mut x);
        assert!(close(x[0].re, 0.0, 1e-15));
        assert!(close(x[1].re, 2.0, 1e-15));
    }
}
