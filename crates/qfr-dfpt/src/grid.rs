//! Real-space integration grid with FFT-Poisson support.
//!
//! A uniform Cartesian grid over the fragment's padded bounding box, with
//! power-of-two dimensions so the [`qfr_linalg::fft`] Poisson solver applies
//! directly. Grid points are traversed in z-fastest order matching
//! [`qfr_linalg::fft::Grid3`] layout. The grid also defines the *batching*
//! of points used by the GEMM-heavy DFPT phases: each batch of `batch_size`
//! points becomes one `X` panel (`npts x nbasis`), which is exactly the
//! granularity the elastic offloading scheme packs. `GridPanels` holds
//! those panels and builds the two job streams every grid phase runs on
//! them: the `X_b·M` products and the `X_bᵀ diag(w·dv) X_b` integrals.

use crate::basis::Basis;
use qfr_fragment::FragmentStructure;
use qfr_geom::Vec3;
use qfr_linalg::batch::{execute_jobs, BatchJob};
use qfr_linalg::fft::Grid3;
use qfr_linalg::DMatrix;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

static POISSON_SOLVES: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.poisson.solves");

/// A uniform real-space grid.
#[derive(Debug, Clone)]
pub struct RealSpaceGrid {
    /// Grid origin (corner).
    pub origin: Vec3,
    /// Spacing (Å), identical along each axis.
    pub spacing: f64,
    /// Dimensions (powers of two).
    pub dims: (usize, usize, usize),
    /// Flattened point coordinates (z fastest).
    pub points: Vec<Vec3>,
    /// Volume element (Å³).
    pub dv: f64,
}

impl RealSpaceGrid {
    /// Builds a grid covering the fragment's bounding box plus `padding` Å
    /// on every side at roughly `target_spacing`, with each dimension a
    /// power of two capped at `max_dim` (the spacing stretches if the cap
    /// binds).
    pub fn for_fragment(
        frag: &FragmentStructure,
        target_spacing: f64,
        padding: f64,
        max_dim: usize,
    ) -> Self {
        assert!(!frag.positions.is_empty(), "empty fragment");
        let mut lo = frag.positions[0];
        let mut hi = frag.positions[0];
        for p in &frag.positions {
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            lo.z = lo.z.min(p.z);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
            hi.z = hi.z.max(p.z);
        }
        let lo = lo - Vec3::new(padding, padding, padding);
        let hi = hi + Vec3::new(padding, padding, padding);
        let extent = [hi.x - lo.x, hi.y - lo.y, hi.z - lo.z];
        let dim_of = |len: f64| -> usize {
            let want = (len / target_spacing).ceil() as usize + 1;
            want.next_power_of_two().clamp(8, max_dim.max(8))
        };
        let dims = (dim_of(extent[0]), dim_of(extent[1]), dim_of(extent[2]));
        // A single isotropic spacing keeps the Poisson kernel simple: use
        // the largest required spacing across axes.
        let spacing = (extent[0] / dims.0 as f64)
            .max(extent[1] / dims.1 as f64)
            .max(extent[2] / dims.2 as f64)
            .max(1e-6);
        let mut points = Vec::with_capacity(dims.0 * dims.1 * dims.2);
        for i in 0..dims.0 {
            for j in 0..dims.1 {
                for k in 0..dims.2 {
                    points.push(lo + Vec3::new(i as f64, j as f64, k as f64) * spacing);
                }
            }
        }
        let dv = spacing * spacing * spacing;
        Self { origin: lo, spacing, dims, points, dv }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the grid has no points (never happens for valid fragments).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Splits point indices into batches of `batch_size` (the GEMM panel
    /// granularity of the DFPT phases).
    pub fn batches(&self, batch_size: usize) -> Vec<std::ops::Range<usize>> {
        assert!(batch_size > 0);
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.len() {
            let end = (start + batch_size).min(self.len());
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Solves the (periodic) Poisson equation `∇² v = -4π n` for the given
    /// density samples, returning the potential on the grid. The DC
    /// component is projected out (neutralizing background).
    pub fn solve_poisson(&self, density: &[f64]) -> Vec<f64> {
        let _span = qfr_obs::span("dfpt.poisson");
        POISSON_SOLVES.incr();
        assert_eq!(density.len(), self.len(), "density sample count mismatch");
        let (nx, ny, nz) = self.dims;
        let mut g = Grid3::from_real(nx, ny, nz, density);
        g.fft();
        self.apply_kernel(&mut g);
        g.ifft();
        g.to_real()
    }

    /// Multiplies a transformed density by `4π/k²` (zero at `k = 0`). The
    /// wavenumbers are tabulated once per axis; `k²` is formed from them
    /// in `x, y, z` order.
    fn apply_kernel(&self, g: &mut Grid3) {
        let (nx, ny, nz) = self.dims;
        let tau = 2.0 * std::f64::consts::PI;
        let wavenumbers = |n: usize| -> Vec<f64> {
            let l = n as f64 * self.spacing;
            (0..n)
                .map(|i| {
                    let f = if i <= n / 2 { i as f64 } else { i as f64 - n as f64 };
                    tau * f / l
                })
                .collect()
        };
        let (kx, ky, kz) = (wavenumbers(nx), wavenumbers(ny), wavenumbers(nz));
        let mut values = g.data_mut().iter_mut();
        for kx in &kx {
            for ky in &ky {
                for kz in &kz {
                    let v = values.next().expect("grid holds nx·ny·nz values");
                    let k2 = kx * kx + ky * ky + kz * kz;
                    *v = if k2 == 0.0 {
                        qfr_linalg::Complex64::ZERO
                    } else {
                        v.scale(4.0 * std::f64::consts::PI / k2)
                    };
                }
            }
        }
    }
}

/// A basis evaluated on a grid's point batches: the value panel `X_b`
/// (`points × basis`) of every batch and, when asked for, its three
/// gradient panels. Panels live behind `Arc`, so the job streams built here
/// reference one copy across every job, task and cycle.
#[derive(Debug)]
pub(crate) struct GridPanels {
    /// Point ranges of the batches, in grid order.
    pub(crate) batches: Vec<Range<usize>>,
    /// `X_b`, one per batch.
    pub(crate) values: Vec<Arc<DMatrix>>,
    /// `∂X_b/∂r_c` for `c = x, y, z`, one triple per batch; empty when the
    /// panels were built without gradients.
    pub(crate) gradients: Vec<[Arc<DMatrix>; 3]>,
    /// The grid's volume element, which weights every integral.
    pub(crate) dv: f64,
}

impl GridPanels {
    /// Evaluates `basis` on the batches of `batch_size` points of `grid`,
    /// with the gradient panels if `gradients` (from one exponential per
    /// value, [`Basis::evaluate_with_gradients`]).
    pub(crate) fn new(
        basis: &Basis,
        grid: &RealSpaceGrid,
        batch_size: usize,
        gradients: bool,
    ) -> Self {
        let batches = grid.batches(batch_size);
        let points = |b: &Range<usize>| &grid.points[b.clone()];
        let (values, gradients) = if gradients {
            batches
                .iter()
                .map(|b| {
                    let (x, g) = basis.evaluate_with_gradients(points(b));
                    (Arc::new(x), g.map(Arc::new))
                })
                .unzip()
        } else {
            (batches.iter().map(|b| Arc::new(basis.evaluate(points(b)))).collect(), Vec::new())
        };
        Self { batches, values, gradients, dv: grid.dv }
    }

    /// These panels of `previous` on `grid`, re-evaluated for `basis`: the
    /// columns of shells that moved are rewritten
    /// ([`Basis::refresh_moved_panels`]), so the copy equals a full
    /// evaluation bit for bit. Needs the gradient panels.
    pub(crate) fn moved(&self, previous: &Basis, basis: &Basis, grid: &RealSpaceGrid) -> Self {
        assert_eq!(self.gradients.len(), self.values.len(), "moved panels need gradients");
        let (values, gradients) = self
            .batches
            .iter()
            .zip(self.values.iter().zip(&self.gradients))
            .map(|(b, (x, g))| {
                let (mut x, mut g) = ((**x).clone(), g.each_ref().map(|g| (**g).clone()));
                basis.refresh_moved_panels(previous, &grid.points[b.clone()], &mut x, &mut g);
                (Arc::new(x), g.map(Arc::new))
            })
            .unzip();
        Self { batches: self.batches.clone(), values, gradients, dv: self.dv }
    }

    /// The `X_b·M` jobs, batch by batch; with `gradients`, each batch's
    /// value job is followed by its three `∂X_b/∂r_c · M` jobs.
    pub(crate) fn product_jobs<'a>(
        &'a self,
        m: &'a Arc<DMatrix>,
        gradients: bool,
    ) -> impl Iterator<Item = BatchJob> + 'a {
        self.values.iter().enumerate().flat_map(move |(bi, x)| {
            let grads = if gradients { &self.gradients[bi][..] } else { &[] };
            std::iter::once(x).chain(grads).map(|a| BatchJob::gemm(a.clone(), m.clone()))
        })
    }

    /// The grid density `max(0, Σ_μν X_rμ P_μν X_rν)` of the density matrix
    /// `p`, with the `X_b·P` products it was formed from.
    pub(crate) fn density(&self, p: &Arc<DMatrix>) -> (Vec<f64>, Vec<DMatrix>) {
        // Allocated before the products: in the other order a one-thread
        // `qfr spectrum --dfpt` run takes 5x the minor page faults, as
        // glibc trims and re-grows the heap once per displaced geometry.
        let mut density = Vec::with_capacity(self.batches.last().map_or(0, |b| b.end));
        let jobs: Vec<BatchJob> = self.product_jobs(p, false).collect();
        let xps = execute_jobs(&jobs, Default::default());
        for (x, xp) in self.values.iter().zip(&xps) {
            for row in 0..x.rows() {
                let nd: f64 = xp.row(row).iter().zip(x.row(row)).map(|(a, b)| a * b).sum();
                density.push(nd.max(0.0));
            }
        }
        (density, xps)
    }

    /// `X_b` with row `r` scaled by `w[r] · dv` (grid-point indices).
    pub(crate) fn weighted(&self, batch: usize, w: &[f64]) -> DMatrix {
        let mut xw = (*self.values[batch]).clone();
        for (row, gi) in self.batches[batch].clone().enumerate() {
            let scale = w[gi] * self.dv;
            for v in xw.row_mut(row) {
                *v *= scale;
            }
        }
        xw
    }

    /// `Σ_b X_bᵀ diag(w·dv) X_b` for every weight vector of `ws`: each
    /// task's weighted copies are built on the rayon facade, all jobs run
    /// as one stream, and each task's outputs are summed in batch order.
    pub(crate) fn potentials(&self, ws: &[Vec<f64>]) -> Vec<DMatrix> {
        let jobs: Vec<BatchJob> = ws
            .par_iter()
            .flat_map_iter(|w| {
                self.values.iter().enumerate().map(move |(bi, x)| {
                    qfr_linalg::flops::add((x.rows() * x.cols()) as u64);
                    BatchJob::symmetric_product(self.weighted(bi, w), x.clone())
                })
            })
            .collect();
        let outs = execute_jobs(&jobs, Default::default());
        let (n, per_task) = (self.values[0].cols(), self.values.len());
        (0..ws.len())
            .into_par_iter()
            .map(|t| {
                let mut m = DMatrix::zeros(n, n);
                for out in &outs[t * per_task..(t + 1) * per_task] {
                    m += out;
                }
                m
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::{FragmentJob, JobKind};
    use qfr_geom::WaterBoxBuilder;

    fn water_fragment() -> FragmentStructure {
        let sys = WaterBoxBuilder::new(1).seed(1).build();
        FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![0, 1, 2],
            link_hydrogens: vec![],
        }
        .structure(&sys)
    }

    #[test]
    fn grid_covers_fragment() {
        let frag = water_fragment();
        let g = RealSpaceGrid::for_fragment(&frag, 0.4, 3.0, 32);
        assert!(g.dims.0.is_power_of_two());
        for p in &frag.positions {
            assert!(p.x >= g.origin.x && p.y >= g.origin.y && p.z >= g.origin.z);
            let far = g.origin
                + Vec3::new(
                    g.dims.0 as f64 * g.spacing,
                    g.dims.1 as f64 * g.spacing,
                    g.dims.2 as f64 * g.spacing,
                );
            assert!(p.x <= far.x && p.y <= far.y && p.z <= far.z);
        }
        assert_eq!(g.len(), g.dims.0 * g.dims.1 * g.dims.2);
        assert!((g.dv - g.spacing.powi(3)).abs() < 1e-15);
    }

    #[test]
    fn max_dim_caps_grid() {
        let frag = water_fragment();
        let g = RealSpaceGrid::for_fragment(&frag, 0.05, 6.0, 16);
        assert!(g.dims.0 <= 16 && g.dims.1 <= 16 && g.dims.2 <= 16);
        // Spacing stretched to still cover the box.
        assert!(g.spacing > 0.05);
    }

    #[test]
    fn batches_partition_points() {
        let frag = water_fragment();
        let g = RealSpaceGrid::for_fragment(&frag, 0.5, 2.0, 16);
        let batches = g.batches(100);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, g.len());
        for w in batches.windows(2) {
            assert_eq!(w[0].end, w[1].start, "batches must be contiguous");
        }
        assert!(batches[0].len() <= 100);
    }

    #[test]
    fn panel_streams_match_per_batch_products_bit_for_bit() {
        // The gathered streams against the per-batch products they stand
        // for: the clamped row dots of X_b·P (P has negative entries, so
        // the clamp acts), and per weight vector the batch-order sum of
        // X_bᵀ diag(w·dv) X_b, two weight vectors sharing one stream.
        let frag = water_fragment();
        let grid = RealSpaceGrid::for_fragment(&frag, 0.5, 2.0, 16);
        let basis = Basis::for_fragment(&frag);
        let n = basis.len();
        let panels = GridPanels::new(&basis, &grid, 100, false);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let direct: Vec<(Range<usize>, DMatrix)> = grid
            .batches(100)
            .into_iter()
            .map(|b| (b.clone(), basis.evaluate(&grid.points[b])))
            .collect();

        let p = Arc::new(DMatrix::from_fn(n, n, |i, j| ((3 * i + j) as f64).sin()));
        let (density, _) = panels.density(&p);
        let mut expected = Vec::new();
        for (_, x) in &direct {
            let xp = qfr_linalg::gemm::matmul(x, &p);
            for row in 0..x.rows() {
                let nd: f64 = (0..n).map(|k| xp[(row, k)] * x[(row, k)]).sum();
                expected.push(nd.max(0.0));
            }
        }
        assert_eq!(bits(&density), bits(&expected));
        assert!(density.contains(&0.0) && density.iter().any(|&d| d > 0.0));

        let ws: Vec<Vec<f64>> = (1..3)
            .map(|t| (0..grid.len()).map(|i| ((i * t) as f64 * 0.1).cos()).collect())
            .collect();
        for (w, got) in ws.iter().zip(panels.potentials(&ws)) {
            let mut want = DMatrix::zeros(n, n);
            for (b, x) in &direct {
                let mut xw = x.clone();
                for (row, gi) in b.clone().enumerate() {
                    for v in xw.row_mut(row) {
                        *v *= w[gi] * grid.dv;
                    }
                }
                let mut out = DMatrix::zeros(n, n);
                qfr_linalg::syrk::symmetric_product(1.0, &xw, x, 0.0, &mut out);
                want += &out;
            }
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
        }
    }

    #[test]
    fn poisson_plane_wave_eigenfunction() {
        // n(r) = cos(2π x / Lx) is an eigenfunction: v = 4π/(k²) n.
        let frag = water_fragment();
        let g = RealSpaceGrid::for_fragment(&frag, 0.5, 3.0, 16);
        let lx = g.dims.0 as f64 * g.spacing;
        let k = 2.0 * std::f64::consts::PI / lx;
        let density: Vec<f64> = g.points.iter().map(|p| (k * (p.x - g.origin.x)).cos()).collect();
        let v = g.solve_poisson(&density);
        let expect = 4.0 * std::f64::consts::PI / (k * k);
        for (vi, ni) in v.iter().zip(&density) {
            assert!(
                (vi - expect * ni).abs() < 1e-8 * expect,
                "poisson eigenfunction violated: {vi} vs {}",
                expect * ni
            );
        }
    }

    #[test]
    fn tabulated_kernel_keeps_the_pointwise_bits() {
        // The point-by-point 4π/k² loop the tabulated kernel replaced.
        fn pointwise_kernel(grid: &RealSpaceGrid, g: &mut Grid3) {
            let (nx, ny, nz) = grid.dims;
            let lx = nx as f64 * grid.spacing;
            let ly = ny as f64 * grid.spacing;
            let lz = nz as f64 * grid.spacing;
            let tau = 2.0 * std::f64::consts::PI;
            for i in 0..nx {
                for j in 0..ny {
                    for k in 0..nz {
                        let fi = if i <= nx / 2 { i as f64 } else { i as f64 - nx as f64 };
                        let fj = if j <= ny / 2 { j as f64 } else { j as f64 - ny as f64 };
                        let fk = if k <= nz / 2 { k as f64 } else { k as f64 - nz as f64 };
                        let kx = tau * fi / lx;
                        let ky = tau * fj / ly;
                        let kz = tau * fk / lz;
                        let k2 = kx * kx + ky * ky + kz * kz;
                        let idx = g.idx(i, j, k);
                        if k2 == 0.0 {
                            g.data_mut()[idx] = qfr_linalg::Complex64::ZERO;
                        } else {
                            let scale = 4.0 * std::f64::consts::PI / k2;
                            g.data_mut()[idx] = g.data_mut()[idx].scale(scale);
                        }
                    }
                }
            }
        }
        let frag = water_fragment();
        for grid in [
            RealSpaceGrid::for_fragment(&frag, 0.5, 3.0, 16),
            RealSpaceGrid::for_fragment(&frag, 0.45, 2.0, 32),
        ] {
            let (nx, ny, nz) = grid.dims;
            let density: Vec<f64> =
                grid.points.iter().map(|p| (-(p.x * p.x + 0.7 * p.y * p.y + p.z)).exp()).collect();
            let mut transformed = Grid3::from_real(nx, ny, nz, &density);
            transformed.fft();
            let mut tabulated = transformed.clone();
            grid.apply_kernel(&mut tabulated);
            pointwise_kernel(&grid, &mut transformed);
            assert_eq!(tabulated.data(), transformed.data(), "dims {:?}", grid.dims);
        }
    }

    #[test]
    fn poisson_removes_dc() {
        let frag = water_fragment();
        let g = RealSpaceGrid::for_fragment(&frag, 0.6, 2.0, 8);
        let density = vec![3.0; g.len()];
        let v = g.solve_poisson(&density);
        // Constant density has only a DC component -> zero potential.
        assert!(v.iter().all(|x| x.abs() < 1e-10));
    }

    #[test]
    fn poisson_output_mean_zero() {
        let frag = water_fragment();
        let g = RealSpaceGrid::for_fragment(&frag, 0.5, 2.0, 8);
        let density: Vec<f64> = (0..g.len()).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let v = g.solve_poisson(&density);
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 1e-9, "mean {mean}");
    }
}
