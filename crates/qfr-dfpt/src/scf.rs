//! Self-consistent field ground state of the model Hamiltonian.
//!
//! `F[P] = T + V_ext + V_H[n] + V_x[n]` with the Hartree potential from the
//! FFT Poisson solver and LDA exchange, solved by Löwdin orthogonalization
//! (Cholesky of `S`) and damped fixed-point iteration on the density
//! matrix. Everything is deterministic: fixed grid, fixed iteration cap,
//! fixed mixing.

use crate::basis::Basis;
use crate::dispatch::dispatch_jobs;
use crate::grid::RealSpaceGrid;
use qfr_fragment::FragmentStructure;
use qfr_linalg::batch::{BatchJob, OffloadMode};
use qfr_linalg::cholesky::Cholesky;
use qfr_linalg::eigen::symmetric_eigen;
use qfr_linalg::gemm;
use qfr_linalg::DMatrix;

static SCF_SOLVES: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.scf.solves");
static SCF_ITERATIONS: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.scf.iterations");

/// LDA exchange constant `(3/π)^{1/3}`.
pub const CX: f64 = 0.984745;

/// SCF configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScfConfig {
    /// Target grid spacing (Å).
    pub grid_spacing: f64,
    /// Grid padding around the fragment (Å).
    pub grid_padding: f64,
    /// Cap on each grid dimension (power of two).
    pub max_grid_dim: usize,
    /// Grid points per GEMM panel.
    pub batch_size: usize,
    /// Maximum SCF iterations.
    pub max_iterations: usize,
    /// Fraction of the new density mixed in per iteration.
    pub mixing: f64,
    /// Convergence threshold on `max|ΔP|`.
    pub convergence: f64,
    /// How the gathered density/Fock job streams are executed.
    pub offload: OffloadMode,
    /// Element width the batch kernels run at — `F64` (default) or the
    /// opt-in `MixedF32` floor (DESIGN.md §10).
    pub precision: qfr_linalg::GemmPrecision,
}

impl Default for ScfConfig {
    fn default() -> Self {
        Self {
            grid_spacing: 0.35,
            grid_padding: 3.0,
            max_grid_dim: 32,
            batch_size: 512,
            max_iterations: 60,
            mixing: 0.35,
            convergence: 1e-8,
            offload: OffloadMode::default(),
            precision: qfr_linalg::GemmPrecision::default(),
        }
    }
}

/// Converged SCF state.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// The fragment basis.
    pub basis: Basis,
    /// The integration grid.
    pub grid: RealSpaceGrid,
    /// Overlap matrix.
    pub s: DMatrix,
    /// Inverse Cholesky factor `L⁻¹` of `S` (Löwdin transform).
    pub l_inv: DMatrix,
    /// Core Hamiltonian `T + V_ext`.
    pub h_core: DMatrix,
    /// Final Kohn–Sham matrix.
    pub fock: DMatrix,
    /// MO coefficients (columns).
    pub c: DMatrix,
    /// Orbital energies (ascending).
    pub eps: Vec<f64>,
    /// Occupations (2, possibly one fractional, then 0).
    pub occ: Vec<f64>,
    /// Density matrix with occupations folded in.
    pub p: DMatrix,
    /// Ground-state density on the grid.
    pub density: Vec<f64>,
    /// Total energy (model units).
    pub energy: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether `max|ΔP|` dropped below the threshold.
    pub converged: bool,
}

/// The SCF driver.
#[derive(Debug, Clone, Default)]
pub struct ScfSolver {
    /// Configuration.
    pub config: ScfConfig,
}

impl ScfSolver {
    /// Solver with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the SCF for a fragment.
    pub fn solve(&self, frag: &FragmentStructure) -> ScfResult {
        let _span = qfr_obs::span("dfpt.scf");
        SCF_SOLVES.incr();
        let cfg = &self.config;
        let basis = Basis::for_fragment(frag);
        let grid =
            RealSpaceGrid::for_fragment(frag, cfg.grid_spacing, cfg.grid_padding, cfg.max_grid_dim);
        let n = basis.len();

        let s = basis.overlap();
        let chol = Cholesky::new(&s).expect("overlap must be positive definite");
        let l_inv = chol.l_inverse();
        let t = basis.kinetic();
        let v_ext = basis.external_potential();
        let h_core = &t + &v_ext;

        // Pre-evaluate basis panels per batch (reused every iteration).
        // Panels and the density matrix live behind `Arc` so the gathered
        // job streams below *reference* them instead of cloning one copy
        // per batch job.
        let batches = grid.batches(cfg.batch_size);
        let x_panels: Vec<std::sync::Arc<DMatrix>> = batches
            .iter()
            .map(|b| std::sync::Arc::new(basis.evaluate(&grid.points[b.clone()])))
            .collect();

        let mut p = std::sync::Arc::new(initial_density_matrix(&h_core, &l_inv, &basis));
        let mut fock = h_core.clone();
        let mut c = DMatrix::zeros(n, n);
        let mut eps = vec![0.0; n];
        let mut occ = vec![0.0; n];
        let mut density = vec![0.0; grid.len()];
        let mut energy = 0.0;
        let mut iterations = 0;
        let mut converged = false;

        for it in 0..cfg.max_iterations {
            iterations = it + 1;
            // Density on the grid: n_i = x_i^T P x_i per batch. The X·P
            // products are gathered into one job stream and dispatched
            // through the shared accelerator.
            density.clear();
            let density_jobs: Vec<BatchJob> =
                x_panels.iter().map(|x| BatchJob::gemm(x.clone(), p.clone())).collect(); // Arc clones
            let xps = dispatch_jobs(&density_jobs, cfg.offload, cfg.precision);
            for ((b, x), xp) in batches.iter().zip(&x_panels).zip(&xps) {
                qfr_linalg::flops::add((2 * x.rows() * n) as u64);
                for row in 0..x.rows() {
                    let v: f64 = xp.row(row).iter().zip(x.row(row)).map(|(a, b)| a * b).sum();
                    density.push(v.max(0.0));
                }
                debug_assert_eq!(density.len(), b.end);
            }
            // Effective potential on the grid.
            let v_h = grid.solve_poisson(&density);
            let v_eff: Vec<f64> =
                density.iter().zip(&v_h).map(|(&nd, &vh)| vh - CX * nd.powf(1.0 / 3.0)).collect();
            // V_eff matrix: sum over batches of X^T diag(v dv) X. Each
            // batch is a symmetric-product job (half the GEMM work);
            // results are accumulated in batch order, which is bitwise
            // equal to the former in-place β=1 accumulation because IEEE
            // addition is commutative.
            let fock_jobs: Vec<BatchJob> = batches
                .iter()
                .zip(&x_panels)
                .map(|(b, x)| {
                    // The weighted copy is per-job by necessity; the plain
                    // X operand is shared.
                    let mut xw = (**x).clone();
                    qfr_linalg::flops::add((x.rows() * n) as u64);
                    for (row, gi) in b.clone().enumerate() {
                        let w = v_eff[gi] * grid.dv;
                        for v in xw.row_mut(row) {
                            *v *= w;
                        }
                    }
                    BatchJob::symmetric_product(xw, x.clone())
                })
                .collect();
            let mut v_mat = DMatrix::zeros(n, n);
            for out in dispatch_jobs(&fock_jobs, cfg.offload, cfg.precision) {
                v_mat += &out;
            }
            fock = &h_core + &v_mat;

            // Löwdin-orthogonalized eigenproblem.
            let f_prime = sandwich_linv(&l_inv, &fock);
            let eig = symmetric_eigen(&f_prime);
            eps = eig.eigenvalues.clone();
            c = gemm::matmul(&l_inv.transpose(), &eig.eigenvectors);
            occ = fill_occupations(basis.n_electrons, n);

            // New density matrix.
            let p_new = density_matrix(&c, &occ);
            let delta = p.max_abs_diff(&p_new);
            // Damped update.
            let mut p_next = p.scaled(1.0 - cfg.mixing);
            let scaled_new = p_new.scaled(cfg.mixing);
            p_next += &scaled_new;
            p = std::sync::Arc::new(p_next);

            // Energy: tr(P H_core) + 0.5 ∫ n v_H + E_x.
            let e_core = trace_product(&p, &h_core);
            let e_h: f64 =
                0.5 * density.iter().zip(&v_h).map(|(&nd, &vh)| nd * vh).sum::<f64>() * grid.dv;
            let e_x: f64 =
                -0.75 * CX * density.iter().map(|&nd| nd.powf(4.0 / 3.0)).sum::<f64>() * grid.dv;
            energy = e_core + e_h + e_x + basis.nuclear_repulsion();

            if delta < cfg.convergence {
                converged = true;
                break;
            }
        }
        SCF_ITERATIONS.add(iterations as u64);

        ScfResult {
            basis,
            grid,
            s,
            l_inv,
            h_core,
            fock,
            c,
            eps,
            occ,
            // The last iteration's jobs are gone, so the Arc is unique and
            // this unwraps without copying.
            p: std::sync::Arc::try_unwrap(p).unwrap_or_else(|shared| (*shared).clone()),
            density,
            energy,
            iterations,
            converged,
        }
    }
}

/// `L⁻¹ M L⁻ᵀ` for symmetric `M`, via the triangle-only similarity kernel
/// (neither transpose is materialized; result exactly symmetric by mirror).
pub(crate) fn sandwich_linv(l_inv: &DMatrix, m: &DMatrix) -> DMatrix {
    qfr_linalg::syrk::similarity_transform(l_inv, m, qfr_linalg::GemmPrecision::F64)
}

/// Aufbau occupations: 2 electrons per orbital, one possibly fractional.
pub(crate) fn fill_occupations(n_electrons: f64, n_orbitals: usize) -> Vec<f64> {
    let mut occ = vec![0.0; n_orbitals];
    let mut remaining = n_electrons;
    for o in occ.iter_mut() {
        if remaining <= 0.0 {
            break;
        }
        *o = remaining.min(2.0);
        remaining -= *o;
    }
    assert!(remaining <= 1e-9, "basis too small for the electron count");
    occ
}

/// `P = C diag(occ) Cᵀ`.
pub(crate) fn density_matrix(c: &DMatrix, occ: &[f64]) -> DMatrix {
    let n = c.rows();
    let mut c_occ = c.clone();
    for j in 0..n {
        let f = occ[j].sqrt();
        for i in 0..n {
            c_occ[(i, j)] *= f;
        }
    }
    let mut p = DMatrix::zeros(n, n);
    qfr_linalg::syrk::syrk(gemm::Trans::No, 1.0, &c_occ, 0.0, &mut p);
    p
}

/// `tr(A B)` for symmetric-compatible shapes (public alias for tests and
/// downstream observables).
pub fn trace_product_public(a: &DMatrix, b: &DMatrix) -> f64 {
    trace_product(a, b)
}

/// `tr(A B)` for symmetric-compatible shapes.
pub(crate) fn trace_product(a: &DMatrix, b: &DMatrix) -> f64 {
    assert_eq!(a.cols(), b.rows());
    let mut tr = 0.0;
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            tr += a[(i, k)] * b[(k, i)];
        }
    }
    tr
}

fn initial_density_matrix(h_core: &DMatrix, l_inv: &DMatrix, basis: &Basis) -> DMatrix {
    let f_prime = sandwich_linv(l_inv, h_core);
    let eig = symmetric_eigen(&f_prime);
    let c = gemm::matmul(&l_inv.transpose(), &eig.eigenvectors);
    let occ = fill_occupations(basis.n_electrons, basis.len());
    density_matrix(&c, &occ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::{FragmentJob, JobKind};
    use qfr_geom::WaterBoxBuilder;

    fn fast() -> ScfSolver {
        ScfSolver {
            config: ScfConfig { max_grid_dim: 16, grid_spacing: 0.5, ..Default::default() },
        }
    }

    pub(crate) fn water_fragment() -> FragmentStructure {
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
    fn water_scf_converges() {
        let res = ScfSolver::new().solve(&water_fragment());
        assert!(res.converged, "SCF did not converge in {} iterations", res.iterations);
        assert!(res.energy < 0.0, "bound system must have negative energy: {}", res.energy);
        // 8 valence electrons: 4 doubly occupied orbitals, 3 virtuals.
        assert_eq!(res.occ, vec![2.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn density_integrates_to_electron_count() {
        let res = ScfSolver::new().solve(&water_fragment());
        let total: f64 = res.density.iter().sum::<f64>() * res.grid.dv;
        assert!(
            (total - res.basis.n_electrons).abs() < 0.15 * res.basis.n_electrons,
            "density integrates to {total}, expected {}",
            res.basis.n_electrons
        );
    }

    #[test]
    fn density_matrix_consistent_with_overlap() {
        // tr(P S) = number of electrons (exactly, independent of the grid).
        let res = fast().solve(&water_fragment());
        let tr = trace_product(&res.p, &res.s);
        assert!((tr - res.basis.n_electrons).abs() < 1e-6, "tr(PS) = {tr}");
    }

    #[test]
    fn orbitals_s_orthonormal() {
        let res = fast().solve(&water_fragment());
        // C^T S C = I.
        let sc = gemm::matmul(&res.s, &res.c);
        let csc = gemm::matmul(&res.c.transpose(), &sc);
        assert!(csc.max_abs_diff(&DMatrix::identity(res.basis.len())) < 1e-8);
    }

    #[test]
    fn occupied_below_virtual() {
        let res = fast().solve(&water_fragment());
        for w in res.eps.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn energy_is_translation_invariant() {
        let frag = water_fragment();
        let mut moved = frag.clone();
        for p in &mut moved.positions {
            *p += qfr_geom::Vec3::new(0.13, -0.21, 0.08);
        }
        let e1 = ScfSolver::new().solve(&frag).energy;
        let e2 = ScfSolver::new().solve(&moved).energy;
        // Grid alignment introduces a small egg-box error; it must stay tiny.
        assert!((e1 - e2).abs() < 5e-3 * e1.abs(), "egg-box error too large: {e1} vs {e2}");
    }

    #[test]
    fn occupations_fractional_for_odd_count() {
        let occ = fill_occupations(7.0, 5);
        assert_eq!(occ, vec![2.0, 2.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "basis too small")]
    fn too_many_electrons_rejected() {
        let _ = fill_occupations(9.0, 4);
    }

    #[test]
    fn scf_is_deterministic() {
        let frag = water_fragment();
        let a = fast().solve(&frag);
        let b = fast().solve(&frag);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.p.max_abs_diff(&b.p), 0.0);
    }
}
