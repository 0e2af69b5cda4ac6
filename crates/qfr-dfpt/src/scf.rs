//! Self-consistent field ground state of the model Hamiltonian.
//!
//! `F[P] = T + V_ext + V_H[n] + V_x[n]` with the Hartree potential from the
//! FFT Poisson solver and LDA exchange, solved by Löwdin orthogonalization
//! (Cholesky of `S`) and Pulay/DIIS extrapolation of the Fock matrix over
//! the last `DIIS_DEPTH` iterations; the density of the extrapolated Fock
//! is taken undamped. [`ScfSolver::solve`] starts from the core-Hamiltonian
//! guess, [`ScfSolver::solve_from`] from a given density matrix — the
//! finite-difference engine warm-starts every displaced geometry from its
//! reference. Everything is deterministic: fixed grid, fixed iteration cap,
//! fixed extrapolation depth. The basis is evaluated on the grid batches
//! once per solve (`grid::GridPanels`); every iteration's density is its
//! `X_b·P` stream and its Fock matrix its `X_bᵀ diag(v_eff·dv) X_b`
//! stream, each one launch of the batched executor.

use crate::basis::Basis;
use crate::grid::{GridPanels, RealSpaceGrid};
use qfr_fragment::FragmentStructure;
use qfr_linalg::cholesky::Cholesky;
use qfr_linalg::eigen::symmetric_eigen;
use qfr_linalg::gemm;
use qfr_linalg::lu::Lu;
use qfr_linalg::DMatrix;
use std::collections::VecDeque;
use std::sync::Arc;

static SCF_SOLVES: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.scf.solves");
static SCF_ITERATIONS: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.scf.iterations");
/// Solves that hit `max_iterations` without converging (their result is
/// still returned and used).
static SCF_UNCONVERGED: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.scf.unconverged");

/// LDA exchange constant `(3/π)^{1/3}`.
pub const CX: f64 = 0.984745;

/// The LDA exchange potential `v_x = −C_X n^{1/3}` at density `n`.
pub(crate) fn exchange_potential(n: f64) -> f64 {
    -CX * n.powf(1.0 / 3.0)
}

/// The effective potential `v_H + v_x[n]` per grid point.
pub(crate) fn effective_potential(v_h: &[f64], density: &[f64]) -> Vec<f64> {
    v_h.iter().zip(density).map(|(&vh, &nd)| vh + exchange_potential(nd)).collect()
}

/// Fock/error pairs the Pulay extrapolation spans.
const DIIS_DEPTH: usize = 8;

/// Convergence also requires `max|F P S − S P F|` below this multiple of
/// `ScfConfig::convergence`.
const COMMUTATOR_FACTOR: f64 = 10.0;

/// Grid padding around the fragment (Å).
const GRID_PADDING: f64 = 3.0;

/// SCF configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScfConfig {
    /// Target grid spacing (Å).
    pub grid_spacing: f64,
    /// Cap on each grid dimension (power of two).
    pub max_grid_dim: usize,
    /// Grid points per GEMM panel.
    pub batch_size: usize,
    /// Maximum SCF iterations.
    pub max_iterations: usize,
    /// Convergence threshold on `max|ΔP|`; the commutator error
    /// `max|F P S − S P F|` must also fall below a fixed multiple of it.
    pub convergence: f64,
}

impl Default for ScfConfig {
    fn default() -> Self {
        Self {
            grid_spacing: 0.35,
            max_grid_dim: 32,
            batch_size: 512,
            max_iterations: 60,
            convergence: 1e-8,
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
    /// Final (extrapolated) Kohn–Sham matrix — the one `c` and `eps`
    /// diagonalize.
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
    /// Whether `max|ΔP|` and the commutator error dropped below their
    /// thresholds within `max_iterations` (a solve that did not bumps
    /// `dfpt.scf.unconverged`).
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

    /// Runs the SCF for a fragment from the core-Hamiltonian guess.
    pub fn solve(&self, frag: &FragmentStructure) -> ScfResult {
        self.run(frag, None)
    }

    /// Runs the SCF for a fragment starting from the density matrix `p0`
    /// (e.g. a nearby geometry's converged `ScfResult::p`), which must be
    /// `n × n` for the fragment's basis.
    pub fn solve_from(&self, frag: &FragmentStructure, p0: &DMatrix) -> ScfResult {
        self.run(frag, Some(p0))
    }

    fn run(&self, frag: &FragmentStructure, p0: Option<&DMatrix>) -> ScfResult {
        let _span = qfr_obs::span("dfpt.scf");
        SCF_SOLVES.incr();
        let cfg = &self.config;
        let setup = Setup::new(frag, cfg);
        let n = setup.basis.len();
        let occ = fill_occupations(setup.basis.n_electrons, n);
        let p = match p0 {
            Some(p0) => {
                assert_eq!(
                    p0.shape(),
                    (n, n),
                    "starting density matrix must be n x n for the basis"
                );
                p0.clone()
            }
            None => density_matrix(&diagonalize(&setup.l_inv, &setup.h_core).1, &occ),
        };
        let mut p = Arc::new(p);
        let mut diis = Diis::default();
        let mut fock = setup.h_core.clone();
        let mut c = DMatrix::zeros(n, n);
        let mut eps = vec![0.0; n];
        let mut density = vec![0.0; setup.grid.len()];
        // The last iteration's Hartree potential: the energy needs it once,
        // after the loop.
        let mut v_h_last = None;
        let mut iterations = 0;
        let mut converged = false;

        for it in 0..cfg.max_iterations {
            iterations = it + 1;
            let (f_of_p, rho, v_h) = setup.fock(&p);

            // Pulay/DIIS: F[P] and its commutator error enter the history,
            // and the extrapolated Fock is diagonalized in the Löwdin basis.
            let error = commutator_error(&f_of_p, &p, &setup.s);
            let error_max = error.max_abs();
            diis.push(f_of_p, error);
            fock = diis.extrapolate();
            (eps, c) = diagonalize(&setup.l_inv, &fock);

            // New density matrix, taken undamped.
            let p_new = density_matrix(&c, &occ);
            let delta = p.max_abs_diff(&p_new);
            p = Arc::new(p_new);
            density = rho;
            v_h_last = Some(v_h);

            if delta < cfg.convergence && error_max < COMMUTATOR_FACTOR * cfg.convergence {
                converged = true;
                break;
            }
        }
        // The final iteration's `(P, n, v_H)`, whichever way the loop ended.
        let energy = v_h_last.map_or(0.0, |v_h| setup.energy(&p, &density, &v_h));
        SCF_ITERATIONS.add(iterations as u64);
        if !converged {
            SCF_UNCONVERGED.incr();
        }

        let Setup { basis, grid, s, l_inv, h_core, .. } = setup;
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
            p: Arc::try_unwrap(p).unwrap_or_else(|shared| (*shared).clone()),
            density,
            energy,
            iterations,
            converged,
        }
    }
}

/// What every iteration of one fragment's SCF shares: the basis, the grid,
/// the one-electron matrices and the basis panel of each grid batch.
struct Setup {
    basis: Basis,
    grid: RealSpaceGrid,
    s: DMatrix,
    l_inv: DMatrix,
    h_core: DMatrix,
    panels: GridPanels,
}

impl Setup {
    fn new(frag: &FragmentStructure, cfg: &ScfConfig) -> Self {
        let basis = Basis::for_fragment(frag);
        let grid =
            RealSpaceGrid::for_fragment(frag, cfg.grid_spacing, GRID_PADDING, cfg.max_grid_dim);
        let s = basis.overlap();
        let chol = Cholesky::new(&s).expect("overlap must be positive definite");
        let l_inv = chol.l_inverse();
        let t = basis.kinetic();
        let v_ext = basis.external_potential();
        let h_core = &t + &v_ext;
        // The value panels are evaluated once and reused every iteration.
        let panels = GridPanels::new(&basis, &grid, cfg.batch_size, false);
        Self { basis, grid, s, l_inv, h_core, panels }
    }

    /// `F[P]`, with the grid density of `P` and its Hartree potential.
    fn fock(&self, p: &Arc<DMatrix>) -> (DMatrix, Vec<f64>, Vec<f64>) {
        let (density, _) = self.panels.density(p);
        qfr_linalg::flops::add((2 * density.len() * self.basis.len()) as u64);
        let v_h = self.grid.solve_poisson(&density);
        let v_eff = effective_potential(&v_h, &density);
        let v_mat = self.panels.potentials(std::slice::from_ref(&v_eff)).remove(0);
        (&self.h_core + &v_mat, density, v_h)
    }

    /// Energy: `tr(P H_core) + ½∫ n v_H + E_x + E_nn`.
    fn energy(&self, p: &DMatrix, density: &[f64], v_h: &[f64]) -> f64 {
        let dv = self.grid.dv;
        let e_core = trace_product(p, &self.h_core);
        let e_h: f64 = 0.5 * density.iter().zip(v_h).map(|(&nd, &vh)| nd * vh).sum::<f64>() * dv;
        let e_x: f64 = -0.75 * CX * density.iter().map(|&nd| nd.powf(4.0 / 3.0)).sum::<f64>() * dv;
        e_core + e_h + e_x + self.basis.nuclear_repulsion()
    }
}

/// `L⁻¹ M L⁻ᵀ` for symmetric `M`, via the triangle-only similarity
/// transform (result exactly symmetric by mirror).
pub(crate) fn sandwich_linv(l_inv: &DMatrix, m: &DMatrix) -> DMatrix {
    qfr_linalg::syrk::similarity_transform(l_inv, m)
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

/// `tr(A B)` for symmetric-compatible shapes.
pub fn trace_product(a: &DMatrix, b: &DMatrix) -> f64 {
    assert_eq!(a.cols(), b.rows());
    let mut tr = 0.0;
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            tr += a[(i, k)] * b[(k, i)];
        }
    }
    tr
}

/// Orbital energies and AO coefficients of `F C = S C ε`, solved in the
/// Löwdin-orthogonalized basis.
fn diagonalize(l_inv: &DMatrix, fock: &DMatrix) -> (Vec<f64>, DMatrix) {
    let eig = symmetric_eigen(&sandwich_linv(l_inv, fock));
    (eig.eigenvalues, gemm::matmul(&l_inv.transpose(), &eig.eigenvectors))
}

/// The DIIS error `F P S − S P F`, which vanishes at self-consistency
/// (also with a fractional HOMO: `occ` and `ε` are both diagonal).
/// `F`, `P`, `S` are symmetric, so `S P F = (F P S)ᵀ`.
fn commutator_error(fock: &DMatrix, p: &DMatrix, s: &DMatrix) -> DMatrix {
    let fps = gemm::matmul(&gemm::matmul(fock, p), s);
    &fps - &fps.transpose()
}

/// Pulay's direct inversion in the iterative subspace over the last
/// `DIIS_DEPTH` `(F[P], error)` pairs.
#[derive(Default)]
struct Diis {
    history: VecDeque<(DMatrix, DMatrix)>,
}

impl Diis {
    fn push(&mut self, fock: DMatrix, error: DMatrix) {
        if self.history.len() == DIIS_DEPTH {
            self.history.pop_front();
        }
        self.history.push_back((fock, error));
    }

    /// `Σ cᵢ Fᵢ` minimizing `|Σ cᵢ eᵢ|` subject to `Σ cᵢ = 1`: the bordered
    /// system `[B −1; −1 0] [c; λ] = [0; −1]` with `Bᵢⱼ = ⟨eᵢ, eⱼ⟩`, scaled
    /// by its largest diagonal entry. A singular `B` falls back to the
    /// newest Fock.
    fn extrapolate(&self) -> DMatrix {
        let (newest, _) = self.history.back().expect("extrapolate after push");
        let m = self.history.len();
        if m == 1 {
            return newest.clone();
        }
        let n = newest.rows();
        // m(m+1)/2 error dots, then the m-term Fock combination.
        qfr_linalg::flops::add(((m + 3) * m * n * n) as u64);
        let mut b = DMatrix::zeros(m + 1, m + 1);
        for (i, (_, ei)) in self.history.iter().enumerate() {
            for (j, (_, ej)) in self.history.iter().enumerate().take(i + 1) {
                let dot: f64 = ei.as_slice().iter().zip(ej.as_slice()).map(|(x, y)| x * y).sum();
                b[(i, j)] = dot;
                b[(j, i)] = dot;
            }
        }
        let scale = (0..m).map(|i| b[(i, i)]).fold(0.0, f64::max);
        if scale > 0.0 {
            b.scale_mut(1.0 / scale);
        }
        for i in 0..m {
            b[(i, m)] = -1.0;
            b[(m, i)] = -1.0;
        }
        let mut rhs = vec![0.0; m + 1];
        rhs[m] = -1.0;
        let Ok(lu) = Lu::new(&b) else {
            return newest.clone();
        };
        let coeffs = lu.solve(&rhs);
        let mut out = DMatrix::zeros(n, n);
        for ((fock, _), &ci) in self.history.iter().zip(&coeffs) {
            for (o, f) in out.as_mut_slice().iter_mut().zip(fock.as_slice()) {
                *o += ci * f;
            }
        }
        out
    }
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

    /// The first `atoms` atoms of a seeded `waters`-molecule box as one
    /// fragment.
    fn box_fragment(waters: usize, seed: u64, atoms: usize) -> FragmentStructure {
        let sys = WaterBoxBuilder::new(waters).seed(seed).build();
        FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: (0..atoms).collect(),
            link_hydrogens: vec![],
        }
        .structure(&sys)
    }

    fn water_fragment() -> FragmentStructure {
        box_fragment(1, 1, 3)
    }

    /// The `water2_dfpt` benchmark fragment: the dimer job of a seed-42
    /// two-water box.
    fn water_dimer() -> FragmentStructure {
        let sys = WaterBoxBuilder::new(2).seed(42).build();
        let jobs = qfr_fragment::Decomposition::new(&sys, Default::default()).jobs;
        jobs.iter().max_by_key(|j| j.size()).expect("a two-water box has jobs").structure(&sys)
    }

    /// The linear-mixing loop DIIS replaced (mixing 0.35), run to 1e-12 as
    /// the oracle for where the SCF must land.
    fn linear_mixing_oracle(frag: &FragmentStructure) -> (DMatrix, f64) {
        const MIXING: f64 = 0.35;
        let cfg = ScfConfig { max_iterations: 2000, convergence: 1e-12, ..fast().config };
        let setup = Setup::new(frag, &cfg);
        let occ = fill_occupations(setup.basis.n_electrons, setup.basis.len());
        let mut p = Arc::new(density_matrix(&diagonalize(&setup.l_inv, &setup.h_core).1, &occ));
        for _ in 0..cfg.max_iterations {
            let (fock, density, v_h) = setup.fock(&p);
            let p_new = density_matrix(&diagonalize(&setup.l_inv, &fock).1, &occ);
            let delta = p.max_abs_diff(&p_new);
            let mut next = p.scaled(1.0 - MIXING);
            next += &p_new.scaled(MIXING);
            p = Arc::new(next);
            if delta < cfg.convergence {
                let energy = setup.energy(&p, &density, &v_h);
                return (Arc::try_unwrap(p).expect("no job holds P"), energy);
            }
        }
        panic!("linear-mixing oracle did not converge");
    }

    #[test]
    fn diis_lands_on_the_linear_mixing_fixed_point() {
        let hydroxyl = box_fragment(1, 1, 2);
        let fragments = [
            ("water", water_fragment()),
            ("water2_dfpt dimer", water_dimer()),
            ("4-water cluster", box_fragment(4, 3, 12)),
            ("hydroxyl", hydroxyl),
        ];
        for (name, frag) in &fragments {
            let (p_ref, e_ref) = linear_mixing_oracle(frag);
            let res = fast().solve(frag);
            assert!(res.converged, "{name}: no convergence in {} iterations", res.iterations);
            let dp = res.p.max_abs_diff(&p_ref);
            assert!(dp <= 1e-7, "{name}: max|ΔP| = {dp:e} against the oracle");
            let de = (res.energy - e_ref).abs();
            assert!(de <= 1e-9, "{name}: |ΔE| = {de:e} against the oracle");
        }
        // OH: 7 valence electrons, so the HOMO is singly occupied.
        assert_eq!(fragments[3].1.elements.len(), 2);
        assert!(
            fast().solve(&fragments[3].1).occ.contains(&1.0),
            "hydroxyl HOMO must be fractional"
        );
    }

    #[test]
    fn warm_start_reaches_the_cold_start_density() {
        let frag = water_dimer();
        let reference = fast().solve(&frag);
        for coord in [0, 4, 17] {
            let mut moved = frag.clone();
            let atom = &mut moved.positions[coord / 3];
            match coord % 3 {
                0 => atom.x += 0.02,
                1 => atom.y += 0.02,
                _ => atom.z += 0.02,
            }
            let cold = fast().solve(&moved);
            let warm = fast().solve_from(&moved, &reference.p);
            assert!(cold.converged && warm.converged);
            let dp = warm.p.max_abs_diff(&cold.p);
            assert!(dp <= 1e-7, "coord {coord}: warm vs cold max|ΔP| = {dp:e}");
            assert!(cold.iterations <= 10, "coord {coord}: cold start took {}", cold.iterations);
            assert!(warm.iterations <= 8, "coord {coord}: warm start took {}", warm.iterations);
        }
        assert!(reference.iterations <= 10, "dimer cold start took {}", reference.iterations);
    }

    #[test]
    #[should_panic(expected = "n x n")]
    fn warm_start_rejects_a_density_of_another_basis() {
        let _ = fast().solve_from(&water_fragment(), &DMatrix::zeros(3, 3));
    }

    #[test]
    fn energy_is_the_final_iterations() {
        // Converged exit, `max_iterations` exit, and no iteration at all:
        // the energy is that of the last `(P, n, v_H)`, where `v_H` is the
        // Poisson solve of the returned density.
        let frag = water_fragment();
        for max_iterations in [60, 3, 0] {
            let cfg = ScfConfig { max_iterations, ..fast().config };
            let res = ScfSolver { config: cfg }.solve(&frag);
            assert_eq!(res.converged, max_iterations == 60);
            let expected = if max_iterations == 0 {
                0.0
            } else {
                let setup = Setup::new(&frag, &cfg);
                let v_h = setup.grid.solve_poisson(&res.density);
                setup.energy(&res.p, &res.density, &v_h)
            };
            assert_eq!(res.energy.to_bits(), expected.to_bits(), "max_iterations {max_iterations}");
        }
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
