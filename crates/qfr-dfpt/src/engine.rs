//! The DFPT fragment engine (finite-difference Hessian + DFPT
//! polarizability derivatives).
//!
//! This is the *computationally faithful* engine: polarizability
//! derivatives come from real DFPT response solves at displaced geometries
//! (exactly the leader/worker workload of Fig. 3), and the Hessian from
//! central differences of the analytic gradient of a frozen-density
//! (Harris-style) functional. Every derivative goes through one driver,
//! `central_differences`: it runs a closure at each of the `2·dof`
//! geometries `R ± h e_j` in parallel, collects the results in index order
//! and differences them. Cost is one reference SCF, whose density
//! warm-starts every displaced solve, plus `2·3m` gradient evaluations (one
//! Poisson solve each) and `6m` displaced SCFs with three field responses
//! each per fragment. Each displaced geometry runs start to finish on its
//! own (SCF, responses, α and μ) and then drops its state, so the peak is
//! about one geometry per thread. The engine is reserved for small
//! fragments (waters, dimers) and validation; the production spectra path
//! uses `qfr-model`'s analytic engine (see DESIGN.md). The model energy
//! units are taken as mdyn/Å unscaled, so both engines feed the same
//! downstream pipeline.

use crate::basis::Basis;
use crate::grid::GridPanels;
use crate::response::{polarizability_with, ResponseConfig};
use crate::scf::{exchange_potential, ScfConfig, ScfResult, ScfSolver};
use qfr_fragment::{FragmentEngine, FragmentResponse, FragmentStructure};
use qfr_linalg::DMatrix;
use rayon::prelude::*;
use std::sync::Arc;

static FRAGMENTS_COMPUTED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("dfpt.engine.fragments");
/// Displaced-geometry SCF solves issued by the finite-difference engine.
static SCF_SOLVES: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.engine.scf_solves");
/// Derivative evaluations served from an already-solved displaced SCF
/// instead of a fresh solve (the merged-sweep saving).
static SCF_REUSED: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.engine.scf_reused");

/// Finite-difference displacement `h` (Å).
const DISPLACEMENT: f64 = 0.02;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DfptEngineConfig {
    /// SCF settings (coarser grids keep the engine affordable).
    pub scf: ScfConfig,
    /// Response settings.
    pub response: ResponseConfig,
}

impl Default for DfptEngineConfig {
    fn default() -> Self {
        Self {
            scf: ScfConfig { max_grid_dim: 16, grid_spacing: 0.5, ..Default::default() },
            response: ResponseConfig::default(),
        }
    }
}

/// The DFPT-based fragment engine.
#[derive(Debug, Clone, Default)]
pub struct DfptEngine {
    /// Configuration.
    pub config: DfptEngineConfig,
}

/// The six independent components of the symmetric polarizability tensor,
/// in the fixed `(xx, yy, zz, xy, xz, yz)` order used across the pipeline.
const ALPHA_COMPONENTS: [(usize, usize); 6] = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)];

impl DfptEngine {
    /// Engine with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference ground state every finite difference is taken around.
    fn reference(&self, frag: &FragmentStructure) -> ScfResult {
        ScfSolver { config: self.config.scf }.solve(frag)
    }

    /// SCF at the displaced geometry `frag`, warm-started from the
    /// reference density matrix.
    fn displaced_scf(&self, frag: &FragmentStructure, reference: &ScfResult) -> ScfResult {
        SCF_SOLVES.incr();
        ScfSolver { config: self.config.scf }.solve_from(frag, &reference.p)
    }

    /// The six α components of the DFPT polarizability at `scf`. Its
    /// `CyclePhases` are dropped: they read the process-global FLOP
    /// counter, which concurrent geometries share.
    fn alpha_column(&self, scf: &ScfResult, dipole: &[DMatrix; 3]) -> Vec<f64> {
        let alpha = polarizability_with(scf, dipole, &self.config.response).0;
        ALPHA_COMPONENTS.iter().map(|&(p, q)| alpha[(p, q)]).collect()
    }

    /// Finite-difference Hessian of the frozen-density functional (solves
    /// its own reference SCF).
    pub fn hessian_fd(&self, frag: &FragmentStructure) -> DMatrix {
        self.hessian_around(frag, &self.reference(frag))
    }

    /// The frozen-density Hessian around `reference`: the central
    /// differences of the analytic gradient [`frozen_gradient`] (one
    /// Poisson solve each), symmetrized. The reference value and gradient
    /// panels are evaluated on the reference grid once; each displaced
    /// geometry takes a [`GridPanels::moved`] copy, which recomputes only
    /// the columns of shells whose centre moved.
    fn hessian_around(&self, frag: &FragmentStructure, reference: &ScfResult) -> DMatrix {
        let _span = qfr_obs::span("dfpt.engine.hessian_fd");
        let ref_basis = Basis::for_fragment(frag);
        let ref_panels =
            GridPanels::new(&ref_basis, &reference.grid, self.config.scf.batch_size, true);
        let mut hess = central_differences(frag, |f| {
            let basis = Basis::for_fragment(f);
            let panels = ref_panels.moved(&ref_basis, &basis, &reference.grid);
            frozen_gradient(&basis, reference, &panels)
        });
        hess.symmetrize_mut();
        hess
    }

    /// Polarizability derivatives by central differences of the DFPT
    /// polarizability over atomic displacements (`6 x 3m`).
    ///
    /// This is the *scattered* reference path: it solves its own reference
    /// SCF and re-solves every displaced geometry (warm-started from that
    /// reference) even though [`DfptEngine::dmu_fd`] visits the same
    /// geometries. Production code goes through
    /// [`DfptEngine::displaced_sweep`], which shares the solves.
    pub fn dalpha_fd(&self, frag: &FragmentStructure) -> DMatrix {
        let _span = qfr_obs::span("dfpt.engine.dalpha_fd");
        let reference = self.reference(frag);
        central_differences(frag, |f| {
            let scf = self.displaced_scf(f, &reference);
            self.alpha_column(&scf, &scf.basis.dipole())
        })
    }

    /// Dipole derivatives by central differences of the SCF dipole
    /// (`3 x 3m`).
    ///
    /// Scattered reference path — solves its own reference and re-solves the
    /// same warm-started displaced geometries as [`DfptEngine::dalpha_fd`];
    /// production goes through [`DfptEngine::displaced_sweep`].
    pub fn dmu_fd(&self, frag: &FragmentStructure) -> DMatrix {
        let _span = qfr_obs::span("dfpt.engine.dmu_fd");
        let reference = self.reference(frag);
        central_differences(frag, |f| {
            let scf = self.displaced_scf(f, &reference);
            scf_dipole(&scf, &scf.basis.dipole()).to_vec()
        })
    }

    /// One displaced-SCF sweep computing *both* derivative blocks: each
    /// displaced geometry is solved once and its polarizability **and**
    /// dipole are derived from the shared [`ScfResult`] — half the SCF
    /// solves of running [`DfptEngine::dalpha_fd`] followed by
    /// [`DfptEngine::dmu_fd`] (2·dof instead of 4·dof).
    ///
    /// Returns `(dalpha 6 x dof, dmu 3 x dof)`, bit-identical to the
    /// scattered paths: the same closure results through the same driver.
    /// Each solve bumps `dfpt.engine.scf_solves`; each derivative block
    /// served from an already-solved geometry bumps
    /// `dfpt.engine.scf_reused`.
    ///
    /// Each geometry is a pipeline of its own, as a worker runs one
    /// displacement in the paper: its SCF, then its three field responses
    /// in one [`crate::response::solve_responses`] set (the gather window
    /// of the batched executor), then one α and one μ column, after which
    /// its state drops. Solves its own reference SCF; every displaced solve
    /// warm-starts from it, exactly as in the scattered paths.
    pub fn displaced_sweep(&self, frag: &FragmentStructure) -> (DMatrix, DMatrix) {
        self.sweep_around(frag, &self.reference(frag))
    }

    fn sweep_around(&self, frag: &FragmentStructure, reference: &ScfResult) -> (DMatrix, DMatrix) {
        let _span = qfr_obs::span("dfpt.engine.displaced_sweep");
        let both = central_differences(frag, |f| {
            let scf = self.displaced_scf(f, reference);
            // One set of dipole matrices serves both α and μ.
            let dipole = scf.basis.dipole();
            let mut column = self.alpha_column(&scf, &dipole);
            SCF_REUSED.incr();
            column.extend(scf_dipole(&scf, &dipole));
            column
        });
        let dof = frag.dof();
        (
            DMatrix::from_fn(6, dof, |i, j| both[(i, j)]),
            DMatrix::from_fn(3, dof, |i, j| both[(6 + i, j)]),
        )
    }
}

/// Central differences over the `2·dof` displaced geometries of `frag`:
/// geometry `g` moves coordinate `g / 2` by `+h` for even `g` and by `−h`
/// for odd `g`. `f` runs at each of them on the rayon facade and the
/// results are collected in index order, so the matrix, whose column `j`
/// is `(f(R + h e_j) − f(R − h e_j)) / 2h`, does not depend on the thread
/// count.
fn central_differences(
    frag: &FragmentStructure,
    f: impl Fn(&FragmentStructure) -> Vec<f64> + Sync,
) -> DMatrix {
    let dof = frag.dof();
    let h = DISPLACEMENT;
    let values: Vec<Vec<f64>> = (0..2 * dof)
        .into_par_iter()
        .map(|g| {
            let mut displaced = frag.clone();
            apply_shift(&mut displaced, g / 2, if g % 2 == 0 { h } else { -h });
            f(&displaced)
        })
        .collect();
    let rows = values.first().map_or(0, Vec::len);
    assert!(values.iter().all(|v| v.len() == rows), "every geometry gives {rows} values");
    DMatrix::from_fn(rows, dof, |i, j| (values[2 * j][i] - values[2 * j + 1][i]) / (2.0 * h))
}

/// Ground-state dipole of the model: electronic `-tr(P D)` from the dipole
/// matrices `dip` of `scf.basis`, plus the nuclear-well moments about the
/// basis centroid.
fn scf_dipole(scf: &ScfResult, dip: &[DMatrix; 3]) -> [f64; 3] {
    let centroid = scf.basis.centroid();
    let mut out = [0.0; 3];
    for c in 0..3 {
        out[c] = -crate::scf::trace_product(&scf.p, &dip[c]);
    }
    for &(pos, z) in &scf.basis.nuclei {
        let rel = pos - centroid;
        out[0] += z * rel.x;
        out[1] += z * rel.y;
        out[2] += z * rel.z;
    }
    out
}

/// Analytic gradient, one entry per coordinate `3·atom + c`, of the
/// frozen-density (Harris-style) energy of the geometry `basis` was built
/// for: the SCF density matrix `P` of the reference geometry is kept fixed
/// while the integrals and grid terms follow the nuclei, and the density is
/// transported rigidly — `panels` hold `basis` and its gradient evaluated
/// on the *reference* grid. The energy is
///
/// `E = tr(P (T + V_ext)) + E_H[n] + E_x[n] + E_nn`, `n = max(0, diag(X P Xᵀ))`,
///
/// and its gradient is [`Basis::core_gradient`] plus
/// [`Basis::nuclear_repulsion_gradient`] plus the grid term
/// `dv Σ_r (v_H + v_x)(r) ∂n(r)/∂R_{A,c}` with
/// `∂n/∂R_{A,c} = −2 Σ_{μ∈A} G_c[r,μ] (X P)[r,μ]` (0 where the clamp
/// holds) and `v_x = −C_X n^{1/3}`. The Poisson operator is a real symmetric
/// circulant, so its solution `v_H` is exactly `∂E_H/∂n`: one Poisson solve
/// per gradient.
fn frozen_gradient(basis: &Basis, reference: &ScfResult, panels: &GridPanels) -> Vec<f64> {
    let grid = &reference.grid;
    let (density, xps) = panels.density(&Arc::new(reference.p.clone()));
    let v_h = grid.solve_poisson(&density);
    let n = basis.len();
    qfr_linalg::flops::add((grid.len() * (n * 9 + 4)) as u64);
    // Σ_r w(r) G_c[r,μ] (XP)[r,μ] per shell μ, folded onto atoms below.
    let mut per_shell = vec![[0.0; 3]; n];
    for ((b, grads), xp) in panels.batches.iter().zip(&panels.gradients).zip(&xps) {
        for (row, r) in b.clone().enumerate() {
            if density[r] <= 0.0 {
                continue;
            }
            let w = -2.0 * grid.dv * (v_h[r] + exchange_potential(density[r]));
            let xp_row = xp.row(row);
            for (c, g) in grads.iter().enumerate() {
                for ((acc, &gv), &xpv) in per_shell.iter_mut().zip(g.row(row)).zip(xp_row) {
                    acc[c] += w * gv * xpv;
                }
            }
        }
    }
    let mut grad = basis.core_gradient(&reference.p);
    for (g, rep) in grad.iter_mut().zip(basis.nuclear_repulsion_gradient()) {
        *g += rep;
    }
    for (shell, acc) in basis.shells.iter().zip(&per_shell) {
        for (g, a) in grad[3 * shell.atom..3 * shell.atom + 3].iter_mut().zip(acc) {
            *g += a;
        }
    }
    grad
}

fn apply_shift(frag: &mut FragmentStructure, coord: usize, amount: f64) {
    let atom = coord / 3;
    match coord % 3 {
        0 => frag.positions[atom].x += amount,
        1 => frag.positions[atom].y += amount,
        _ => frag.positions[atom].z += amount,
    }
}

impl FragmentEngine for DfptEngine {
    fn compute(&self, frag: &FragmentStructure) -> FragmentResponse {
        let _span = qfr_obs::span("dfpt.engine.compute");
        FRAGMENTS_COMPUTED.incr();
        // One reference SCF: the frozen-density Hessian is taken around it
        // and every displaced solve of the merged sweep warm-starts from it;
        // each displaced geometry is solved once and both derivative blocks
        // are derived from the shared SCF result.
        let reference = self.reference(frag);
        let (dalpha, dmu) = self.sweep_around(frag, &reference);
        let hessian = self.hessian_around(frag, &reference);
        let resp = FragmentResponse { hessian, dalpha, dmu };
        resp.check_shape(frag);
        resp
    }

    fn name(&self) -> &'static str {
        "model-dfpt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::CX;
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

    /// The `water2_dfpt` dimer.
    fn water_dimer() -> FragmentStructure {
        let sys = WaterBoxBuilder::new(2).seed(42).build();
        let jobs = qfr_fragment::Decomposition::new(&sys, Default::default()).jobs;
        jobs.iter().max_by_key(|j| j.size()).expect("a two-water box has jobs").structure(&sys)
    }

    /// Frozen-density energy whose gradient [`frozen_gradient`] is: the
    /// oracle the analytic gradient and the gradient Hessian are checked
    /// against. `panels` hold `basis` evaluated on the reference grid.
    fn frozen_energy(basis: &Basis, reference: &ScfResult, panels: &GridPanels) -> f64 {
        let h_core = &basis.kinetic() + &basis.external_potential();
        let e_core = crate::scf::trace_product(&reference.p, &h_core);
        let grid = &reference.grid;
        let (density, _) = panels.density(&Arc::new(reference.p.clone()));
        let v_h = grid.solve_poisson(&density);
        let e_h: f64 =
            0.5 * density.iter().zip(&v_h).map(|(&n, &vh)| n * vh).sum::<f64>() * grid.dv;
        let e_x: f64 =
            -0.75 * CX * density.iter().map(|&n| n.powf(4.0 / 3.0)).sum::<f64>() * grid.dv;
        e_core + e_h + e_x + basis.nuclear_repulsion()
    }

    /// [`frozen_energy`] at `frag` around `reference`, every panel
    /// evaluated in full.
    fn energy_at(engine: &DfptEngine, frag: &FragmentStructure, reference: &ScfResult) -> f64 {
        let basis = Basis::for_fragment(frag);
        let batch_size = engine.config.scf.batch_size;
        frozen_energy(
            &basis,
            reference,
            &GridPanels::new(&basis, &reference.grid, batch_size, false),
        )
    }

    /// [`frozen_gradient`] at `frag` around `reference`, every panel
    /// evaluated in full.
    fn gradient_at(
        engine: &DfptEngine,
        frag: &FragmentStructure,
        reference: &ScfResult,
    ) -> Vec<f64> {
        let basis = Basis::for_fragment(frag);
        let batch_size = engine.config.scf.batch_size;
        frozen_gradient(
            &basis,
            reference,
            &GridPanels::new(&basis, &reference.grid, batch_size, true),
        )
    }

    /// Energy-difference Hessian of `energy` around `frag`, whose own
    /// energy is `e0`: central second differences on the diagonal, mixed
    /// differences off it (1 + 2·dof + dof(dof−1) energies).
    fn fd_hessian(
        frag: &FragmentStructure,
        e0: f64,
        energy: impl Fn(&FragmentStructure) -> f64 + Sync,
    ) -> DMatrix {
        let dof = frag.dof();
        let h = DISPLACEMENT;
        let displaced = |i: usize, s1: f64, j: usize, s2: f64| -> f64 {
            let mut f = frag.clone();
            apply_shift(&mut f, i, s1 * h);
            apply_shift(&mut f, j, s2 * h);
            energy(&f)
        };
        let singles: Vec<(f64, f64)> = (0..dof)
            .into_par_iter()
            .map(|i| (displaced(i, 1.0, i, 0.0), displaced(i, -1.0, i, 0.0)))
            .collect();
        let mut hess = DMatrix::zeros(dof, dof);
        for i in 0..dof {
            hess[(i, i)] = (singles[i].0 + singles[i].1 - 2.0 * e0) / (h * h);
        }
        let pairs: Vec<(usize, usize)> =
            (0..dof).flat_map(|i| ((i + 1)..dof).map(move |j| (i, j))).collect();
        let mixed: Vec<f64> = pairs
            .par_iter()
            .map(|&(i, j)| {
                let epp = displaced(i, 1.0, j, 1.0);
                let emm = displaced(i, -1.0, j, -1.0);
                (epp + emm + 2.0 * e0 - singles[i].0 - singles[i].1 - singles[j].0 - singles[j].1)
                    / (2.0 * h * h)
            })
            .collect();
        for (&(i, j), &v) in pairs.iter().zip(&mixed) {
            hess[(i, j)] = v;
            hess[(j, i)] = v;
        }
        hess
    }

    /// Largest `|g − (E(R + h e_i) − E(R − h e_i)) / 2h|` over all
    /// coordinates, at a geometry moved off the reference (so the frozen
    /// density is not the SCF density there).
    fn gradient_error(frag: &FragmentStructure, h: f64) -> f64 {
        let engine = DfptEngine::new();
        let reference = engine.reference(frag);
        let mut at = frag.clone();
        apply_shift(&mut at, 0, 0.013);
        apply_shift(&mut at, 4, -0.021);
        let g = gradient_at(&engine, &at, &reference);
        (0..frag.dof())
            .map(|i| {
                let energy = |s: f64| {
                    let mut f = at.clone();
                    apply_shift(&mut f, i, s * h);
                    energy_at(&engine, &f, &reference)
                };
                (g[i] - (energy(1.0) - energy(-1.0)) / (2.0 * h)).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn driver_columns_are_the_derivatives_of_a_quadratic() {
        // In `u = R − R₀ + c` (small values keep rounding far below the
        // bound), row 0 is linear with a distinct slope per coordinate and
        // row 1 a non-symmetric quadratic form plus a linear term. Central
        // differences of a quadratic are exact, so every column must equal
        // the analytic derivative up to rounding; a swapped column or a
        // flipped ±h shows as an error of order one.
        let frag = water_dimer();
        let dof = frag.dof();
        let at = |f: &FragmentStructure| -> Vec<f64> {
            let coords = f.positions.iter().flat_map(|p| p.to_array());
            let reference = frag.positions.iter().flat_map(|p| p.to_array());
            coords
                .zip(reference)
                .enumerate()
                .map(|(i, (x, x0))| x - x0 + 0.05 * (i as f64).cos())
                .collect()
        };
        let slope = |j: usize| 1.0 + j as f64 / dof as f64;
        let a = |i: usize, j: usize| 0.01 * ((2 * i + 3 * j) as f64).sin();
        let b = |i: usize| 0.1 * ((7 * i) as f64).cos();
        let d = central_differences(&frag, |f| {
            let u = at(f);
            let linear: f64 = u.iter().enumerate().map(|(j, uj)| slope(j) * uj).sum();
            let mut quadratic = 0.0;
            for (i, ui) in u.iter().enumerate() {
                quadratic += b(i) * ui;
                for (j, uj) in u.iter().enumerate() {
                    quadratic += 0.5 * a(i, j) * ui * uj;
                }
            }
            vec![linear, quadratic]
        });
        let u = at(&frag);
        assert_eq!(d.shape(), (2, dof));
        for j in 0..dof {
            let gradient = b(j)
                + u.iter().enumerate().map(|(i, ui)| 0.5 * (a(i, j) + a(j, i)) * ui).sum::<f64>();
            for (row, exact) in [(0, slope(j)), (1, gradient)] {
                let err = (d[(row, j)] - exact).abs();
                assert!(
                    err <= 1e-12,
                    "row {row}, column {j}: {} vs {exact} ({err:.1e})",
                    d[(row, j)]
                );
            }
        }
    }

    #[test]
    fn analytic_gradient_matches_central_energy_differences() {
        for (name, frag) in [("monomer", water_fragment()), ("dimer", water_dimer())] {
            let coarse = gradient_error(&frag, 1e-3);
            let fine = gradient_error(&frag, 1e-4);
            assert!(coarse < 1e-4, "{name}: error {coarse:.3e} at h = 1e-3");
            assert!(
                fine * 50.0 <= coarse,
                "{name}: error must fall >= 50x from h = 1e-3 to 1e-4: {coarse:.3e} -> {fine:.3e}"
            );
        }
    }

    #[test]
    fn gradient_hessian_matches_the_energy_difference_oracle() {
        let engine = DfptEngine::new();
        let frag = water_fragment();
        let reference = engine.reference(&frag);
        let from_gradients = engine.hessian_around(&frag, &reference);
        let from_energies = fd_hessian(&frag, energy_at(&engine, &frag, &reference), |f| {
            energy_at(&engine, f, &reference)
        });
        let scale = from_energies.max_abs();
        let diff = from_gradients.max_abs_diff(&from_energies);
        assert!(diff <= 5e-3 * scale, "max |ΔH| {diff:.3e} vs max |H| {scale:.3e}");
    }

    #[test]
    fn reused_panels_match_full_evaluation_bit_for_bit() {
        // A displaced gradient from refreshed reference panels equals one
        // from a full evaluation of the displaced basis.
        let engine = DfptEngine::new();
        let frag = water_fragment();
        let reference = engine.reference(&frag);
        let ref_basis = Basis::for_fragment(&frag);
        let mut moved = frag.clone();
        apply_shift(&mut moved, 5, -DISPLACEMENT);
        let basis = Basis::for_fragment(&moved);
        let batch_size = engine.config.scf.batch_size;
        let panels = GridPanels::new(&ref_basis, &reference.grid, batch_size, true).moved(
            &ref_basis,
            &basis,
            &reference.grid,
        );
        let reused = frozen_gradient(&basis, &reference, &panels);
        let full = gradient_at(&engine, &moved, &reference);
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused), bits(&full));
    }

    #[test]
    fn fd_hessian_symmetric_by_construction() {
        let engine = DfptEngine::new();
        let h = engine.hessian_fd(&water_fragment());
        assert_eq!(h.shape(), (9, 9));
        assert!(h.is_symmetric(1e-9));
        // Diagonal entries of a bound system's stretch coordinates are
        // positive (restoring forces).
        let max_diag = h.diagonal().iter().cloned().fold(f64::MIN, f64::max);
        assert!(max_diag > 0.0, "no restoring force found: {:?}", h.diagonal());
    }
    #[test]
    fn engine_produces_valid_response_shapes() {
        let engine = DfptEngine::new();
        let frag = water_fragment();
        let resp = engine.compute(&frag);
        assert_eq!(resp.hessian.shape(), (9, 9));
        assert_eq!(resp.dalpha.shape(), (6, 9));
        assert!(resp.hessian.is_symmetric(1e-9));
        assert!(resp.dalpha.max_abs() > 0.0, "moving atoms must change alpha");
        assert_eq!(engine.name(), "model-dfpt");
    }

    #[test]
    fn dalpha_translation_sum_rule_approximate() {
        // Rigid translation leaves alpha nearly unchanged (grid egg-box
        // noise only): column sums per direction are small relative to the
        // largest entry.
        let engine = DfptEngine::new();
        let d = engine.dalpha_fd(&water_fragment());
        let scale = d.max_abs();
        for comp in 0..6 {
            for dir in 0..3 {
                let total: f64 = (0..3).map(|a| d[(comp, 3 * a + dir)]).sum();
                assert!(
                    total.abs() < 0.35 * scale,
                    "component {comp} dir {dir}: sum {total} vs scale {scale}"
                );
            }
        }
    }
}
