//! Atomic-displacement DFPT cycles — the worker workload of Fig. 3.
//!
//! In QF-RAMAN each leader generates a set of atomic displacements for its
//! fragment and each worker runs a DFPT cycle per displacement. When an
//! atom moves, the basis functions anchored on it move too, which is where
//! the Fig. 6(a) expression `χᵀχ + χᵀ∇χ + ∇χᵀχ` enters the response
//! Hamiltonian (the Pulay / basis-motion term). This module builds the
//! displacement perturbation — analytic-difference core matrices plus the
//! grid Pulay kernel evaluated per batch with either the naive 3-GEMM form
//! ([`qfr_linalg::blas::cross_term_naive`]) or the symmetry-reduced 1-GEMM
//! form ([`qfr_linalg::blas::symmetric_cross_term`]) — and runs the shared
//! four-phase response loop. It also exposes the scattered GEMM job list of
//! the n(1) phase, which the elastic offloading scheme of `qfr-sched`
//! batches.

use crate::grid::GridPanels;
use crate::response::{solve_response, CyclePhases, ResponseConfig, ResponseResult};
use crate::scf::{effective_potential, ScfResult};
use qfr_fragment::FragmentStructure;
use qfr_linalg::batch::BatchJob;
use qfr_linalg::blas;
use qfr_linalg::DMatrix;
use std::sync::Arc;
use std::time::Instant;

/// Finite-difference step for the core matrices (Å).
const CORE_STEP: f64 = 1e-3;

/// Configuration of a displacement cycle.
#[derive(Debug, Clone, Copy)]
pub struct DisplacementConfig {
    /// Displaced atom (fragment-local index).
    pub atom: usize,
    /// Cartesian direction (0 = x, 1 = y, 2 = z).
    pub direction: usize,
    /// Response-loop settings (batching, reduction path).
    pub response: ResponseConfig,
}

impl DisplacementConfig {
    /// Default cycle for displacing `atom` along `direction`.
    pub fn new(atom: usize, direction: usize) -> Self {
        Self { atom, direction, response: ResponseConfig::default() }
    }
}

/// Cost profile of one displacement cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleProfile {
    /// The four response phases.
    pub phases: CyclePhases,
    /// Pulay (basis-motion) kernel seconds.
    pub pulay_seconds: f64,
    /// Pulay kernel FLOPs.
    pub pulay_flops: u64,
    /// Number of GEMM panel invocations issued by the Pulay kernel.
    pub pulay_gemm_calls: usize,
}

impl CycleProfile {
    /// Total wall seconds of the cycle.
    pub fn total_seconds(&self) -> f64 {
        self.phases.total_seconds() + self.pulay_seconds
    }

    /// Total FLOPs of the cycle.
    pub fn total_flops(&self) -> u64 {
        self.phases.total_flops() + self.pulay_flops
    }
}

/// Runs one displacement DFPT cycle. Returns the response and its profile.
pub fn displacement_cycle(
    scf: &ScfResult,
    frag: &FragmentStructure,
    cfg: &DisplacementConfig,
) -> (ResponseResult, CycleProfile) {
    assert!(cfg.atom < frag.n_atoms(), "displaced atom out of range");
    assert!(cfg.direction < 3, "direction must be 0..3");
    let mut profile = CycleProfile::default();

    // Bare perturbation part 1: analytic-difference core Hamiltonian.
    let h1_core = core_difference(frag, cfg);

    // Bare perturbation part 2: grid Pulay kernel via the Fig. 6(a)
    // expression, batch by batch.
    let t0 = Instant::now();
    let scope = qfr_linalg::flops::FlopScope::start();
    let (pulay, gemm_calls) = pulay_kernel(scf, cfg);
    profile.pulay_seconds = t0.elapsed().as_secs_f64();
    profile.pulay_flops = scope.finish().flops;
    profile.pulay_gemm_calls = gemm_calls;

    let h1_ext = &h1_core + &pulay;
    let resp = solve_response(scf, &h1_ext, &cfg.response);
    profile.phases = resp.phases;
    (resp, profile)
}

/// `(H_core(+h) - H_core(-h)) / 2h` with only the displaced atom's shells
/// and well moved.
fn core_difference(frag: &FragmentStructure, cfg: &DisplacementConfig) -> DMatrix {
    let shift = |sign: f64| {
        let mut moved = frag.clone();
        match cfg.direction {
            0 => moved.positions[cfg.atom].x += sign * CORE_STEP,
            1 => moved.positions[cfg.atom].y += sign * CORE_STEP,
            _ => moved.positions[cfg.atom].z += sign * CORE_STEP,
        }
        let b = crate::basis::Basis::for_fragment(&moved);
        &b.kinetic() + &b.external_potential()
    };
    let plus = shift(1.0);
    let minus = shift(-1.0);
    let mut d = &plus - &minus;
    d.scale_mut(1.0 / (2.0 * CORE_STEP));
    d
}

/// The grid Pulay kernel: per batch, the Fig. 6(a) cross-term expression
/// over the effective-potential-weighted value panel `X̃` and the
/// displaced-atom gradient panel `G_A`. Returns the accumulated matrix and
/// the number of GEMM invocations issued.
fn pulay_kernel(scf: &ScfResult, cfg: &DisplacementConfig) -> (DMatrix, usize) {
    let n = scf.basis.len();
    let panels = GridPanels::new(&scf.basis, &scf.grid, cfg.response.batch_size, false);
    let mut total = DMatrix::zeros(n, n);
    let mut gemm_calls = 0;
    // Effective potential from the converged ground state: v_H + v_x.
    let v_h = scf.grid.solve_poisson(&scf.density);
    let v_eff = effective_potential(&v_h, &scf.density);
    for (bi, b) in panels.batches.iter().enumerate() {
        let mut g = scf.basis.evaluate_gradient(&scf.grid.points[b.clone()], cfg.direction);
        // Mask the gradient to the displaced atom's shells; moving atom A
        // changes only its own basis functions (∂χ_μ/∂R_A = -∇χ_μ for
        // μ ∈ A).
        for (mu, shell) in scf.basis.shells.iter().enumerate() {
            if shell.atom != cfg.atom {
                for row in 0..g.rows() {
                    g[(row, mu)] = 0.0;
                }
            } else {
                for row in 0..g.rows() {
                    g[(row, mu)] = -g[(row, mu)];
                }
            }
        }
        // Weight the value panel by v_eff dv. The model basis-motion kernel
        // is then exactly the Fig. 6(a) expression over (X̃, G):
        // W = X̃ᵀX̃ + X̃ᵀG + GᵀX̃.
        let xw = panels.weighted(bi, &v_eff);
        qfr_linalg::flops::add((2 * xw.rows() * n) as u64);
        let term = if cfg.response.use_symmetry_reduction {
            gemm_calls += 1;
            blas::symmetric_cross_term(&xw, &g)
        } else {
            gemm_calls += 3;
            blas::cross_term_naive(&xw, &g)
        };
        total += &term;
    }
    total.symmetrize_mut();
    (total, gemm_calls)
}

/// The scattered GEMM jobs of one n(1) phase: `X_batch × P1` per grid
/// batch. The elastic offloading experiments (Fig. 9 / `qfr-sched`) batch
/// these by stride-32 size class.
pub fn n1_phase_gemm_jobs(scf: &ScfResult, p1: &DMatrix, batch_size: usize) -> Vec<BatchJob> {
    let panels = GridPanels::new(&scf.basis, &scf.grid, batch_size, false);
    panels.product_jobs(&Arc::new(p1.clone()), false).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::ScfSolver;
    use qfr_fragment::{FragmentJob, JobKind};
    use qfr_geom::WaterBoxBuilder;

    fn water() -> (ScfResult, FragmentStructure) {
        let sys = WaterBoxBuilder::new(1).seed(1).build();
        let frag = FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![0, 1, 2],
            link_hydrogens: vec![],
        }
        .structure(&sys);
        let solver = ScfSolver {
            config: crate::scf::ScfConfig {
                max_grid_dim: 16,
                grid_spacing: 0.5,
                ..Default::default()
            },
        };
        (solver.solve(&frag), frag)
    }

    #[test]
    fn cycle_runs_and_profiles() {
        let (scf, frag) = water();
        let cfg = DisplacementConfig::new(0, 2);
        let (resp, profile) = displacement_cycle(&scf, &frag, &cfg);
        assert!(resp.h1.is_symmetric(1e-9));
        assert!(profile.total_flops() > 0);
        assert!(profile.pulay_flops > 0);
        assert!(profile.phases.n1_flops > 0);
        assert!(profile.pulay_gemm_calls >= 1);
    }

    #[test]
    fn reduction_paths_identical_results() {
        let (scf, frag) = water();
        let mut cfg = DisplacementConfig::new(1, 0);
        cfg.response.use_symmetry_reduction = false;
        let (naive, prof_naive) = displacement_cycle(&scf, &frag, &cfg);
        cfg.response.use_symmetry_reduction = true;
        let (fast, prof_fast) = displacement_cycle(&scf, &frag, &cfg);
        assert!(
            naive.h1.max_abs_diff(&fast.h1) < 1e-9,
            "paths diverge: {}",
            naive.h1.max_abs_diff(&fast.h1)
        );
        // The FLOP saving is pinned in tests/flop_savings.rs, away from
        // sibling tests that run kernels while the FLOP delta is read.
        assert!(prof_fast.pulay_gemm_calls < prof_naive.pulay_gemm_calls);
    }

    #[test]
    fn displacement_perturbation_nonzero_and_local() {
        let (scf, frag) = water();
        let cfg = DisplacementConfig::new(2, 1);
        let h1 = core_difference(&frag, &cfg);
        assert!(h1.max_abs() > 1e-6, "moving an atom must perturb the core");
        // Entries between shells on non-displaced atoms change only through
        // the well of the moved atom — much smaller than on-atom entries.
        let on_atom: f64 = scf
            .basis
            .shells
            .iter()
            .enumerate()
            .filter(|(_, s)| s.atom == 2)
            .map(|(mu, _)| h1[(mu, mu)].abs())
            .sum();
        assert!(on_atom > 0.0);
    }

    #[test]
    fn gemm_jobs_cover_grid() {
        let (scf, _frag) = water();
        let p1 = DMatrix::identity(scf.basis.len());
        let jobs = n1_phase_gemm_jobs(&scf, &p1, 128);
        let total_rows: usize = jobs.iter().map(|j| j.a.rows()).sum();
        assert_eq!(total_rows, scf.grid.len());
        for j in &jobs {
            assert_eq!(j.a.cols(), scf.basis.len());
            assert_eq!(j.b.shape(), (scf.basis.len(), scf.basis.len()));
        }
        // Many scattered small GEMMs — the premise of elastic offloading.
        assert!(jobs.len() > 8, "expected scattered jobs, got {}", jobs.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_atom_rejected() {
        let (scf, frag) = water();
        let _ = displacement_cycle(&scf, &frag, &DisplacementConfig::new(99, 0));
    }
}
