//! Electric-field DFPT: the four-phase response cycle and polarizability.
//!
//! For a homogeneous field along `c`, the bare perturbation is the dipole
//! operator `H1_ext = -D_c`. Each self-consistency cycle runs the paper's
//! four worker phases (Fig. 3, bottom right):
//!
//! 1. **P(1)** — sum-over-states response density matrix from the SCF
//!    eigenpairs;
//! 2. **n(1)(r)** — response density (and its gradient) on the grid,
//!    GEMM-dominated; the gradient uses the Fig. 6(b) *sandwich* expression
//!    in either the naive (2 GEMM + 2 GEMV) or symmetry-reduced
//!    (1 GEMM + 1 GEMV) form;
//! 3. **v(1)** — FFT Poisson solve plus the LDA kernel (and a small
//!    gradient-kernel model term that consumes ∇n(1));
//! 4. **H(1)** — response Hamiltonian matrix elements, GEMM-dominated.
//!
//! Wall time and FLOPs are accumulated per phase into [`CyclePhases`],
//! which Table I and Fig. 9 read out.
//!
//! Execution model (DESIGN.md §10): the GEMM/SYRK work of phases 1, 2 and
//! 4 is *gathered* into kernel-tagged job streams and run through the
//! batched executor [`qfr_linalg::batch::execute_jobs`] — one launch per
//! size class instead of one kernel call per matrix. Phases 2 and 4 run on
//! the ground state's `grid::GridPanels`: phase 2 is its `X_b·P1` stream
//! (with the `∂X_b·P1` jobs on the naive path), phase 4 its
//! `X_bᵀ diag(v1·dv) X_b` stream. [`solve_responses`] runs several
//! perturbations of one ground state (the three field directions of a
//! polarizability) in deterministic lockstep, so jobs gather across them;
//! [`solve_response`] is the single-perturbation wrapper.

use crate::grid::GridPanels;
use crate::scf::{ScfResult, CX};
use qfr_linalg::batch::{execute_jobs, BatchJob};
use qfr_linalg::gemm;
use qfr_linalg::DMatrix;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Strength of the model gradient-kernel term (consumes ∇n(1); kept small
/// so the LDA response dominates).
pub const GRADIENT_KERNEL: f64 = 0.02;

/// Self-consistency cycles per response solve.
const CYCLES: usize = 4;

/// Linear damping of the H(1) update.
const MIXING: f64 = 0.6;

/// Configuration of the response cycle.
#[derive(Debug, Clone, Copy)]
pub struct ResponseConfig {
    /// Grid points per GEMM panel.
    pub batch_size: usize,
    /// Use the symmetry-aware strength reduction of Section V-D.
    pub use_symmetry_reduction: bool,
}

impl Default for ResponseConfig {
    fn default() -> Self {
        Self { batch_size: 512, use_symmetry_reduction: true }
    }
}

/// Per-phase accumulated cost of one or more DFPT cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CyclePhases {
    /// Phase 1 (response density matrix) seconds.
    pub p1_seconds: f64,
    /// Phase 1 FLOPs.
    pub p1_flops: u64,
    /// Phase 2 (grid integration of n(1), ∇n(1)) seconds.
    pub n1_seconds: f64,
    /// Phase 2 FLOPs.
    pub n1_flops: u64,
    /// Phase 3 (Poisson + kernels) seconds.
    pub poisson_seconds: f64,
    /// Phase 3 FLOPs.
    pub poisson_flops: u64,
    /// Phase 4 (response Hamiltonian) seconds.
    pub h1_seconds: f64,
    /// Phase 4 FLOPs.
    pub h1_flops: u64,
}

impl CyclePhases {
    /// Total seconds across phases.
    pub fn total_seconds(&self) -> f64 {
        self.p1_seconds + self.n1_seconds + self.poisson_seconds + self.h1_seconds
    }

    /// Total FLOPs across phases.
    pub fn total_flops(&self) -> u64 {
        self.p1_flops + self.n1_flops + self.poisson_flops + self.h1_flops
    }

    /// Accumulates another measurement.
    pub fn merge(&mut self, o: &CyclePhases) {
        self.p1_seconds += o.p1_seconds;
        self.p1_flops += o.p1_flops;
        self.n1_seconds += o.n1_seconds;
        self.n1_flops += o.n1_flops;
        self.poisson_seconds += o.poisson_seconds;
        self.poisson_flops += o.poisson_flops;
        self.h1_seconds += o.h1_seconds;
        self.h1_flops += o.h1_flops;
    }
}

/// Result of one response solve.
#[derive(Debug, Clone)]
pub struct ResponseResult {
    /// Converged response density matrix.
    pub p1: DMatrix,
    /// Response density on the grid.
    pub n1: Vec<f64>,
    /// Response potential on the grid.
    pub v1: Vec<f64>,
    /// Final response Hamiltonian.
    pub h1: DMatrix,
    /// Cost profile.
    pub phases: CyclePhases,
}

static RESPONSE_CYCLES: qfr_obs::Counter = qfr_obs::Counter::deterministic("dfpt.response.cycles");

/// Measures a closure under an observability span, returning its value plus
/// (seconds, flops). The span name feeds the shared per-phase report and, if
/// tracing is armed, the Chrome trace.
fn measured<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64, u64) {
    let _span = qfr_obs::span(name);
    let scope = qfr_linalg::flops::FlopScope::start();
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    let m = scope.finish();
    (out, dt, m.flops)
}

/// Runs the DFPT response for the field direction `c` (0 = x, 1 = y,
/// 2 = z).
pub fn field_response(scf: &ScfResult, c: usize, cfg: &ResponseConfig) -> ResponseResult {
    let dipole = scf.basis.dipole();
    let h1_ext = dipole[c].scaled(-1.0);
    solve_response(scf, &h1_ext, cfg)
}

/// Runs the DFPT self-consistency loop for an arbitrary bare perturbation
/// `h1_ext` (fixed basis; used by both the field driver and the
/// displacement-cycle workload of `crate::displacement`). Single-task
/// wrapper around [`solve_responses`]; the returned `phases` are the set
/// totals (identical, for one task).
pub fn solve_response(scf: &ScfResult, h1_ext: &DMatrix, cfg: &ResponseConfig) -> ResponseResult {
    let (mut results, phases) = solve_responses(scf, std::slice::from_ref(h1_ext), cfg);
    let mut out = results.pop().expect("one task in, one result out");
    out.phases = phases;
    out
}

/// Per-`ScfResult` precomputation shared by every task on that state: the
/// basis value and gradient panels, the MO coefficients, and the
/// ground-state parts of the phase-3 kernels (the density gradient, the
/// LDA factor and the squared density). `C` is `Arc`-shared like the
/// panels, so phase 1's jobs reference one copy.
struct ScfPanels {
    grid: GridPanels,
    c: Arc<DMatrix>,
    grad_n: [Vec<f64>; 3],
    /// `-(CX/3)·nd^{-2/3}` per point, `nd = max(n, 1e-10)`: the LDA kernel
    /// `f_xc = d v_x / d n` without its `n(1)` factor.
    fxc: Vec<f64>,
    /// `nd·nd` per point: the model gradient kernel's denominator.
    nd2: Vec<f64>,
}

fn build_panels(scf: &ScfResult, batch_size: usize) -> ScfPanels {
    let grid = GridPanels::new(&scf.basis, &scf.grid, batch_size, true);
    // Ground-state density gradient (for the model gradient kernel). The
    // X·P products are shared across the three directions.
    let xps: Vec<DMatrix> = grid.values.iter().map(|x| gemm::matmul(x, &scf.p)).collect();
    let grad_n: [Vec<f64>; 3] = std::array::from_fn(|dir| {
        let mut out = Vec::with_capacity(scf.grid.len());
        for ((x, g), xp) in grid.values.iter().zip(&grid.gradients).zip(&xps) {
            for row in 0..x.rows() {
                let v: f64 = xp.row(row).iter().zip(g[dir].row(row)).map(|(a, b)| a * b).sum();
                out.push(2.0 * v);
            }
        }
        out
    });
    // The ground state does not change across cycles or tasks, so neither
    // do these; each is the left-to-right prefix of phase 3's expression.
    let nd = || scf.density.iter().map(|&d| d.max(1e-10));
    let fxc = nd().map(|nd| -(CX / 3.0) * nd.powf(-2.0 / 3.0)).collect();
    let nd2 = nd().map(|nd| nd * nd).collect();
    ScfPanels { grid, c: Arc::new(scf.c.clone()), grad_n, fxc, nd2 }
}

/// Phase 3's pointwise sum `v(1) = v_H[n(1)] + f_xc·n(1) + GRADIENT_KERNEL ·
/// (∇n·∇n(1)) / nd²` from the Hartree response `v_h1`, with the
/// ground-state factors read from `pan`.
fn response_potential(
    pan: &ScfPanels,
    v_h1: &[f64],
    n1: &[f64],
    grad_n1: &[Vec<f64>; 3],
) -> Vec<f64> {
    (0..n1.len())
        .map(|i| {
            // LDA kernel: f_xc = d v_x / d n = -(1/3) Cx n^{-2/3}.
            let lda = pan.fxc[i] * n1[i];
            // Model gradient kernel: couples ∇n and ∇n(1).
            let grad_term: f64 =
                (0..3).map(|d| pan.grad_n[d][i] * grad_n1[d][i]).sum::<f64>() / pan.nd2[i];
            v_h1[i] + lda + GRADIENT_KERNEL * grad_term
        })
        .collect()
}

/// `Σ_k a[row, k] · b[row, k]`, summed in column order.
fn row_dot(a: &DMatrix, b: &DMatrix, row: usize) -> f64 {
    a.row(row).iter().zip(b.row(row)).map(|(u, v)| u * v).sum()
}

/// Runs the responses of one ground state to several bare perturbations
/// (`h1_exts`, each symmetric) in deterministic lockstep: each four-phase
/// cycle gathers the dense-algebra jobs of *all* tasks into one
/// kernel-tagged stream, executes it batched
/// ([`qfr_linalg::batch::execute_jobs`]), and scatters results back in
/// task/batch index order. The grid panels are built once and shared by
/// every task.
///
/// Determinism and independence: every job is computed over its own
/// operands regardless of batch companions, and scatter-back is indexed,
/// so each task's result is bit-identical whether it is solved alone or
/// in any set.
///
/// Returns the per-task results (their `phases` fields are zero) plus the
/// set-level [`CyclePhases`] totals.
pub fn solve_responses(
    scf: &ScfResult,
    h1_exts: &[DMatrix],
    cfg: &ResponseConfig,
) -> (Vec<ResponseResult>, CyclePhases) {
    let t_count = h1_exts.len();
    if t_count == 0 {
        return (Vec::new(), CyclePhases::default());
    }
    let pan = build_panels(scf, cfg.batch_size);
    let n = scf.basis.len();
    let npts = scf.grid.len();

    let mut phases = CyclePhases::default();
    // Arc-held so each cycle's job stream shares one H1/P1 per task across
    // all of its batches.
    let mut h1s: Vec<Arc<DMatrix>> = h1_exts.iter().map(|h| Arc::new(h.clone())).collect();
    let mut p1s: Vec<Arc<DMatrix>> = (0..t_count).map(|_| Arc::new(DMatrix::zeros(n, n))).collect();
    let mut n1s: Vec<Vec<f64>> = vec![vec![0.0; npts]; t_count];
    let mut v1s: Vec<Vec<f64>> = n1s.clone();

    for _cycle in 0..CYCLES {
        RESPONSE_CYCLES.add(t_count as u64);

        // ---- Phase 1: response density matrices. ------------------------
        // Sum-over-states `P(1) = Σ_{i occ, a virt} occ_i (c_i c_aᵀ +
        // c_a c_iᵀ) H1_ia / (ε_i − ε_a)` in the MO basis. H1 is symmetric,
        // so Cᵀ H1 C is a congruence and P1 = C m Cᵀ a similarity — both
        // triangle-only batched jobs.
        let (new_p1s, dt, fl) = measured("dfpt.p1", || {
            let cong: Vec<BatchJob> =
                h1s.iter().map(|h1| BatchJob::congruence(pan.c.clone(), h1.clone())).collect();
            let h1_mos = execute_jobs(&cong, Default::default());
            let sims: Vec<BatchJob> = h1_mos
                .iter()
                .map(|h1_mo| {
                    let mut m = DMatrix::zeros(n, n);
                    qfr_linalg::flops::add((n * n * 4) as u64);
                    for i in 0..n {
                        if scf.occ[i] <= 0.0 {
                            continue;
                        }
                        for a in 0..n {
                            let gap = scf.eps[i] - scf.eps[a];
                            if scf.occ[a] > 0.0 || gap.abs() < 1e-8 {
                                continue;
                            }
                            let w = scf.occ[i] * h1_mo[(i, a)] / gap;
                            m[(i, a)] = w;
                            m[(a, i)] = w;
                        }
                    }
                    BatchJob::similarity(pan.c.clone(), m)
                })
                .collect();
            execute_jobs(&sims, Default::default())
        });
        p1s = new_p1s.into_iter().map(Arc::new).collect();
        phases.p1_seconds += dt;
        phases.p1_flops += fl;

        // ---- Phase 2: n(1)(r) and ∇n(1)(r) on the grid. -----------------
        // Naive path (Fig. 6(b) before reduction): `∇n1 = rowdot(X P1, G)
        // + rowdot(G P1, X)` — two GEMMs plus two reductions per direction.
        // Reduced path: since `P1 = P1ᵀ` the halves are equal, so `∇n1 =
        // 2·rowdot(X P1, G)` — the GEMM is shared with the n(1) evaluation.
        let naive = !cfg.use_symmetry_reduction;
        let jobs_per_batch = if naive { 4 } else { 1 };
        let jobs_per_task = jobs_per_batch * pan.grid.values.len();
        let ((new_n1s, grads), dt, fl) = measured("dfpt.n1", || {
            let jobs: Vec<BatchJob> =
                p1s.iter().flat_map(|p1| pan.grid.product_jobs(p1, naive)).collect();
            let products = execute_jobs(&jobs, Default::default());
            // Row reductions, one task per rayon item, collected in task order.
            (0..t_count)
                .into_par_iter()
                .map(|t_idx| {
                    let products = &products[t_idx * jobs_per_task..];
                    let mut n1 = Vec::with_capacity(npts);
                    let mut grad: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(npts));
                    for (bi, x) in pan.grid.values.iter().enumerate() {
                        let rows = x.rows();
                        let xp = &products[bi * jobs_per_batch];
                        qfr_linalg::flops::add((2 * rows * x.cols()) as u64);
                        for row in 0..rows {
                            n1.push(row_dot(xp, x, row));
                        }
                        for (dir, gvec) in grad.iter_mut().enumerate() {
                            let g = &pan.grid.gradients[bi][dir];
                            if cfg.use_symmetry_reduction {
                                qfr_linalg::flops::add((2 * rows * x.cols()) as u64);
                                gvec.extend((0..rows).map(|row| 2.0 * row_dot(xp, g, row)));
                            } else {
                                let gp = &products[bi * jobs_per_batch + 1 + dir];
                                qfr_linalg::flops::add((4 * rows * x.cols()) as u64);
                                gvec.extend(
                                    (0..rows).map(|row| row_dot(xp, g, row) + row_dot(gp, x, row)),
                                );
                            }
                        }
                    }
                    (n1, grad)
                })
                .collect::<(Vec<_>, Vec<_>)>()
        });
        n1s = new_n1s;
        phases.n1_seconds += dt;
        phases.n1_flops += fl;

        // ---- Phase 3: Poisson + kernels. --------------------------------
        // Tasks are independent; FLOPs land in the process-global counter
        // the surrounding FlopScope reads, so parallelism keeps the phase
        // totals (and all values) deterministic. The kernels' ground-state
        // factors come from `pan`, computed once per ground state, not
        // once per task and cycle; the booked FLOPs are the pointwise
        // expression's, as before.
        let (new_v1s, dt, fl) = measured("dfpt.v1", || {
            (0..t_count)
                .into_par_iter()
                .map(|t_idx| {
                    let (n1, grad_n1) = (&n1s[t_idx], &grads[t_idx]);
                    let v_h1 = scf.grid.solve_poisson(n1);
                    qfr_linalg::flops::add(8 * n1.len() as u64);
                    response_potential(&pan, &v_h1, n1, grad_n1)
                })
                .collect::<Vec<_>>()
        });
        v1s = new_v1s;
        phases.poisson_seconds += dt;
        phases.poisson_flops += fl;

        // ---- Phase 4: response Hamiltonians. -----------------------------
        // `Σ_b X_bᵀ diag(v1·dv) X_b` per task: one triangle job per batch
        // and task, in one stream, each task's outputs summed in batch order.
        let (h1_grids, dt, fl) = measured("dfpt.h1", || pan.grid.potentials(&v1s));
        phases.h1_seconds += dt;
        phases.h1_flops += fl;

        // Damped update of each task's total perturbation.
        for ((h1, h1_ext), h1_grid) in h1s.iter_mut().zip(h1_exts).zip(&h1_grids) {
            let target = h1_ext + h1_grid;
            qfr_linalg::flops::add((3 * n * n) as u64);
            let next = DMatrix::from_fn(n, n, |i, j| {
                (1.0 - MIXING) * h1[(i, j)] + MIXING * target[(i, j)]
            });
            *h1 = Arc::new(next);
        }
    }

    // The cycle's jobs are gone, so the Arcs are unique and unwrap without
    // copying.
    let unwrap = |m: Arc<DMatrix>| Arc::try_unwrap(m).unwrap_or_else(|shared| (*shared).clone());
    let results = p1s
        .into_iter()
        .zip(n1s)
        .zip(v1s)
        .zip(h1s)
        .map(|(((p1, n1), v1), h1)| ResponseResult {
            p1: unwrap(p1),
            n1,
            v1,
            h1: unwrap(h1),
            phases: CyclePhases::default(),
        })
        .collect();
    (results, phases)
}

/// Static polarizability tensor from three field responses:
/// `α_{cc'} = tr(P1^{(c)} D_{c'})` (symmetrized; the sign follows from
/// `H1_ext = -D_c`). For planar fragments in the s-only basis the
/// out-of-plane response vanishes, so α is positive *semi*-definite.
pub fn polarizability(scf: &ScfResult, cfg: &ResponseConfig) -> (DMatrix, CyclePhases) {
    polarizability_with(scf, &scf.basis.dipole(), cfg)
}

/// [`polarizability`] from the dipole matrices `dipole` of `scf.basis`,
/// for a caller that needs them for more than this.
pub(crate) fn polarizability_with(
    scf: &ScfResult,
    dipole: &[DMatrix; 3],
    cfg: &ResponseConfig,
) -> (DMatrix, CyclePhases) {
    let h1_exts: Vec<DMatrix> = dipole.iter().map(|d| d.scaled(-1.0)).collect();
    let (results, phases) = solve_responses(scf, &h1_exts, cfg);
    let mut alpha = DMatrix::zeros(3, 3);
    for (c, result) in results.iter().enumerate() {
        for (cp, d) in dipole.iter().enumerate() {
            alpha[(c, cp)] = crate::scf::trace_product(&result.p1, d);
        }
    }
    alpha.symmetrize_mut();
    (alpha, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::ScfSolver;
    use qfr_fragment::{FragmentJob, FragmentStructure, JobKind};
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

    fn fast_scf() -> ScfSolver {
        ScfSolver {
            config: crate::scf::ScfConfig {
                max_grid_dim: 16,
                grid_spacing: 0.5,
                ..Default::default()
            },
        }
    }

    #[test]
    fn response_density_integrates_to_zero() {
        // A field rearranges charge but conserves it: ∫ n1 = 0.
        let scf = fast_scf().solve(&water_fragment());
        let resp = field_response(&scf, 0, &ResponseConfig::default());
        // The algebraic identity tr(P1 S) = 0 is exact; the grid integral
        // carries quadrature error, so the tolerance is looser.
        let total: f64 = resp.n1.iter().sum::<f64>() * scf.grid.dv;
        assert!(total.abs() < 2e-2, "∫n1 = {total}");
    }

    #[test]
    fn p1_is_symmetric_and_traceless_in_s() {
        let scf = fast_scf().solve(&water_fragment());
        let resp = field_response(&scf, 1, &ResponseConfig::default());
        assert!(resp.p1.is_symmetric(1e-10));
        // tr(P1 S) = 0: no change in electron count.
        let tr = crate::scf::trace_product(&resp.p1, &scf.s);
        assert!(tr.abs() < 1e-8, "tr(P1 S) = {tr}");
    }

    #[test]
    fn polarizability_positive_definite() {
        let scf = fast_scf().solve(&water_fragment());
        let (alpha, phases) = polarizability(&scf, &ResponseConfig::default());
        assert!(alpha.is_symmetric(1e-10));
        let eig = qfr_linalg::eigen::symmetric_eigen(&alpha);
        assert!(
            eig.eigenvalues.iter().all(|&w| w > -1e-10),
            "alpha must be PSD: {:?}",
            eig.eigenvalues
        );
        // At least the two in-plane directions polarize.
        assert!(
            eig.eigenvalues.iter().filter(|&&w| w > 1e-6).count() >= 2,
            "alpha spectrum: {:?}",
            eig.eigenvalues
        );
        assert!(phases.total_flops() > 0);
        assert!(phases.n1_flops > 0 && phases.h1_flops > 0);
    }

    #[test]
    fn reduction_paths_agree() {
        let scf = fast_scf().solve(&water_fragment());
        let naive = field_response(
            &scf,
            2,
            &ResponseConfig { use_symmetry_reduction: false, ..Default::default() },
        );
        let fast = field_response(
            &scf,
            2,
            &ResponseConfig { use_symmetry_reduction: true, ..Default::default() },
        );
        assert!(
            naive.h1.max_abs_diff(&fast.h1) < 1e-10,
            "strength reduction changed the physics: {}",
            naive.h1.max_abs_diff(&fast.h1)
        );
        // The FLOP saving is pinned in tests/flop_savings.rs, away from
        // sibling tests that run kernels while the FLOP delta is read.
    }

    #[test]
    fn response_deterministic() {
        let scf = fast_scf().solve(&water_fragment());
        let a = field_response(&scf, 0, &ResponseConfig::default());
        let b = field_response(&scf, 0, &ResponseConfig::default());
        assert_eq!(a.h1.max_abs_diff(&b.h1), 0.0);
        assert_eq!(a.n1, b.n1);
    }

    #[test]
    fn hoisted_kernel_matches_the_pointwise_expression_bit_for_bit() {
        // One cycle's v(1): the first n(1) of a field response and its
        // Hartree potential, with a ∇n(1) stand-in that varies per point.
        let scf = fast_scf().solve(&water_fragment());
        let pan = build_panels(&scf, ResponseConfig::default().batch_size);
        let n1 = field_response(&scf, 0, &ResponseConfig::default()).n1;
        let grad_n1: [Vec<f64>; 3] =
            std::array::from_fn(|d| n1.iter().map(|x| x * (d as f64 - 0.7)).collect());
        let v_h1 = scf.grid.solve_poisson(&n1);
        let hoisted = response_potential(&pan, &v_h1, &n1, &grad_n1);
        assert_eq!(hoisted.len(), n1.len());
        for (i, v) in hoisted.iter().enumerate() {
            let nd = scf.density[i].max(1e-10);
            let lda = -(CX / 3.0) * nd.powf(-2.0 / 3.0) * n1[i];
            let grad_term: f64 =
                (0..3).map(|d| pan.grad_n[d][i] * grad_n1[d][i]).sum::<f64>() / (nd * nd);
            let pointwise = v_h1[i] + lda + GRADIENT_KERNEL * grad_term;
            assert_eq!(v.to_bits(), pointwise.to_bits(), "point {i}");
        }
    }

    #[test]
    fn phases_accumulate() {
        let mut a = CyclePhases { p1_seconds: 1.0, p1_flops: 10, ..Default::default() };
        let b = CyclePhases { p1_seconds: 0.5, p1_flops: 5, n1_flops: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.p1_seconds, 1.5);
        assert_eq!(a.p1_flops, 15);
        assert_eq!(a.n1_flops, 7);
        assert_eq!(a.total_flops(), 22);
    }
}
