//! Pins the real offload execution path: batched size-class dispatch must
//! reproduce the scattered per-job path bit-for-bit on the full response
//! pipeline, and the offload counters must actually advance.
//!
//! Lives in its own integration-test binary because it reads
//! process-global deterministic counters; sharing a process with other
//! counter-bumping tests would race the deltas.

use qfr_dfpt::response::{polarizability, solve_response, solve_responses, ResponseTask};
use qfr_dfpt::{ResponseConfig, ScfConfig, ScfResult, ScfSolver};
use qfr_fragment::{FragmentJob, FragmentStructure, JobKind};
use qfr_geom::WaterBoxBuilder;
use qfr_linalg::batch::OffloadMode;
use qfr_linalg::DMatrix;

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

fn counter(name: &str) -> u64 {
    qfr_obs::counter::value_of(name).unwrap_or(0)
}

/// What both offload modes must book by the same amount: the executed
/// FLOPs, triangle-kernel calls, the symmetry saving and the dispatched job
/// count. (`linalg.batch.*` exist only when batched, and
/// `linalg.gemm.calls` counts reference-kernel invocations, which the
/// packed launch replaces — neither is mode-invariant.)
const MODE_INVARIANT_COUNTERS: [&str; 4] = [
    "linalg.flops",
    "linalg.syrk.calls",
    "linalg.gemm.flops_saved_symmetry",
    "sched.offload.executed_jobs",
];

/// SCF ground state + polarizability under one mode, with the deltas of
/// the mode-invariant counters over the whole run.
fn ground_state_and_alpha(
    frag: &FragmentStructure,
    offload: OffloadMode,
) -> (ScfResult, DMatrix, [u64; 4]) {
    let before = MODE_INVARIANT_COUNTERS.map(counter);
    let config = ScfConfig { max_grid_dim: 16, grid_spacing: 0.5, offload, ..Default::default() };
    let scf = ScfSolver { config }.solve(frag);
    let response = ResponseConfig { offload, ..Default::default() };
    let (alpha, phases) = polarizability(&scf, &response);
    assert!(phases.total_flops() > 0);
    let mut deltas = MODE_INVARIANT_COUNTERS.map(counter);
    for (d, b) in deltas.iter_mut().zip(before) {
        *d -= b;
    }
    (scf, alpha, deltas)
}

#[test]
fn batched_offload_is_bit_identical_and_counted() {
    let frag = water_fragment();

    // --- SCF + response: both modes agree bitwise and book the same
    // deltas of the mode-invariant counters. -----------------------------
    let (scf_scattered, alpha_s, deltas_s) = ground_state_and_alpha(&frag, OffloadMode::Scattered);
    let before_syrk = counter("linalg.batch.syrk_jobs");
    let before_bytes = counter("linalg.batch.packed_bytes");
    let (scf_batched, alpha_b, deltas_b) = ground_state_and_alpha(&frag, OffloadMode::default());
    assert_eq!(scf_scattered.p.as_slice(), scf_batched.p.as_slice(), "SCF density matrix");
    assert_eq!(scf_scattered.fock.as_slice(), scf_batched.fock.as_slice(), "Fock matrix");
    assert_eq!(scf_scattered.energy, scf_batched.energy, "SCF energy");
    assert_eq!(alpha_s.as_slice(), alpha_b.as_slice(), "polarizability must be bit-identical");
    assert_eq!(deltas_s, deltas_b, "{MODE_INVARIANT_COUNTERS:?}");
    assert!(deltas_b.iter().all(|&d| d > 0), "every invariant counter must advance");
    assert!(
        counter("linalg.batch.syrk_jobs") > before_syrk,
        "response triangle jobs must be counted"
    );
    assert!(
        counter("linalg.batch.packed_bytes") > before_bytes,
        "packed staging bytes must be counted"
    );

    let batched_cfg = ResponseConfig::default();
    // --- Set solve: a task's result is independent of its companions. ---
    let dipole = scf_batched.basis.dipole();
    let tasks: Vec<ResponseTask<'_>> = (0..3)
        .map(|c| ResponseTask { scf: &scf_batched, h1_ext: dipole[c].scaled(-1.0) })
        .collect();
    let (set_results, _) = solve_responses(&tasks, &batched_cfg);
    for (c, result) in set_results.iter().enumerate() {
        let solo = solve_response(&scf_batched, &tasks[c].h1_ext, &batched_cfg);
        assert_eq!(
            result.p1.as_slice(),
            solo.p1.as_slice(),
            "task {c}: set result must equal the solo solve"
        );
        assert_eq!(result.h1.as_slice(), solo.h1.as_slice());
        assert_eq!(result.n1, solo.n1);
    }

    // --- Determinism: a repeat run reproduces every bit. -----------------
    let (alpha_b2, _) = polarizability(&scf_batched, &batched_cfg);
    assert_eq!(alpha_b.as_slice(), alpha_b2.as_slice());
}
