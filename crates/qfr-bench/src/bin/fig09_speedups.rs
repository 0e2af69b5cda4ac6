//! Fig. 9: step-by-step speedups of symmetry-aware strength reduction
//! (Section V-D) then elastic workload offloading (Section V-C).
//!
//! Paper results, per-fragment DFPT cycle across 9–68-atom fragments:
//!
//! - strength reduction alone: 3.0–4.4x on ORISE (avg 3.7x), up to 6.0x on
//!   Sunway (avg 3.7x);
//! - plus elastic offloading: 6.3–11.6x on ORISE (avg 8.2x), up to 16.2x on
//!   Sunway (avg 11.2x); GEMMs batched with stride 32.
//!
//! Here the DFPT mini-engine runs real displacement cycles on real
//! fragments; the naive-vs-reduced comparison is *measured* (identical
//! outputs, FLOP-verified), while the offloading stage prices the cycle's
//! scattered GEMM stream against the modeled ORISE/Sunway accelerators
//! (DESIGN.md substitution: no GPUs in this environment).

use qfr_bench::{arg_value, header, row, scaled, write_record};
use qfr_dfpt::displacement::{displacement_cycle, n1_phase_gemm_jobs, DisplacementConfig};
use qfr_dfpt::response::ResponseConfig;
use qfr_dfpt::scf::{ScfConfig, ScfSolver};
use qfr_fragment::{Decomposition, DecompositionParams, JobKind};
use qfr_geom::{ProteinBuilder, WaterBoxBuilder};
use qfr_sched::machine::MachineModel;
use qfr_sched::offload::ModeledAccelerator;

fn main() {
    let grid_dim: usize = arg_value("--grid").and_then(|v| v.parse().ok()).unwrap_or(16);
    let batch: usize = arg_value("--batch").and_then(|v| v.parse().ok()).unwrap_or(64);

    // Fragments spanning the paper's size range: a water dimer (6), then
    // capped protein fragments of growing size.
    let mut fragments = Vec::new();
    {
        let sys = WaterBoxBuilder::new(2).seed(1).spacing(2.9).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let job = d
            .jobs
            .iter()
            .find(|j| matches!(j.kind, JobKind::WaterWaterDimer { .. }))
            .expect("dimer");
        fragments.push(("water dimer".to_string(), job.structure(&sys)));
    }
    for n_res in scaled(vec![3usize, 5, 7], vec![3usize]) {
        let sys = ProteinBuilder::new(n_res).seed(n_res as u64).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let job = d
            .jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::CappedFragment { .. }))
            .max_by_key(|j| j.size())
            .expect("fragment");
        fragments.push((format!("{}-atom fragment", job.size()), job.structure(&sys)));
    }

    let orise = ModeledAccelerator::from_machine(&MachineModel::orise());
    let sunway = ModeledAccelerator::from_machine(&MachineModel::sunway());

    header("Fig. 9 — per-fragment DFPT cycle speedups");
    row(
        &["fragment", "atoms", "BLAS-opt", "+offload(ORISE)", "+offload(Sunway)"],
        &[18, 6, 10, 16, 16],
    );

    let mut blas_speedups = Vec::new();
    let mut orise_speedups = Vec::new();
    let mut sunway_speedups = Vec::new();
    let mut records = Vec::new();

    for (label, frag) in &fragments {
        let scf = ScfSolver {
            config: ScfConfig { max_grid_dim: grid_dim, grid_spacing: 0.45, ..Default::default() },
        }
        .solve(frag);

        let mut cfg = DisplacementConfig::new(0, 0);
        cfg.response = ResponseConfig { batch_size: batch, ..Default::default() };

        // --- naive path (no strength reduction) ---
        cfg.response.use_symmetry_reduction = false;
        let (resp_naive, prof_naive) = displacement_cycle(&scf, frag, &cfg);
        // --- reduced path ---
        cfg.response.use_symmetry_reduction = true;
        let (resp_fast, prof_fast) = displacement_cycle(&scf, frag, &cfg);
        // Roundoff scales with |h1|, which reaches 1e6 on the larger
        // fragments, so the bound is relative: the two paths differ by at
        // most 1.3e-12·max|h1| (56 atoms); dropping the reduced path's
        // factor 2 in ∇n(1) moves the water dimer by 7e-3·max|h1|.
        let diff = resp_naive.h1.max_abs_diff(&resp_fast.h1);
        let scale = resp_naive.h1.max_abs();
        assert!(
            diff <= 1e-10 * scale,
            "optimization changed the physics: max|dh1| = {diff:e}, max|h1| = {scale:e}"
        );
        // FLOP-based speedup of the GEMM-bearing work (wall times at this
        // scale are noise-dominated; FLOPs are exact).
        let gemm_naive =
            prof_naive.phases.n1_flops + prof_naive.phases.h1_flops + prof_naive.pulay_flops;
        let gemm_fast =
            prof_fast.phases.n1_flops + prof_fast.phases.h1_flops + prof_fast.pulay_flops;
        let blas_speedup = gemm_naive as f64 / gemm_fast as f64;

        // --- elastic offloading of the reduced cycle's GEMM stream ---
        // Offload gain = scattered-host time vs batched-accelerator time
        // for the cycle's real GEMM job stream (stride 32, as in the
        // paper).
        let jobs = n1_phase_gemm_jobs(&scf, &resp_fast.p1, batch);
        let host_seconds = |j: &qfr_linalg::batch::BatchJob| j.flops() as f64 / 30e9; // ~30 GFLOPS host core
        let scattered_host: f64 = jobs.iter().map(host_seconds).sum::<f64>().max(1e-12);
        let gain_orise = scattered_host / orise.batched_seconds(&jobs, 32).max(1e-12);
        let gain_sunway = scattered_host / sunway.batched_seconds(&jobs, 32).max(1e-12);
        // Amdahl combination with the paper's measured GEMM time share
        // (Section IV-B: 85% of the Hamiltonian phase; ~93% across the
        // whole cycle once the density phase is included).
        const GEMM_TIME_SHARE: f64 = 0.93;
        let combined = |gain: f64| {
            let t_opt = (1.0 - GEMM_TIME_SHARE) + GEMM_TIME_SHARE / blas_speedup / gain.max(1e-12);
            1.0 / t_opt
        };
        let orise_combined = combined(gain_orise);
        let sunway_combined = combined(gain_sunway);

        blas_speedups.push(blas_speedup);
        orise_speedups.push(orise_combined);
        sunway_speedups.push(sunway_combined);
        row(
            &[
                label,
                &frag.n_atoms().to_string(),
                &format!("{blas_speedup:.1}x"),
                &format!("{orise_combined:.1}x"),
                &format!("{sunway_combined:.1}x"),
            ],
            &[18, 6, 10, 16, 16],
        );
        records.push(format!(
            "{{\"fragment\":\"{label}\",\"atoms\":{},\"blas_speedup\":{blas_speedup},\"orise\":{orise_combined},\"sunway\":{sunway_combined}}}",
            frag.n_atoms()
        ));
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    header("Averages vs paper");
    println!(
        "BLAS-opt speedup   : avg {:.1}x   (paper ORISE 3.7x avg, 3.0-4.4x)",
        avg(&blas_speedups)
    );
    println!("+offload on ORISE  : avg {:.1}x   (paper 8.2x avg, 6.3-11.6x)", avg(&orise_speedups));
    println!(
        "+offload on Sunway : avg {:.1}x   (paper 11.2x avg, up to 16.2x)",
        avg(&sunway_speedups)
    );
    write_record("fig09_speedups", &format!("[{}]", records.join(",")));
}
