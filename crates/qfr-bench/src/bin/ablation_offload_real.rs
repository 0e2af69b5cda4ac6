//! Ablation: elastic offloading executed for real.
//!
//! Earlier studies priced the batched offload with machine *models*
//! (`ablation_offload_stride`, the Fig. 9 bars). This one runs it: a
//! kernel-tagged job stream gathered from real DFPT response states is
//! executed twice through `qfr_linalg::batch::execute_jobs` — scattered
//! (a serial loop over the counted kernels) and batched (one ordered
//! parallel map over the same kernel bodies, the mode every DFPT hot loop
//! runs) — and the *measured* wall times are reported next to the modeled
//! ORISE/Sunway bars.

use qfr_bench::{fast_mode, header, row, scaled, write_record};
use qfr_dfpt::displacement::n1_phase_gemm_jobs;
use qfr_dfpt::scf::{ScfConfig, ScfResult, ScfSolver};
use qfr_fragment::{Decomposition, DecompositionParams, JobKind};
use qfr_geom::ProteinBuilder;
use qfr_linalg::batch::{execute_jobs, BatchJob, OffloadMode};
use qfr_sched::machine::MachineModel;
use qfr_sched::offload::{offload_comparison, ModeledAccelerator};
use std::time::Instant;

/// Gathers the kernel-tagged job stream one response cycle would issue
/// for this SCF state: phase-1 congruence + similarity, phase-2 panel
/// GEMMs, phase-4 symmetric products.
fn response_cycle_jobs(scf: &ScfResult, batch_size: usize) -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    // Shared operands, as on the production path: one C/P per state, one X
    // per batch, referenced by every job that reads them.
    let c = std::sync::Arc::new(scf.c.clone());
    let p = std::sync::Arc::new(scf.p.clone());
    let dipole = scf.basis.dipole();
    for d in &dipole {
        jobs.push(BatchJob::congruence(c.clone(), d.scaled(-1.0)));
        jobs.push(BatchJob::similarity(c.clone(), d.scaled(-1.0)));
    }
    for b in scf.grid.batches(batch_size) {
        let x = std::sync::Arc::new(scf.basis.evaluate(&scf.grid.points[b.clone()]));
        jobs.push(BatchJob::gemm(x.clone(), p.clone()));
        let mut xw = (*x).clone();
        for (row, gi) in b.enumerate() {
            let w = scf.density[gi] * scf.grid.dv;
            for v in xw.row_mut(row) {
                *v *= w;
            }
        }
        jobs.push(BatchJob::symmetric_product(xw, x));
    }
    jobs
}

fn main() {
    // Real SCF states at three fragment sizes (one in fast mode).
    let mut scfs = Vec::new();
    for n_res in scaled(vec![3usize, 5, 7], vec![3usize]) {
        let sys = ProteinBuilder::new(n_res).seed(50 + n_res as u64).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let job = d
            .jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::CappedFragment { .. }))
            .max_by_key(|j| j.size())
            .expect("fragment");
        let frag = job.structure(&sys);
        scfs.push(
            ScfSolver {
                config: ScfConfig { max_grid_dim: 16, grid_spacing: 0.5, ..Default::default() },
            }
            .solve(&frag),
        );
    }
    let jobs: Vec<BatchJob> = scfs.iter().flat_map(|s| response_cycle_jobs(s, 48)).collect();
    println!("job stream: {} kernel-tagged jobs from {} SCF states", jobs.len(), scfs.len());

    // Measured: min-of-reps wall time of the real executor, with the two
    // modes interleaved rep-by-rep so machine drift during the run cancels
    // out of the comparison instead of biasing one block.
    let reps = scaled(5, 2);
    let (mut scattered_s, mut batched_s) = (f64::INFINITY, f64::INFINITY);
    let execute = |mode| {
        let t = Instant::now();
        let out = execute_jobs(&jobs, mode);
        (out, t.elapsed().as_secs_f64())
    };
    for _ in 0..reps {
        scattered_s = scattered_s.min(execute(OffloadMode::Scattered).1);
        batched_s = batched_s.min(execute(OffloadMode::Batched { stride: 32 }).1);
    }
    let (out_s, _) = execute(OffloadMode::Scattered);
    let (out_b, _) = execute(OffloadMode::Batched { stride: 32 });
    let identical = out_s.iter().zip(&out_b).all(|(a, b)| a.as_slice() == b.as_slice());
    assert!(identical, "batched execution must be bit-identical to scattered");

    // Modeled Fig. 9 bars on the matching plain-GEMM stream, for context.
    let gemm_jobs: Vec<_> = scfs
        .iter()
        .flat_map(|s| {
            let p1 = qfr_linalg::DMatrix::identity(s.basis.len());
            n1_phase_gemm_jobs(s, &p1, 48)
        })
        .collect();
    let orise = offload_comparison(
        &gemm_jobs,
        &ModeledAccelerator::from_machine(&MachineModel::orise()),
        32,
    );
    let sunway = offload_comparison(
        &gemm_jobs,
        &ModeledAccelerator::from_machine(&MachineModel::sunway()),
        32,
    );

    header("Elastic offloading: measured vs modeled (stride 32)");
    row(&["path", "scattered(s)", "batched(s)", "speedup"], &[16, 14, 14, 10]);
    row(
        &[
            "CPU measured",
            &format!("{scattered_s:.4}"),
            &format!("{batched_s:.4}"),
            &format!("{:.2}x", scattered_s / batched_s),
        ],
        &[16, 14, 14, 10],
    );
    row(&["ORISE model", "-", "-", &format!("{:.2}x", orise.speedup())], &[16, 14, 14, 10]);
    row(&["Sunway model", "-", "-", &format!("{:.2}x", sunway.speedup())], &[16, 14, 14, 10]);

    if !fast_mode() && batched_s >= scattered_s {
        println!("WARNING: batched path not faster on this machine/stream");
    }
    println!(
        "\nReading: both modes run the same kernel bodies, so the measured\n\
         speedup is the parallel map over the serial loop — what spreading a\n\
         gathered stream's independent jobs over the cores buys; the modeled\n\
         bars price the same batching on the paper's accelerators, where\n\
         kernel-launch overhead is far higher — hence the larger modeled gain."
    );
    write_record(
        "ablation_offload_real",
        &format!(
            "{{\"jobs\":{},\"cpu_scattered_s\":{scattered_s},\"cpu_batched_s\":{batched_s},\
             \"cpu_speedup\":{},\"orise_speedup\":{},\"sunway_speedup\":{}}}",
            jobs.len(),
            scattered_s / batched_s,
            orise.speedup(),
            sunway.speedup()
        ),
    );
}
