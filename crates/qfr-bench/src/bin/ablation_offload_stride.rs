//! Ablation: batching stride of the elastic offloading scheme.
//!
//! The paper pads GEMM operands to multiples of 32 before batching. This
//! study sweeps the stride over {1, 8, 32, 128} on a realistic mixed GEMM
//! stream (a DFPT n(1)-phase job list), showing the trade-off: small
//! strides leave many size classes (many launches), large strides burn
//! FLOPs on padding. Both real-CPU timing and the two machine models are
//! reported.

use qfr_bench::{header, row, scaled, write_record};
use qfr_dfpt::displacement::n1_phase_gemm_jobs;
use qfr_dfpt::scf::{ScfConfig, ScfSolver};
use qfr_fragment::{Decomposition, DecompositionParams, JobKind};
use qfr_geom::ProteinBuilder;
use qfr_linalg::batch::{execute_jobs, OffloadMode};
use qfr_linalg::DMatrix;
use qfr_sched::machine::MachineModel;
use qfr_sched::offload::{offload_comparison, ModeledAccelerator};
use std::time::Instant;

fn main() {
    // A mixed-size job stream: n(1) panels from three fragment sizes.
    let mut jobs = Vec::new();
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
        let scf = ScfSolver {
            config: ScfConfig { max_grid_dim: 16, grid_spacing: 0.5, ..Default::default() },
        }
        .solve(&frag);
        let p1 = DMatrix::identity(scf.basis.len());
        jobs.extend(n1_phase_gemm_jobs(&scf, &p1, 48));
    }
    println!("job stream: {} scattered GEMMs", jobs.len());

    let orise = ModeledAccelerator::from_machine(&MachineModel::orise());
    let sunway = ModeledAccelerator::from_machine(&MachineModel::sunway());

    header("Offload stride ablation");
    row(
        &["stride", "launches", "padding", "ORISE speedup", "Sunway speedup", "CPU batched(s)"],
        &[8, 10, 10, 14, 14, 14],
    );
    let mut records = Vec::new();
    for stride in [1usize, 8, 32, 128] {
        let ro = offload_comparison(&jobs, &orise, stride);
        let rs = offload_comparison(&jobs, &sunway, stride);
        let t = Instant::now();
        let _out = execute_jobs(&jobs, OffloadMode::Batched { stride });
        let cpu_s = t.elapsed().as_secs_f64();
        row(
            &[
                &stride.to_string(),
                &ro.launches.to_string(),
                &format!("{:.0}%", 100.0 * ro.padding_overhead),
                &format!("{:.1}x", ro.speedup()),
                &format!("{:.1}x", rs.speedup()),
                &format!("{cpu_s:.4}"),
            ],
            &[8, 10, 10, 14, 14, 14],
        );
        records.push(format!(
            "{{\"stride\":{stride},\"launches\":{},\"padding\":{},\"orise_speedup\":{},\"sunway_speedup\":{}}}",
            ro.launches,
            ro.padding_overhead,
            ro.speedup(),
            rs.speedup()
        ));
    }
    println!(
        "\nReading: the launch-count/padding knee depends on the matrix-size\n\
         mixture. Our model basis keeps panels small, so stride 8 already\n\
         folds most classes; the paper's NAO matrices are ~10x larger, which\n\
         is why their knee sits at 32. Stride 128 is past the knee for both:\n\
         padding dominates."
    );
    write_record("ablation_offload_stride", &format!("[{}]", records.join(",")));
}
