//! `sched.offload.executed_jobs` is a process global: its exact-delta
//! check is the only test in this binary, so nothing else can add to it.

use qfr_linalg::batch::{BatchJob, OffloadMode};
use qfr_linalg::DMatrix;
use qfr_sched::CpuAccelerator;

#[test]
fn executed_jobs_counter_advances_by_jobs_dispatched() {
    let ones = |m, n| DMatrix::from_fn(m, n, |_, _| 1.0);
    let jobs = vec![
        BatchJob::gemm(ones(5, 7), ones(7, 9)),
        BatchJob::symmetric_product(ones(12, 6), ones(12, 6)),
        BatchJob::similarity(ones(6, 9), ones(9, 9)),
    ];
    let executed = || qfr_obs::counter::value_of("sched.offload.executed_jobs").unwrap_or(0);
    let before = executed();
    let _ = CpuAccelerator.execute_jobs(&jobs, OffloadMode::Scattered);
    let _ = CpuAccelerator.execute_jobs(&jobs, OffloadMode::Batched { stride: 32 });
    assert_eq!(executed() - before, 2 * jobs.len() as u64);
}
