//! Elastic workload offloading (Section V-C, Fig. 5).
//!
//! The premise: each DFPT GEMM is far too small to offload alone (the paper
//! measures ~0.01 CPU-seconds per call, dwarfed by launch overhead), but
//! *batched* by stride-32 size class the aggregate becomes profitable.
//! This module prices that claim; the real execution is
//! `qfr_linalg::batch::execute_jobs`, which the DFPT hot loops call on
//! every gathered stream (DESIGN.md §10). Both read one job format,
//! `qfr_linalg::batch`'s [`BatchJob`] stream grouped by [`BatchPlan`]:
//!
//! - [`ModeledAccelerator`] prices a stream against an accelerator cost
//!   model (launch overhead + padded FLOPs/rate + transfer
//!   bytes/bandwidth) built from a [`crate::machine::MachineModel`] — the
//!   substitution for the inaccessible GPUs (DESIGN.md);
//! - [`offload_comparison`] produces the scattered-vs-batched report behind
//!   the Fig. 9 elastic-offloading bars and the stride ablation.

use crate::machine::MachineModel;
use qfr_linalg::batch::{BatchJob, BatchPlan};

/// Modeled host↔device traffic (operand + result bytes priced by the
/// accelerator cost model). Whole bytes, so the counter stays integral.
static OFFLOAD_BYTES_MOVED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("sched.offload.bytes_moved");

/// Report of one scattered-vs-batched comparison.
#[derive(Debug, Clone, Copy)]
pub struct OffloadReport {
    /// Scattered execution cost (seconds; per-job launches).
    pub scattered_seconds: f64,
    /// Batched execution cost (seconds; one launch per size class).
    pub batched_seconds: f64,
    /// Number of jobs.
    pub jobs: usize,
    /// Number of batched launches (size classes).
    pub launches: usize,
    /// Padding FLOP overhead fraction introduced by the stride.
    pub padding_overhead: f64,
}

impl OffloadReport {
    /// Speedup of batching over scattered offloading.
    pub fn speedup(&self) -> f64 {
        if self.batched_seconds > 0.0 {
            self.scattered_seconds / self.batched_seconds
        } else {
            0.0
        }
    }
}

/// Accelerator cost model: `launches · overhead + flops / rate +
/// bytes / bandwidth`, with the achieved rate degraded for small matrices
/// (low computational strength cannot saturate the device).
#[derive(Debug, Clone, Copy)]
pub struct ModeledAccelerator {
    /// Per-launch overhead (s).
    pub launch_overhead_s: f64,
    /// Peak FP64 TFLOPS.
    pub peak_tflops: f64,
    /// Host↔device bandwidth (GB/s).
    pub transfer_gbs: f64,
    /// Per-transfer setup latency (s) — the PCIe DMA setup cost the paper's
    /// *aggregated data transfer* optimization amortizes on ORISE.
    pub transfer_latency_s: f64,
    /// Aggregate all of a launch's operand blocks into one transfer
    /// (Section V-F, ORISE-only optimization).
    pub aggregated_transfer: bool,
    /// Overlap computation with data movement via double buffering + DMA
    /// (Section V-F, Sunway): transfer time hides behind compute,
    /// `t = max(compute, transfer)` instead of the sum.
    pub async_overlap: bool,
    /// Matrix dimension at which half the peak rate is achieved (the
    /// strength roofline knee).
    pub half_rate_dim: f64,
}

impl ModeledAccelerator {
    /// Builds the model from a machine description. The roofline knee is
    /// per-machine: Table I shows ORISE GPUs reaching ~54% of peak on this
    /// workload while Sunway's 384-core accelerators reach only ~30%, i.e.
    /// the same GEMM panels sit much further below Sunway's saturation
    /// point.
    pub fn from_machine(m: &MachineModel) -> Self {
        let sunway = m.name == "Sunway";
        Self {
            launch_overhead_s: m.launch_overhead_s,
            peak_tflops: m.accel_peak_tflops,
            transfer_gbs: m.transfer_gbs,
            transfer_latency_s: if sunway { 0.5e-6 } else { 8e-6 },
            // Section V-F: aggregated PCIe transfers on ORISE; on Sunway the
            // accelerator shares the host address space, and asynchronous
            // DMA double-buffering overlaps what movement remains.
            aggregated_transfer: !sunway,
            async_overlap: sunway,
            half_rate_dim: if sunway { 320.0 } else { 96.0 },
        }
    }

    /// Combines compute and transfer according to the async-overlap flag.
    fn combine(&self, compute: f64, transfer: f64) -> f64 {
        if self.async_overlap {
            compute.max(transfer)
        } else {
            compute + transfer
        }
    }

    /// Achieved rate for a characteristic matrix dimension `d`
    /// (saturating roofline: `peak · d / (d + half_rate_dim)`).
    pub fn achieved_tflops(&self, dim: f64) -> f64 {
        self.peak_tflops * dim / (dim + self.half_rate_dim)
    }

    fn job_bytes(job: &BatchJob) -> f64 {
        let (m, n, k) = job.dims();
        8.0 * (m * k + k * n + m * n) as f64
    }

    /// Modeled time for scattered execution: one launch per job, each at
    /// the rate its own size can achieve.
    pub fn scattered_seconds(&self, jobs: &[BatchJob]) -> f64 {
        let bytes: f64 = jobs.iter().map(Self::job_bytes).sum();
        OFFLOAD_BYTES_MOVED.add(bytes as u64);
        jobs.iter()
            .map(|job| {
                let (m, n, k) = job.dims();
                let dim = ((m * n * k) as f64).cbrt();
                let compute = job.flops() as f64 / (self.achieved_tflops(dim) * 1e12);
                let transfer =
                    self.transfer_latency_s + Self::job_bytes(job) / (self.transfer_gbs * 1e9);
                self.launch_overhead_s + self.combine(compute, transfer)
            })
            .sum()
    }

    /// Modeled time for batched execution: one launch per size class; the
    /// batch's *aggregate* work sets the achieved rate (this is exactly why
    /// batching pays: packed small GEMMs act like one big one), while
    /// padded FLOPs are charged in full.
    pub fn batched_seconds(&self, jobs: &[BatchJob], stride: usize) -> f64 {
        let plan = BatchPlan::build(jobs, stride);
        let mut total = 0.0;
        for (class, indices) in plan.groups() {
            let batch_flops = class.padded_flops() as f64 * indices.len() as f64;
            // Effective dimension of the fused batch.
            let dim = batch_flops.cbrt() / 2.0_f64.cbrt();
            let bytes: f64 = indices.iter().map(|&i| Self::job_bytes(&jobs[i])).sum();
            OFFLOAD_BYTES_MOVED.add(bytes as u64);
            let compute = batch_flops / (self.achieved_tflops(dim) * 1e12);
            // Aggregated transfer (Section V-F): one DMA setup per launch
            // instead of one per operand block.
            let setups = if self.aggregated_transfer { 1.0 } else { indices.len() as f64 };
            let transfer = setups * self.transfer_latency_s + bytes / (self.transfer_gbs * 1e9);
            total += self.launch_overhead_s + self.combine(compute, transfer);
        }
        total
    }
}

/// Compares scattered vs batched offloading under the accelerator model.
pub fn offload_comparison(
    jobs: &[BatchJob],
    accel: &ModeledAccelerator,
    stride: usize,
) -> OffloadReport {
    let plan = BatchPlan::build(jobs, stride);
    OffloadReport {
        scattered_seconds: accel.scattered_seconds(jobs),
        batched_seconds: accel.batched_seconds(jobs, stride),
        jobs: jobs.len(),
        launches: plan.launch_count(),
        padding_overhead: plan.padding_overhead(jobs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_linalg::DMatrix;

    fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// The paper's regime: many scattered small GEMMs of similar size.
    fn scattered_jobs(count: usize, dim: usize) -> Vec<BatchJob> {
        (0..count)
            .map(|i| BatchJob::gemm(sample(dim, dim, i as u64), sample(dim, dim, 1000 + i as u64)))
            .collect()
    }

    #[test]
    fn batching_profitable_for_small_gemms() {
        let jobs = scattered_jobs(256, 24);
        let accel = ModeledAccelerator::from_machine(&MachineModel::orise());
        let report = offload_comparison(&jobs, &accel, 32);
        assert!(
            report.speedup() > 2.0,
            "batching must pay off for tiny GEMMs: speedup {}",
            report.speedup()
        );
        assert_eq!(report.launches, 1, "uniform sizes collapse to one class");
        assert_eq!(report.jobs, 256);
    }

    #[test]
    fn batching_unprofitable_for_single_huge_gemm() {
        // One big GEMM gains nothing from batching (same launch count) and
        // can lose to padding.
        let jobs = vec![BatchJob::gemm(sample(500, 500, 1), sample(500, 500, 2))];
        let accel = ModeledAccelerator::from_machine(&MachineModel::orise());
        let report = offload_comparison(&jobs, &accel, 32);
        assert!(report.speedup() < 1.3, "no batch win expected: {}", report.speedup());
    }

    #[test]
    fn achieved_rate_saturates() {
        let accel = ModeledAccelerator::from_machine(&MachineModel::sunway());
        let small = accel.achieved_tflops(16.0);
        let large = accel.achieved_tflops(8.0 * accel.half_rate_dim);
        assert!(small < 0.2 * accel.peak_tflops);
        assert!(large > 0.85 * accel.peak_tflops);
        assert!(accel.achieved_tflops(96.0) > small && accel.achieved_tflops(96.0) < large);
        // The paper's Table I efficiencies: ORISE saturates much earlier.
        let orise = ModeledAccelerator::from_machine(&MachineModel::orise());
        assert!(orise.half_rate_dim < accel.half_rate_dim);
    }

    #[test]
    fn stride_tradeoff_monotonicity() {
        // Larger strides -> fewer launches but more padding waste.
        let mut jobs = scattered_jobs(64, 20);
        jobs.extend(scattered_jobs(64, 27));
        jobs.extend(scattered_jobs(64, 40));
        let accel = ModeledAccelerator::from_machine(&MachineModel::orise());
        let r8 = offload_comparison(&jobs, &accel, 8);
        let r32 = offload_comparison(&jobs, &accel, 32);
        let r128 = offload_comparison(&jobs, &accel, 128);
        assert!(r8.launches >= r32.launches);
        assert!(r32.launches >= r128.launches);
        assert!(r8.padding_overhead <= r32.padding_overhead + 1e-12);
        assert!(r32.padding_overhead <= r128.padding_overhead + 1e-12);
    }

    #[test]
    fn sunway_batches_cheaper_than_orise() {
        // Lower launch overhead + shared memory: the paper's reason the
        // aggregated-transfer optimization is ORISE-only.
        let jobs = scattered_jobs(128, 24);
        let orise = ModeledAccelerator::from_machine(&MachineModel::orise());
        let sunway = ModeledAccelerator::from_machine(&MachineModel::sunway());
        assert!(sunway.batched_seconds(&jobs, 32) < orise.batched_seconds(&jobs, 32));
    }

    #[test]
    fn aggregated_transfer_pays_on_orise() {
        let jobs = scattered_jobs(128, 24);
        let orise = ModeledAccelerator::from_machine(&MachineModel::orise());
        let mut no_agg = orise;
        no_agg.aggregated_transfer = false;
        assert!(
            orise.batched_seconds(&jobs, 32) < no_agg.batched_seconds(&jobs, 32),
            "aggregating 128 DMA setups into 1 must be faster"
        );
    }

    #[test]
    fn async_overlap_pays_on_sunway() {
        let jobs = scattered_jobs(128, 24);
        let sunway = ModeledAccelerator::from_machine(&MachineModel::sunway());
        let mut sync = sunway;
        sync.async_overlap = false;
        assert!(
            sunway.batched_seconds(&jobs, 32) <= sync.batched_seconds(&jobs, 32),
            "overlapping compute with DMA can only help"
        );
    }

    #[test]
    fn empty_jobs_are_free() {
        let accel = ModeledAccelerator::from_machine(&MachineModel::orise());
        let report = offload_comparison(&[], &accel, 32);
        assert_eq!(report.scattered_seconds, 0.0);
        assert_eq!(report.batched_seconds, 0.0);
        assert_eq!(report.speedup(), 0.0);
        assert_eq!(report.launches, 0);
    }
}
