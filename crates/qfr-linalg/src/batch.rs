//! Batched dense kernels with stride-32 size classes — the compute layer
//! behind the paper's *elastic workload offloading* (Section V-C) composed
//! with its symmetry-aware strength reduction (Section V-D).
//!
//! A single fragment's DFPT cycle issues thousands of tiny products (each
//! ~0.01 s on a CPU core in the paper's profile), far too small to offload
//! individually. QF-RAMAN gathers them, pads every operand to a multiple of
//! 32 in each dimension, and batches all products of equal padded shape
//! into one accelerator launch. Here that is one data format and one
//! executor:
//!
//! - a [`BatchJob`] is a [`BatchKernel`] tag (general GEMM or one of the
//!   triangle-only SYRK/congruence/similarity kernels) plus two
//!   `Arc`-shared operands;
//! - [`BatchJob::class`] rounds its `(m, n, k)` up to the stride, giving
//!   the [`BatchClass`] it launches with;
//! - a [`BatchPlan`] groups a job stream by class — one launch per class —
//!   and prices what an accelerator that really pads would execute
//!   ([`BatchPlan::padded_flops`], [`BatchPlan::padding_overhead`]; the
//!   Fig. 9 model in `qfr-sched::offload` reads these);
//! - [`execute_jobs`] runs the stream under an [`OffloadMode`]: serially
//!   through the public, counted kernels, or batched as one ordered
//!   parallel map over their uncounted cores.
//!
//! On the host, padding exists only in the *accounting*: a batched job runs
//! the same `crate::gemm` / `crate::syrk` kernel bodies at its real
//! dimensions as every direct caller, so padding never burns FLOPs and both
//! modes agree value for value. See DESIGN.md §10.

use crate::gemm;
use crate::matrix::DMatrix;
use crate::syrk::{transform, GemmFn, TriangleFn};
use rayon::prelude::*;

static BATCH_JOBS: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.batch.jobs");
static BATCH_LAUNCHES: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.batch.launches");
/// Accelerator launches avoided by batching: one launch per size class
/// instead of one per job — the quantity the Fig. 9 offload model converts
/// into saved launch overhead.
static BATCH_LAUNCHES_SAVED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("linalg.batch.launches_saved");
/// Triangle-family ([`BatchKernel::SymmetricProduct`] / `Congruence` /
/// `Similarity`) jobs carried by batched launches — pins that strength
/// reduction and offloading compose.
static BATCH_SYRK_JOBS: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("linalg.batch.syrk_jobs");
/// Bytes the packed launches present to a device: padded operand panels
/// per job slot plus the dense results written back — the executed
/// stream's analogue of `sched.offload.bytes_moved`.
static BATCH_PACKED_BYTES: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("linalg.batch.packed_bytes");

/// Tasks a batched stream is cut into at most: enough to balance a few
/// threads, coarse enough that the dispatch overhead amortizes.
const LAUNCH_TASKS: usize = 16;

/// How gathered job streams are executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadMode {
    /// One counted kernel call per job, serially (the pre-offload path).
    Scattered,
    /// Size-class packed batching with the given padding stride.
    Batched {
        /// Padding stride (the paper uses 32).
        stride: usize,
    },
}

impl Default for OffloadMode {
    fn default() -> Self {
        OffloadMode::Batched { stride: 32 }
    }
}

/// Dense kernel variant a batched job executes. The triangle-family
/// variants run the `crate::syrk` kernels (triangle-only compute, reduced
/// FLOP accounting), so strength reduction and elastic offloading compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BatchKernel {
    /// `C = A B` (general GEMM, `A` is `m x k`, `B` is `k x n`).
    Gemm,
    /// `C = Aᵀ B` for operand pairs whose product is symmetric by
    /// construction (`A`/`B` are `k x n`; see
    /// [`crate::syrk::symmetric_product`]).
    SymmetricProduct,
    /// `C = Aᵀ M A` for symmetric `M` (`A` is `k x n`, `M` is `k x k`).
    Congruence,
    /// `C = A M Aᵀ` for symmetric `M` (`A` is `n x k`, `M` is `k x k`).
    Similarity,
}

/// `(general-GEMM, triangle)` FLOPs of one `kernel` product with output
/// `m x n` and inner dimension `k` — the one place the per-kernel cost is
/// written. The triangle part is the *reduced* count (one triangle
/// computed, the other mirrored); the transforms pay a general first
/// product `n x k x k` plus a triangle second product.
fn kernel_flops(kernel: BatchKernel, m: usize, n: usize, k: usize) -> (u64, u64) {
    match kernel {
        BatchKernel::Gemm => (crate::flops::gemm_flops(m, n, k), 0),
        BatchKernel::SymmetricProduct => (0, crate::syrk::triangle_flops(n, k)),
        BatchKernel::Congruence | BatchKernel::Similarity => {
            (crate::flops::gemm_flops(n, k, k), crate::syrk::triangle_flops(n, k))
        }
    }
}

/// One kernel-tagged job destined for batching.
///
/// Operands are `Arc`-shared: a gathered stream routinely pairs many
/// left-hand panels with *one* right-hand matrix (every grid batch of a
/// response cycle multiplies the same `P1`; every Fock batch reuses its
/// `X` panel), so jobs hold references to that operand instead of each
/// owning a copy. Constructors accept owned matrices too (`DMatrix`
/// converts via `Into<Arc<DMatrix>>`), so one-off jobs read the same as
/// before.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Kernel to execute.
    pub kernel: BatchKernel,
    /// Left / row operand (`A`).
    pub a: std::sync::Arc<DMatrix>,
    /// Right operand (`B`, or the symmetric `M` of the transforms).
    pub b: std::sync::Arc<DMatrix>,
}

impl BatchJob {
    /// General GEMM job `C = A B`.
    pub fn gemm(
        a: impl Into<std::sync::Arc<DMatrix>>,
        b: impl Into<std::sync::Arc<DMatrix>>,
    ) -> Self {
        let (a, b) = (a.into(), b.into());
        assert_eq!(a.cols(), b.rows(), "BatchJob::gemm: inner dimensions differ");
        Self { kernel: BatchKernel::Gemm, a, b }
    }

    /// Symmetric-product job `C = Aᵀ B` (caller guarantees `Aᵀ B = Bᵀ A`,
    /// e.g. `A = diag(w) B`).
    pub fn symmetric_product(
        a: impl Into<std::sync::Arc<DMatrix>>,
        b: impl Into<std::sync::Arc<DMatrix>>,
    ) -> Self {
        let (a, b) = (a.into(), b.into());
        assert_eq!(a.shape(), b.shape(), "BatchJob::symmetric_product: A and B shapes differ");
        Self { kernel: BatchKernel::SymmetricProduct, a, b }
    }

    /// Congruence job `C = Aᵀ M A` for symmetric `M`.
    pub fn congruence(
        a: impl Into<std::sync::Arc<DMatrix>>,
        m: impl Into<std::sync::Arc<DMatrix>>,
    ) -> Self {
        let (a, m) = (a.into(), m.into());
        assert!(m.is_square(), "BatchJob::congruence: M must be square");
        assert_eq!(a.rows(), m.rows(), "BatchJob::congruence: A/M mismatch");
        Self { kernel: BatchKernel::Congruence, a, b: m }
    }

    /// Similarity job `C = A M Aᵀ` for symmetric `M`.
    pub fn similarity(
        a: impl Into<std::sync::Arc<DMatrix>>,
        m: impl Into<std::sync::Arc<DMatrix>>,
    ) -> Self {
        let (a, m) = (a.into(), m.into());
        assert!(m.is_square(), "BatchJob::similarity: M must be square");
        assert_eq!(a.cols(), m.rows(), "BatchJob::similarity: A/M mismatch");
        Self { kernel: BatchKernel::Similarity, a, b: m }
    }

    /// Real (unpadded) `(m, n, k)` of the job: output `m x n`, inner
    /// dimension `k`. Triangle-family jobs have `m == n`.
    pub fn dims(&self) -> (usize, usize, usize) {
        match self.kernel {
            BatchKernel::Gemm => (self.a.rows(), self.b.cols(), self.a.cols()),
            BatchKernel::SymmetricProduct | BatchKernel::Congruence => {
                (self.a.cols(), self.a.cols(), self.a.rows())
            }
            BatchKernel::Similarity => (self.a.rows(), self.a.rows(), self.a.cols()),
        }
    }

    /// Unpadded output shape `(m, n)`.
    pub fn out_shape(&self) -> (usize, usize) {
        let (m, n, _) = self.dims();
        (m, n)
    }

    /// FLOPs this job costs at the *reduced* count the kernels account
    /// (triangle-only compute for the symmetric family).
    pub fn flops(&self) -> u64 {
        let (m, n, k) = self.dims();
        let (general, triangle) = kernel_flops(self.kernel, m, n, k);
        general + triangle
    }

    /// Classifies the job under the given padding stride.
    pub fn class(&self, stride: usize) -> BatchClass {
        assert!(stride > 0, "stride must be positive");
        let round = |d: usize| d.div_ceil(stride) * stride;
        let (m, n, k) = self.dims();
        BatchClass { kernel: self.kernel, m: round(m), n: round(n), k: round(k) }
    }
}

/// Padded `(kernel, m, n, k)` equivalence class of [`BatchJob`]s. Jobs
/// sharing a class are dispatched in one packed launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchClass {
    /// Kernel variant (classes never mix kernels).
    pub kernel: BatchKernel,
    /// Padded output rows.
    pub m: usize,
    /// Padded output cols.
    pub n: usize,
    /// Padded inner dimension.
    pub k: usize,
}

impl BatchClass {
    /// FLOPs of one job of this class executed at its *padded* dimensions —
    /// what an accelerator that really pads pays per launch slot, and what
    /// `qfr-sched::offload`'s cost model charges. (The host executor
    /// computes real dimensions only and books [`BatchJob::flops`].)
    pub fn padded_flops(&self) -> u64 {
        let (general, triangle) = kernel_flops(self.kernel, self.m, self.n, self.k);
        general + triangle
    }

    /// Padded panel lengths `(a, b, c)` in `f64`s per job slot — the data
    /// footprint one launch slot presents to an accelerator's DMA (operand
    /// panels in the kernel's row view, plus the padded output). Feeds the
    /// `linalg.batch.packed_bytes` accounting.
    fn panel_lens(&self) -> (usize, usize, usize) {
        match self.kernel {
            BatchKernel::Gemm => (self.m * self.k, self.k * self.n, self.m * self.n),
            BatchKernel::SymmetricProduct => (self.n * self.k, self.n * self.k, self.n * self.n),
            BatchKernel::Congruence | BatchKernel::Similarity => {
                (self.n * self.k, self.k * self.k, self.n * self.n)
            }
        }
    }
}

/// Grouping of kernel-tagged job indices into [`BatchClass`]es, ordered by
/// class (BTreeMap) so launch order is deterministic.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    stride: usize,
    classes: Vec<(BatchClass, Vec<usize>)>,
}

impl BatchPlan {
    /// Builds the plan for `jobs` under the given padding stride.
    pub fn build(jobs: &[BatchJob], stride: usize) -> Self {
        let mut map: std::collections::BTreeMap<BatchClass, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            map.entry(job.class(stride)).or_default().push(i);
        }
        Self { stride, classes: map.into_iter().collect() }
    }

    /// The padding stride this plan was built with.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of packed launches (= number of distinct classes).
    pub fn launch_count(&self) -> usize {
        self.classes.len()
    }

    /// Iterates `(class, indices)` groups.
    pub fn groups(&self) -> impl Iterator<Item = (&BatchClass, &[usize])> {
        self.classes.iter().map(|(c, idx)| (c, idx.as_slice()))
    }

    /// Total *padded* FLOPs of the plan (includes padding waste).
    pub fn padded_flops(&self) -> u64 {
        self.classes.iter().map(|(c, idx)| c.padded_flops() * idx.len() as u64).sum()
    }

    /// Fraction of padded FLOPs that are waste relative to the exact FLOPs
    /// of `jobs` (the stream the plan was built from). 0 means every job
    /// already matched its class exactly.
    pub fn padding_overhead(&self, jobs: &[BatchJob]) -> f64 {
        let exact: u64 = jobs.iter().map(BatchJob::flops).sum();
        if exact == 0 {
            return 0.0;
        }
        (self.padded_flops() as f64 - exact as f64) / exact as f64
    }
}

/// Executes a job stream under `mode` — the one executor. Results come
/// back in job order. Both modes run the same kernels, so they agree value
/// for value and book the same FLOPs, `linalg.syrk.calls` and symmetry
/// savings (DESIGN.md §10).
///
/// - `Scattered` runs the jobs serially through the public, counted
///   kernels (a GEMM past `gemm_auto`'s size rule takes the packed kernel,
///   bit-identical to the blocked one).
/// - `Batched` books the plan's `linalg.batch.*` counters and every job's
///   FLOPs on the dispatching thread (so a `FlopScope` around the phase
///   sees them whatever rayon does), then runs the uncounted cores in one
///   ordered parallel map; jobs touch only their own operands and output,
///   so the bits do not depend on the thread count.
pub fn execute_jobs(jobs: &[BatchJob], mode: OffloadMode) -> Vec<DMatrix> {
    let OffloadMode::Batched { stride } = mode else {
        return jobs.iter().map(|job| run_job(job, COUNTED)).collect();
    };
    let plan = BatchPlan::build(jobs, stride);
    BATCH_JOBS.add(jobs.len() as u64);
    BATCH_LAUNCHES.add(plan.launch_count() as u64);
    BATCH_LAUNCHES_SAVED.add(jobs.len().saturating_sub(plan.launch_count()) as u64);
    BATCH_SYRK_JOBS.add(jobs.iter().filter(|j| j.kernel != BatchKernel::Gemm).count() as u64);
    let panels: usize = plan
        .groups()
        .map(|(class, indices)| {
            let (la, lb, _) = class.panel_lens();
            (la + lb) * indices.len()
        })
        .sum();
    let outputs: usize = jobs
        .iter()
        .map(|job| {
            let (m, n) = job.out_shape();
            m * n
        })
        .sum();
    BATCH_PACKED_BYTES.add(8 * (panels + outputs) as u64);
    jobs.iter().for_each(account_job);
    (0..jobs.len())
        .into_par_iter()
        .with_min_len(jobs.len().div_ceil(LAUNCH_TASKS))
        .map(|i| run_job(&jobs[i], CORES))
        .collect()
}

/// The kernel bodies a job runs on.
#[derive(Clone, Copy)]
struct Kernels {
    gemm: GemmFn,
    triangle: TriangleFn,
}

/// The public entries, each booking its own counters.
const COUNTED: Kernels =
    Kernels { gemm: gemm::gemm_auto, triangle: crate::syrk::symmetric_product };

/// Their uncounted cores; [`account_job`] books what they execute.
const CORES: Kernels = Kernels { gemm: gemm::blocked_core, triangle: crate::syrk::triangle_core };

/// One job through `kernels`.
fn run_job(job: &BatchJob, Kernels { gemm, triangle }: Kernels) -> DMatrix {
    let (a, b) = (&*job.a, &*job.b);
    let (m, n) = job.out_shape();
    match job.kernel {
        BatchKernel::Gemm => {
            let mut c = DMatrix::zeros(m, n);
            gemm(&mut c, a, b, 1.0, 0.0);
            c
        }
        BatchKernel::SymmetricProduct => {
            let mut c = DMatrix::zeros(m, n);
            triangle(1.0, a, b, 0.0, &mut c);
            c
        }
        BatchKernel::Congruence => transform(&a.transpose(), a, b, gemm, triangle),
        BatchKernel::Similarity => transform(a, &a.transpose(), b, gemm, triangle),
    }
}

/// What the counted kernels would book for one job, minus the
/// `linalg.gemm.calls` a batched job does not make: general-GEMM FLOPs,
/// plus — for the triangle family — the reduced triangle FLOPs,
/// `linalg.gemm.flops_saved_symmetry` and `linalg.syrk.calls` booked by
/// `crate::syrk::account_triangle`.
fn account_job(job: &BatchJob) {
    let (m, n, k) = job.dims();
    if m == 0 || n == 0 {
        return;
    }
    let (general, _) = kernel_flops(job.kernel, m, n, k);
    crate::flops::add(general);
    if job.kernel != BatchKernel::Gemm {
        crate::syrk::account_triangle(n, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn jobs_mixed() -> Vec<BatchJob> {
        vec![
            BatchJob::gemm(sample(5, 7, 1), sample(7, 9, 2)),
            BatchJob::gemm(sample(30, 30, 3), sample(30, 30, 4)),
            BatchJob::gemm(sample(6, 7, 5), sample(7, 8, 6)),
            BatchJob::gemm(sample(33, 40, 7), sample(40, 20, 8)),
            BatchJob::gemm(sample(5, 7, 9), sample(7, 9, 10)),
        ]
    }

    #[test]
    fn size_class_rounding() {
        let job = BatchJob::gemm(DMatrix::zeros(33, 40), DMatrix::zeros(40, 20));
        let gemm = BatchKernel::Gemm;
        assert_eq!(job.class(32), BatchClass { kernel: gemm, m: 64, n: 32, k: 64 });
        assert_eq!(job.class(1), BatchClass { kernel: gemm, m: 33, n: 20, k: 40 });
    }

    #[test]
    fn exact_multiple_not_padded() {
        let job = BatchJob::gemm(DMatrix::zeros(32, 64), DMatrix::zeros(64, 32));
        let c = job.class(32);
        assert_eq!(c, BatchClass { kernel: BatchKernel::Gemm, m: 32, n: 32, k: 64 });
        assert_eq!(c.padded_flops(), job.flops());
    }

    #[test]
    fn padding_overhead_bounds() {
        let jobs = jobs_mixed();
        let plan1 = BatchPlan::build(&jobs, 1);
        assert_eq!(plan1.padding_overhead(&jobs), 0.0);
        let plan32 = BatchPlan::build(&jobs, 32);
        let ovh = plan32.padding_overhead(&jobs);
        assert!(ovh > 0.0, "mixed sizes must incur padding waste");
        let plan128 = BatchPlan::build(&jobs, 128);
        assert!(plan128.padding_overhead(&jobs) >= ovh, "larger stride wastes more");
    }

    #[test]
    fn padded_pricing_matches_the_gemm_only_plan_it_replaced() {
        // Launches, padded FLOPs and padding overhead the GEMM-only plan
        // type gave for this stream, recorded at the commit that folded it
        // into `BatchPlan`: the Fig. 9 offload model prices all-`Gemm`
        // streams through these numbers and must not move.
        let jobs = jobs_mixed();
        for (stride, launches, padded, overhead) in [
            (1, 4, 108_732u64, 0.0),
            (8, 4, 147_456, 0.3561417062134422),
            (32, 2, 524_288, 3.8218371776477946),
            (128, 1, 20_971_520, 191.87348710591178),
        ] {
            let plan = BatchPlan::build(&jobs, stride);
            assert_eq!(plan.launch_count(), launches, "stride {stride}");
            assert_eq!(plan.padded_flops(), padded, "stride {stride}");
            assert_eq!(plan.padding_overhead(&jobs), overhead, "stride {stride}");
        }
    }

    #[test]
    fn larger_stride_fewer_launches() {
        let jobs = jobs_mixed();
        let l1 = BatchPlan::build(&jobs, 1).launch_count();
        let l32 = BatchPlan::build(&jobs, 32).launch_count();
        let l128 = BatchPlan::build(&jobs, 128).launch_count();
        assert!(l32 <= l1);
        assert!(l128 <= l32);
        assert_eq!(l128, 1, "stride 128 folds all mixed jobs into one class");
    }

    #[test]
    fn empty_jobs() {
        let jobs: Vec<BatchJob> = vec![];
        assert!(execute_jobs(&jobs, OffloadMode::default()).is_empty());
        let plan = BatchPlan::build(&jobs, 32);
        assert_eq!(plan.launch_count(), 0);
        assert_eq!(plan.padded_flops(), 0);
        assert_eq!(plan.padding_overhead(&jobs), 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn job_dim_mismatch_panics() {
        let _ = BatchJob::gemm(DMatrix::zeros(2, 3), DMatrix::zeros(4, 2));
    }

    fn sym_sample(n: usize, seed: u64) -> DMatrix {
        let mut m = sample(n, n, seed);
        m.symmetrize_mut();
        m
    }

    fn weighted(b: &DMatrix, seed: u64) -> DMatrix {
        let w = sample(b.rows(), 1, seed);
        DMatrix::from_fn(b.rows(), b.cols(), |i, j| w[(i, 0)] * b[(i, j)])
    }

    fn tagged_mixed() -> Vec<BatchJob> {
        let b1 = sample(19, 7, 20);
        let b2 = sample(40, 12, 23);
        vec![
            BatchJob::gemm(sample(5, 7, 21), sample(7, 9, 22)),
            BatchJob::symmetric_product(weighted(&b1, 30), b1.clone()),
            BatchJob::congruence(sample(10, 6, 24), sym_sample(10, 25)),
            BatchJob::similarity(sample(7, 10, 26), sym_sample(10, 27)),
            BatchJob::gemm(sample(33, 40, 28), sample(40, 20, 29)),
            BatchJob::symmetric_product(weighted(&b2, 31), b2.clone()),
            BatchJob::gemm(sample(5, 7, 32), sample(7, 9, 33)),
        ]
    }

    #[test]
    fn tagged_dims_and_shapes() {
        let jobs = tagged_mixed();
        assert_eq!(jobs[0].dims(), (5, 9, 7));
        assert_eq!(jobs[1].dims(), (7, 7, 19));
        assert_eq!(jobs[2].dims(), (6, 6, 10));
        assert_eq!(jobs[3].dims(), (7, 7, 10));
        assert_eq!(jobs[1].out_shape(), (7, 7));
    }

    #[test]
    fn packed_matches_scattered_values() {
        let jobs = tagged_mixed();
        let scattered = execute_jobs(&jobs, OffloadMode::Scattered);
        for stride in [1, 8, 32] {
            let packed = execute_jobs(&jobs, OffloadMode::Batched { stride });
            assert_eq!(packed.len(), scattered.len());
            for (p, s) in packed.iter().zip(&scattered) {
                assert_eq!(p.shape(), s.shape());
                assert_eq!(p.as_slice(), s.as_slice(), "stride {stride}");
            }
        }
    }

    #[test]
    fn packed_reentrant_under_work_stealing() {
        // The engine dispatches batched streams from inside a fragment-level
        // par_iter, so the parallel map runs nested on every thread of the
        // outer call. Values must still match the scattered reference.
        let make_jobs = |i: usize| -> Vec<BatchJob> {
            (0..8)
                .map(|j| {
                    let seed = (i * 8 + j) as u64;
                    BatchJob::similarity(sample(7, 10, seed), sym_sample(10, 1000 + seed))
                })
                .collect()
        };
        let packed: Vec<Vec<DMatrix>> = (0..32)
            .into_par_iter()
            .map(|i| execute_jobs(&make_jobs(i), OffloadMode::Batched { stride: 32 }))
            .collect();
        for (i, outs) in packed.iter().enumerate() {
            let reference = execute_jobs(&make_jobs(i), OffloadMode::Scattered);
            for (p, s) in outs.iter().zip(&reference) {
                assert_eq!(p.as_slice(), s.as_slice());
            }
        }
    }

    #[test]
    fn shared_arc_operands_supported() {
        // Gathered streams share right-hand operands across jobs; results
        // must match per-job owned operands.
        let p1 = std::sync::Arc::new(sym_sample(9, 70));
        let shared: Vec<BatchJob> =
            (0..5).map(|j| BatchJob::gemm(sample(6, 9, 71 + j), p1.clone())).collect();
        let owned: Vec<BatchJob> =
            (0..5).map(|j| BatchJob::gemm(sample(6, 9, 71 + j), (*p1).clone())).collect();
        let a = execute_jobs(&shared, OffloadMode::Batched { stride: 32 });
        let b = execute_jobs(&owned, OffloadMode::Batched { stride: 32 });
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn packed_triangle_results_exactly_symmetric() {
        let jobs = tagged_mixed();
        for (job, out) in jobs.iter().zip(execute_jobs(&jobs, OffloadMode::Batched { stride: 32 }))
        {
            if job.kernel != BatchKernel::Gemm {
                assert!(out.is_symmetric(0.0), "mirror must be exact");
            }
        }
    }

    #[test]
    fn tagged_plan_groups_by_kernel_and_class() {
        let jobs = tagged_mixed();
        let plan = BatchPlan::build(&jobs, 32);
        // Two small gemms share a class; the symmetric products differ in k
        // after padding (19 -> 32, 40 -> 64) so they do not merge.
        assert!(plan.launch_count() < jobs.len());
        let total: usize = plan.groups().map(|(_, idx)| idx.len()).sum();
        assert_eq!(total, jobs.len());
        for (class, indices) in plan.groups() {
            for &i in indices {
                assert_eq!(jobs[i].class(32), *class);
            }
        }
    }

    #[test]
    fn tagged_result_order_preserved() {
        let jobs: Vec<BatchJob> = (1..=6)
            .map(|v| {
                BatchJob::gemm(
                    DMatrix::from_vec(1, 1, vec![v as f64]),
                    DMatrix::from_vec(1, 1, vec![10.0]),
                )
            })
            .collect();
        let out = execute_jobs(&jobs, OffloadMode::Batched { stride: 32 });
        for (i, c) in out.iter().enumerate() {
            assert_eq!(c[(0, 0)], (i as f64 + 1.0) * 10.0);
        }
    }

    #[test]
    fn degenerate_tagged_jobs_fall_back() {
        let jobs = vec![
            BatchJob::gemm(DMatrix::zeros(0, 4), DMatrix::zeros(4, 3)),
            BatchJob::gemm(sample(3, 0, 40), sample(0, 2, 41)),
            BatchJob::symmetric_product(DMatrix::zeros(5, 0), DMatrix::zeros(5, 0)),
            BatchJob::gemm(sample(2, 3, 42), sample(3, 2, 43)),
        ];
        let scattered = execute_jobs(&jobs, OffloadMode::Scattered);
        let packed = execute_jobs(&jobs, OffloadMode::Batched { stride: 32 });
        for (p, s) in packed.iter().zip(&scattered) {
            assert_eq!(p.shape(), s.shape());
            assert_eq!(p.as_slice(), s.as_slice());
        }
    }

    #[test]
    fn execute_jobs_mode_dispatch() {
        let jobs = tagged_mixed();
        let a = execute_jobs(&jobs, OffloadMode::Scattered);
        let b = execute_jobs(&jobs, OffloadMode::default());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "A/M mismatch")]
    fn tagged_congruence_mismatch_panics() {
        let _ = BatchJob::congruence(DMatrix::zeros(3, 4), DMatrix::zeros(4, 4));
    }
}
