//! Pins the batched executor on the engine's real job streams: the SCF
//! density/Fock streams and the response phase 1/2/4 streams of the
//! `water2_dfpt` dimer, gathered the way the hot loops gather them, must
//! run bit-for-bit like the scattered reference and book the same
//! mode-invariant counters. Also pins that a response task's result does
//! not depend on its batch companions.
//!
//! Lives in its own integration-test binary because it reads
//! process-global deterministic counters; sharing a process with other
//! counter-bumping tests would race the deltas.

use qfr_dfpt::response::{solve_response, solve_responses};
use qfr_dfpt::scf::CX;
use qfr_dfpt::{DfptEngineConfig, ResponseConfig, ScfResult, ScfSolver};
use qfr_fragment::{Decomposition, FragmentStructure};
use qfr_geom::WaterBoxBuilder;
use qfr_linalg::batch::{execute_jobs, BatchJob, BatchKernel, OffloadMode};
use qfr_linalg::DMatrix;
use std::ops::Range;
use std::sync::Arc;

/// The `water2_dfpt` benchmark fragment: the dimer job of a seed-42
/// two-water box.
fn water_dimer() -> FragmentStructure {
    let sys = WaterBoxBuilder::new(2).seed(42).build();
    let jobs = Decomposition::new(&sys, Default::default()).jobs;
    jobs.iter().max_by_key(|j| j.size()).expect("a two-water box has jobs").structure(&sys)
}

fn counter(name: &str) -> u64 {
    qfr_obs::counter::value_of(name).unwrap_or(0)
}

/// What both execution modes must book by the same amount: the executed
/// FLOPs, triangle-kernel calls and the symmetry saving. (`linalg.batch.*`
/// exist only when batched, and `linalg.gemm.calls` counts public
/// GEMM-entry calls, which batched jobs do not make — neither is
/// mode-invariant.)
const MODE_INVARIANT_COUNTERS: [&str; 3] =
    ["linalg.flops", "linalg.syrk.calls", "linalg.gemm.flops_saved_symmetry"];

/// Results of one stream under `mode`, with the deltas of the
/// mode-invariant counters.
fn execute_counted(jobs: &[BatchJob], mode: OffloadMode) -> (Vec<DMatrix>, [u64; 3]) {
    let before = MODE_INVARIANT_COUNTERS.map(counter);
    let out = execute_jobs(jobs, mode);
    let mut deltas = MODE_INVARIANT_COUNTERS.map(counter);
    for (d, b) in deltas.iter_mut().zip(before) {
        *d -= b;
    }
    (out, deltas)
}

/// `X` scaled row by row by `w[gi] · dv` over one grid batch.
fn weighted(x: &DMatrix, batch: &Range<usize>, w: &[f64], dv: f64) -> DMatrix {
    let mut xw = x.clone();
    for (row, gi) in batch.clone().enumerate() {
        for v in xw.row_mut(row) {
            *v *= w[gi] * dv;
        }
    }
    xw
}

/// The sum-over-states weights of phase 1 in the MO basis.
fn sum_over_states(scf: &ScfResult, h1_mo: &DMatrix) -> DMatrix {
    let n = scf.basis.len();
    let mut m = DMatrix::zeros(n, n);
    for i in (0..n).filter(|&i| scf.occ[i] > 0.0) {
        for a in 0..n {
            let gap = scf.eps[i] - scf.eps[a];
            if scf.occ[a] > 0.0 || gap.abs() < 1e-8 {
                continue;
            }
            m[(i, a)] = scf.occ[i] * h1_mo[(i, a)] / gap;
            m[(a, i)] = m[(i, a)];
        }
    }
    m
}

/// The five job streams one SCF iteration and one response cycle execute,
/// gathered from converged SCF and response state the way `scf.rs` and
/// `response.rs` gather them: one `Arc` per grid panel, density matrix and
/// `C`, shared by every job that reads it.
fn engine_streams(scf: &ScfResult, batch_size: usize) -> Vec<(&'static str, Vec<BatchJob>)> {
    let batches = scf.grid.batches(batch_size);
    let points = |b: &Range<usize>| &scf.grid.points[b.clone()];
    let x: Vec<Arc<DMatrix>> =
        batches.iter().map(|b| Arc::new(scf.basis.evaluate(points(b)))).collect();
    let dv = scf.grid.dv;

    let p = Arc::new(scf.p.clone());
    let density = x.iter().map(|x| BatchJob::gemm(x.clone(), p.clone())).collect();
    let v_h = scf.grid.solve_poisson(&scf.density);
    let v_eff: Vec<f64> =
        scf.density.iter().zip(&v_h).map(|(&n, &vh)| vh - CX * n.powf(1.0 / 3.0)).collect();
    let fock = (batches.iter().zip(&x))
        .map(|(b, x)| BatchJob::symmetric_product(weighted(x, b, &v_eff, dv), x.clone()))
        .collect();

    // Real response state: the three field responses of a polarizability.
    let h1_exts: Vec<DMatrix> = scf.basis.dipole().iter().map(|d| d.scaled(-1.0)).collect();
    let (responses, _) = solve_responses(scf, &h1_exts, &ResponseConfig::default());

    let c = Arc::new(scf.c.clone());
    let congruence: Vec<BatchJob> =
        responses.iter().map(|r| BatchJob::congruence(c.clone(), r.h1.clone())).collect();
    let h1_mos = execute_jobs(&congruence, OffloadMode::Scattered);
    let similarity =
        h1_mos.iter().map(|h| BatchJob::similarity(c.clone(), sum_over_states(scf, h))).collect();

    // Phase 2 on the naive path: X·P1 and the three G·P1 per batch.
    let mut n1 = Vec::new();
    for r in &responses {
        let p1 = Arc::new(r.p1.clone());
        for (b, x) in batches.iter().zip(&x) {
            n1.push(BatchJob::gemm(x.clone(), p1.clone()));
            for dir in 0..3 {
                let g = scf.basis.evaluate_gradient(points(b), dir);
                n1.push(BatchJob::gemm(g, p1.clone()));
            }
        }
    }
    let h1 = (responses.iter())
        .flat_map(|r| {
            (batches.iter().zip(&x))
                .map(|(b, x)| BatchJob::symmetric_product(weighted(x, b, &r.v1, dv), x.clone()))
        })
        .collect();

    vec![
        ("SCF density", density),
        ("SCF Fock", fock),
        ("phase 1 congruence", congruence),
        ("phase 1 similarity", similarity),
        ("phase 2 n1", n1),
        ("phase 4 h1", h1),
    ]
}

#[test]
fn batched_offload_is_bit_identical_and_counted() {
    let config = DfptEngineConfig::default();
    let scf = ScfSolver { config: config.scf }.solve(&water_dimer());
    assert!(scf.converged, "the dimer SCF must converge");
    let streams = engine_streams(&scf, config.response.batch_size);

    // The streams cover every kernel, share operands and stage the
    // similarity transpose.
    let all: Vec<&BatchJob> = streams.iter().flat_map(|(_, jobs)| jobs).collect();
    for kernel in [
        BatchKernel::Gemm,
        BatchKernel::SymmetricProduct,
        BatchKernel::Congruence,
        BatchKernel::Similarity,
    ] {
        assert!(all.iter().any(|j| j.kernel == kernel), "no {kernel:?} job gathered");
    }
    let (_, density) = &streams[0];
    assert!(density.len() > 1, "the grid must split into several batches");
    assert!(
        density.windows(2).all(|w| Arc::ptr_eq(&w[0].b, &w[1].b)),
        "density jobs must share one P"
    );
    assert!(Arc::strong_count(&density[0].a) > 2, "grid panels must be shared across streams");

    // Every stream: batched ≡ scattered bit for bit, same counter deltas.
    let before_syrk = counter("linalg.batch.syrk_jobs");
    let before_bytes = counter("linalg.batch.packed_bytes");
    for (name, jobs) in &streams {
        let (scattered, deltas_s) = execute_counted(jobs, OffloadMode::Scattered);
        let (batched, deltas_b) = execute_counted(jobs, OffloadMode::default());
        assert_eq!(scattered.len(), jobs.len(), "{name}");
        for (i, (s, b)) in scattered.iter().zip(&batched).enumerate() {
            assert_eq!(s.as_slice(), b.as_slice(), "{name}: job {i} differs across modes");
        }
        assert_eq!(deltas_s, deltas_b, "{name}: {MODE_INVARIANT_COUNTERS:?}");
        assert!(deltas_b[0] > 0, "{name}: FLOPs must be counted");
    }
    assert!(
        counter("linalg.batch.syrk_jobs") > before_syrk,
        "triangle jobs must be counted when batched"
    );
    assert!(counter("linalg.batch.packed_bytes") > before_bytes, "packed bytes must be counted");

    // Set solve: a task's result is independent of its companions.
    let response = config.response;
    let h1_exts: Vec<DMatrix> = scf.basis.dipole().iter().map(|d| d.scaled(-1.0)).collect();
    let (set_results, _) = solve_responses(&scf, &h1_exts, &response);
    for (c, result) in set_results.iter().enumerate() {
        let solo = solve_response(&scf, &h1_exts[c], &response);
        assert_eq!(result.p1.as_slice(), solo.p1.as_slice(), "task {c}: set vs solo P1");
        assert_eq!(result.h1.as_slice(), solo.h1.as_slice(), "task {c}: set vs solo H1");
        assert_eq!(result.n1, solo.n1, "task {c}: set vs solo n1");
    }

    // Determinism: a repeat set solve reproduces every bit.
    let (again, _) = solve_responses(&scf, &h1_exts, &response);
    for (a, b) in set_results.iter().zip(&again) {
        assert_eq!(a.p1.as_slice(), b.p1.as_slice());
    }
}
