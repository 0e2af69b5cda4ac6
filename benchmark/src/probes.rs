//! Workload-independent probes of single layers, timed from outside through
//! the layers' public functions, plus the host ceilings they are read
//! against. Run in a child process of their own so neither their memory nor
//! the `qfr-obs` counters they bump leak into a measured run.

use crate::host;
use crate::record::Record;
use qfr_cache::FragmentCache;
use qfr_dfpt::{polarizability, DfptEngineConfig, ScfSolver};
use qfr_fragment::{Decomposition, DecompositionParams, FragmentEngine, FragmentStructure};
use qfr_geom::WaterBoxBuilder;
use qfr_linalg::batch::{execute_jobs, BatchJob, OffloadMode};
use qfr_linalg::fft::Grid3;
use qfr_linalg::gemm::gemm_auto;
use qfr_linalg::DMatrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean seconds per call of `f`, repeated until `budget_s` has elapsed.
fn mean_seconds(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(calls)
}

fn filled(rows: usize, cols: usize, seed: u64) -> DMatrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    DMatrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

fn gemm_gflops(n: usize) -> f64 {
    let (a, b) = (filled(n, n, 1), filled(n, n, 2));
    let mut c = DMatrix::zeros(n, n);
    let dt = mean_seconds(0.15, || gemm_auto(black_box(&mut c), &a, &b, 1.0, 0.0));
    2.0 * (n * n * n) as f64 / dt / 1e9
}

/// The water-dimer fragment every DFPT probe runs on.
fn water_dimer() -> FragmentStructure {
    let system = WaterBoxBuilder::new(2).seed(42).build();
    let jobs = Decomposition::new(&system, DecompositionParams::default()).jobs;
    let dimer = jobs.iter().max_by_key(|j| j.size()).expect("a two-water box has jobs");
    dimer.structure(&system)
}

fn host_probes(rec: &mut Record) {
    rec.set("host.nproc", host::nproc() as f64);
    rec.set("host.llc_mib", host::llc_bytes() as f64 / (1 << 20) as f64);
    rec.set("host.fma_gflops", host::fma_gflops());
    let triad = host::triad_probe();
    rec.set("host.triad_gbs", triad.gbs);
    rec.set("host.triad_array_mib", triad.array_mib);
}

fn linalg_probes(rec: &mut Record, n_basis: usize, grid: (usize, usize, usize), density: &[f64]) {
    rec.set("linalg.gemm64_gflops", gemm_gflops(64));
    let g256 = gemm_gflops(256);
    rec.set("linalg.gemm256_gflops", g256);
    rec.set("linalg.gemm256_peak_frac", g256 / rec.get("host.fma_gflops"));

    // A fixed 512-job stream shaped like one DFPT response cycle on the
    // dimer: 512-point grid panels against the basis, half plain products
    // and half symmetric (density-build) products.
    let panel = Arc::new(filled(512, n_basis, 3));
    let weighted = Arc::new(filled(512, n_basis, 4));
    let square = Arc::new(filled(n_basis, n_basis, 5));
    let jobs: Vec<BatchJob> = (0..512)
        .map(|i| match i % 2 {
            0 => BatchJob::gemm(Arc::clone(&panel), Arc::clone(&square)),
            _ => BatchJob::symmetric_product(Arc::clone(&weighted), Arc::clone(&panel)),
        })
        .collect();
    let flops: u64 = jobs.iter().map(BatchJob::flops).sum();
    let dt = mean_seconds(0.15, || drop(black_box(execute_jobs(&jobs, OffloadMode::default()))));
    rec.set("linalg.batch_probe_gflops", flops as f64 / dt / 1e9);

    let (nx, ny, nz) = grid;
    let dt = mean_seconds(0.1, || {
        let mut g = Grid3::from_real(nx, ny, nz, density);
        g.fft();
        g.ifft();
        black_box(&g);
    });
    rec.set("linalg.fft_probe_us", dt * 1e6);
}

fn dfpt_probes(rec: &mut Record) -> (usize, (usize, usize, usize), Vec<f64>) {
    let dimer = water_dimer();
    let config = DfptEngineConfig::default();
    let solver = ScfSolver { config: config.scf };
    let mut scf = solver.solve(&dimer);
    rec.set("dfpt.scf_probe_s", mean_seconds(0.2, || scf = solver.solve(&dimer)));
    rec.set("dfpt.scf_probe_iterations", scf.iterations as f64);
    let dt = mean_seconds(0.0, || {
        for _ in 0..200 {
            black_box(scf.grid.solve_poisson(&scf.density));
        }
    });
    rec.set("dfpt.poisson_probe_us", dt / 200.0 * 1e6);
    rec.set(
        "dfpt.polarizability_probe_s",
        mean_seconds(0.2, || drop(black_box(polarizability(&scf, &config.response)))),
    );
    (scf.basis.len(), scf.grid.dims, scf.density)
}

fn cache_probes(rec: &mut Record) {
    let system = WaterBoxBuilder::new(64).seed(42).build();
    let jobs = Decomposition::new(&system, DecompositionParams::default()).jobs;
    let engine = qfr_model::ForceFieldEngine::new();
    let frags: Vec<FragmentStructure> = jobs.iter().map(|j| j.structure(&system)).collect();
    let responses: Vec<_> = frags.iter().map(|f| engine.compute(f)).collect();

    let cache = FragmentCache::with_capacity(256 << 20);
    let t = Instant::now();
    for (frag, resp) in frags.iter().zip(&responses) {
        cache.insert_precomputed(frag, resp.clone());
    }
    rec.set("cache.insert_us", t.elapsed().as_secs_f64() / frags.len() as f64 * 1e6);

    // Warm lookups: key hashing plus the clone the workflow makes of a hit.
    let dt = mean_seconds(0.1, || {
        for frag in &frags {
            let (resp, _) = cache.get_or_compute(frag, || unreachable!("every key is resident"));
            black_box((*resp).clone());
        }
    });
    rec.set("cache.lookup_hit_us", dt / frags.len() as f64 * 1e6);
}

pub fn run_probes() -> Record {
    let mut rec = Record::default();
    host_probes(&mut rec);
    let (n_basis, grid, density) = dfpt_probes(&mut rec);
    linalg_probes(&mut rec, n_basis, grid, &density);
    cache_probes(&mut rec);
    rec
}
