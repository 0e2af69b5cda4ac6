//! Criterion microbenchmarks of the compute kernels behind the paper's
//! per-fragment DFPT cycle: GEMM variants, batched GEMM (elastic
//! offloading's compute primitive), sparse mat-vec (the Lanczos workhorse),
//! the FFT Poisson solver, and the symmetry-aware strength-reduction
//! expressions of Fig. 6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qfr_linalg::batch::{execute_jobs, BatchJob, OffloadMode};
use qfr_linalg::fft::Grid3;
use qfr_linalg::sparse::TripletBuilder;
use qfr_linalg::{blas, gemm, DMatrix};
use std::hint::black_box;

fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    DMatrix::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[32usize, 96, 192] {
        let a = sample(n, n, 1);
        let b = sample(n, n, 2);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = DMatrix::zeros(n, n);
                gemm::gemm_naive(&mut out, black_box(&a), black_box(&b), 1.0, 0.0);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = DMatrix::zeros(n, n);
                gemm::gemm_blocked(&mut out, black_box(&a), black_box(&b), 1.0, 0.0);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, _| {
            bch.iter(|| {
                let mut out = DMatrix::zeros(n, n);
                gemm::gemm_packed(&mut out, black_box(&a), black_box(&b), 1.0, 0.0);
                out
            })
        });
    }
    group.finish();
}

fn bench_batched_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_gemm");
    // The paper's regime: many scattered ~24x24 GEMMs.
    let jobs: Vec<BatchJob> =
        (0..128).map(|i| BatchJob::gemm(sample(24, 24, i), sample(24, 24, 500 + i))).collect();
    group.bench_function("scattered_128x24", |b| {
        b.iter(|| execute_jobs(black_box(&jobs), OffloadMode::Scattered))
    });
    group.bench_function("batched_stride32_128x24", |b| {
        b.iter(|| execute_jobs(black_box(&jobs), OffloadMode::Batched { stride: 32 }))
    });
    group.finish();
}

fn bench_strength_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_strength_reduction");
    let x = sample(256, 64, 7);
    let g = sample(256, 64, 8);
    let mut p = sample(64, 64, 9);
    p.symmetrize_mut();
    group.bench_function("cross_term_naive", |b| {
        b.iter(|| blas::cross_term_naive(black_box(&x), black_box(&g)))
    });
    group.bench_function("cross_term_reduced", |b| {
        b.iter(|| blas::symmetric_cross_term(black_box(&x), black_box(&g)))
    });
    group.bench_function("sandwich_naive", |b| {
        b.iter(|| blas::sandwich_naive(black_box(&x), black_box(&p), black_box(&g)))
    });
    group.bench_function("sandwich_reduced", |b| {
        b.iter(|| blas::symmetric_sandwich(black_box(&x), black_box(&p), black_box(&g)))
    });
    group.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    // Banded Hessian-like matrix, 60k rows, ~90 nnz/row.
    let n = 60_000;
    let mut b = TripletBuilder::new(n, n);
    for i in 0..n {
        for off in 0..45usize {
            let j = (i + off * 7) % n;
            b.push(i, j, 1.0 / (1.0 + off as f64));
            b.push(j, i, 1.0 / (1.0 + off as f64));
        }
    }
    let m = b.build();
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
    let mut y = vec![0.0; n];
    group.bench_function("spmv_60k", |bch| bch.iter(|| m.spmv(black_box(&x), black_box(&mut y))));
    let (x10, mut y10) = (x.repeat(10), vec![0.0; 10 * n]);
    group.bench_function("spmm10_60k", |bch| {
        bch.iter(|| m.spmm(10, black_box(&x10), black_box(&mut y10)))
    });
    group.finish();
}

fn bench_fft_poisson(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[16usize, 32] {
        let real: Vec<f64> = (0..n * n * n).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        group.bench_with_input(BenchmarkId::new("grid3_roundtrip", n), &n, |bch, _| {
            bch.iter(|| {
                let mut g = Grid3::from_real(n, n, n, black_box(&real));
                g.fft();
                g.ifft();
                g
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm, bench_batched_gemm, bench_strength_reduction, bench_spmv, bench_fft_poisson
);
criterion_main!(kernels);
