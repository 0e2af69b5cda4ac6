//! Packed-panel GEMM microkernel ablation (DESIGN.md §10).
//!
//! Sweeps fragment-realistic GEMM shapes across the slice-tiled blocked
//! and the packed-panel kernel, reporting achieved GFLOP/s per kernel and
//! pinning that both produce the same values.
//!
//! Floor-gated metric (`baselines/bench_floors.json`):
//! `speedup_packed_large` — packed vs blocked GFLOP/s, worst of the
//! 256/512 size classes; the floor sits at the measured value minus noise.

use qfr_bench::{fast_mode, header, row, scaled, write_record};
use qfr_linalg::flops;
use qfr_linalg::gemm::{gemm_blocked, gemm_packed};
use qfr_linalg::DMatrix;
use std::time::Instant;

fn sample(m: usize, n: usize, seed: u64) -> DMatrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    DMatrix::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// Best-of-`reps` wall seconds for one kernel invocation.
fn best_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct ShapeResult {
    label: &'static str,
    large: bool,
    gflops_blocked: f64,
    gflops_packed: f64,
}

fn sweep_shape(label: &'static str, m: usize, n: usize, k: usize, large: bool) -> ShapeResult {
    // Best-of-N wall time; even fast mode takes best-of-3 — the
    // `speedup_packed_large` floor sits on these numbers and a single
    // noisy rep on a loaded CI host could breach it spuriously.
    let reps = scaled(5, 3);
    let a = sample(m, k, 1);
    let b = sample(k, n, 2);
    let gf = flops::gemm_flops(m, n, k) as f64 / 1e9;
    let mut c = DMatrix::zeros(m, n);
    let s_blocked = best_seconds(reps, || gemm_blocked(&mut c, &a, &b, 1.0, 0.0));
    let mut c_packed = DMatrix::zeros(m, n);
    let s_packed = best_seconds(reps, || gemm_packed(&mut c_packed, &a, &b, 1.0, 0.0));
    // Packed kernels are value-identical to blocked; pin that here so the
    // speedup numbers are never comparing different results.
    assert_eq!(c.as_slice(), c_packed.as_slice(), "packed diverged from blocked");
    ShapeResult { label, large, gflops_blocked: gf / s_blocked, gflops_packed: gf / s_packed }
}

fn main() {
    header("ablation: packed-panel GEMM microkernels");
    let shapes: &[(&str, usize, usize, usize, bool)] = &[
        ("64^3", 64, 64, 64, false),
        ("128^3", 128, 128, 128, false),
        ("256^3", 256, 256, 256, true),
        ("512^3", 512, 512, 512, true),
        ("grid-panel 512x32x32", 512, 32, 32, false),
        ("fock 64x64x512", 64, 64, 512, false),
    ];
    let widths = [22, 9, 9, 9];
    row(&["shape", "blocked", "packed", "speedup"], &widths);
    let mut results = Vec::new();
    for &(label, m, n, k, large) in shapes {
        let r = sweep_shape(label, m, n, k, large);
        row(
            &[
                r.label,
                &format!("{:.2}", r.gflops_blocked),
                &format!("{:.2}", r.gflops_packed),
                &format!("{:.2}x", r.gflops_packed / r.gflops_blocked),
            ],
            &widths,
        );
        results.push(r);
    }
    let speedup_large = results
        .iter()
        .filter(|r| r.large)
        .map(|r| r.gflops_packed / r.gflops_blocked)
        .fold(f64::INFINITY, f64::min);
    println!("\npacked speedup (worst large class): {speedup_large:.2}x");

    let shape_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"shape\":\"{}\",\"gflops_blocked\":{:.4},\"gflops_packed\":{:.4}}}",
                r.label, r.gflops_blocked, r.gflops_packed
            )
        })
        .collect();
    write_record(
        "ablation_gemm",
        &format!(
            "{{\"fast\":{},\"shapes\":[{}],\"speedup_packed_large\":{:.4}}}",
            fast_mode(),
            shape_json.join(","),
            speedup_large
        ),
    );
}
