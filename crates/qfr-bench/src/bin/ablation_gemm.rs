//! Packed-panel GEMM microkernel ablation (DESIGN.md §10).
//!
//! Sweeps fragment-realistic GEMM shapes across the three kernel modes —
//! slice-tiled blocked, packed f64 and packed mixed-precision — reporting
//! achieved GFLOP/s per mode plus
//! the mixed-mode max error against the f64 reference and its analytic
//! tolerance. Ends with an end-to-end check: a model-DFPT Raman spectrum
//! computed under `GemmPrecision::MixedF32` must stay within a max-|Δ|
//! tolerance of the f64 spectrum (the contract `qfr spectrum --precision
//! mixed` ships under).
//!
//! Floor-gated metrics (`baselines/bench_floors.json`):
//! - `speedup_packed_large` — packed vs blocked GFLOP/s, worst of the
//!   256/512 size classes; the floor sits at the measured value minus
//!   noise;
//! - `mixed_err_ratio` / `e2e_err_ratio` — measured mixed error over its
//!   tolerance, must stay ≤ 1.0.

use qfr_bench::{fast_mode, header, row, scaled, write_record};
use qfr_core::{EngineKind, RamanWorkflow};
use qfr_geom::WaterBoxBuilder;
use qfr_linalg::flops;
use qfr_linalg::gemm::{gemm_blocked, gemm_packed};
use qfr_linalg::{DMatrix, GemmPrecision};
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
    gflops_mixed: f64,
    mixed_err: f64,
    mixed_tol: f64,
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
    let s_packed =
        best_seconds(reps, || gemm_packed(&mut c_packed, &a, &b, 1.0, 0.0, GemmPrecision::F64));
    let mut c_mixed = DMatrix::zeros(m, n);
    let s_mixed =
        best_seconds(reps, || gemm_packed(&mut c_mixed, &a, &b, 1.0, 0.0, GemmPrecision::MixedF32));
    // f64 packed kernels are value-identical to blocked; pin that here so
    // the speedup numbers are never comparing different results.
    assert_eq!(c.as_slice(), c_packed.as_slice(), "packed f64 diverged from blocked");
    // Mixed mode: two f32 operand roundings per product, k products per
    // entry, f64 accumulation exact relative to that.
    let mixed_tol = 3.0 * (f32::EPSILON as f64) * k as f64 * a.max_abs() * b.max_abs();
    let mixed_err = c.max_abs_diff(&c_mixed);
    ShapeResult {
        label,
        large,
        gflops_blocked: gf / s_blocked,
        gflops_packed: gf / s_packed,
        gflops_mixed: gf / s_mixed,
        mixed_err,
        mixed_tol,
    }
}

/// Max-|Δ| between two intensity vectors sampled on the same grid.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

fn main() {
    header("ablation: packed-panel GEMM microkernels + mixed precision");
    let shapes: &[(&str, usize, usize, usize, bool)] = &[
        ("64^3", 64, 64, 64, false),
        ("128^3", 128, 128, 128, false),
        ("256^3", 256, 256, 256, true),
        ("512^3", 512, 512, 512, true),
        ("grid-panel 512x32x32", 512, 32, 32, false),
        ("fock 64x64x512", 64, 64, 512, false),
    ];
    let widths = [22, 9, 9, 9, 9, 12];
    row(&["shape", "blocked", "packed", "mixed", "speedup", "mix-err/tol"], &widths);
    let mut results = Vec::new();
    for &(label, m, n, k, large) in shapes {
        let r = sweep_shape(label, m, n, k, large);
        row(
            &[
                r.label,
                &format!("{:.2}", r.gflops_blocked),
                &format!("{:.2}", r.gflops_packed),
                &format!("{:.2}", r.gflops_mixed),
                &format!("{:.2}x", r.gflops_packed / r.gflops_blocked),
                &format!("{:.3}", r.mixed_err / r.mixed_tol),
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
    let mixed_err_ratio = results.iter().map(|r| r.mixed_err / r.mixed_tol).fold(0.0, f64::max);
    println!("\npacked speedup (worst large class): {speedup_large:.2}x");
    println!("mixed error / tolerance (worst shape): {mixed_err_ratio:.3}");

    // End-to-end: the mixed-precision floor under a whole model-DFPT Raman
    // spectrum. Tolerance scales the f64 spectrum's peak intensity by the
    // relative error the kernel sweep bounds — rounding at every gathered
    // GEMM/SYRK cannot move any spectral sample by more than a small
    // multiple of f32 epsilon times the dynamic range.
    header("end-to-end: qfr spectrum --precision mixed vs f64");
    let waters = scaled(3, 2);
    let system = WaterBoxBuilder::new(waters).seed(11).build();
    let run = |prec: GemmPrecision| {
        RamanWorkflow::new(WaterBoxBuilder::new(waters).seed(11).build())
            .engine(EngineKind::ModelDfpt)
            .precision(prec)
            .run()
            .expect("workflow")
            .spectrum
    };
    let spec_f64 = run(GemmPrecision::F64);
    let spec_mixed = run(GemmPrecision::MixedF32);
    let peak = spec_f64.intensities.iter().fold(0.0f64, |m, &i| m.max(i.abs()));
    let e2e_delta = max_abs_diff(&spec_f64.intensities, &spec_mixed.intensities);
    // The DFPT cycle iterates the rounded products through SCF + response
    // self-consistency, so the end-to-end amplification factor is much
    // larger than a single kernel's k·ε bound; 1e-3 relative to the peak
    // is the contract the CLI documents.
    let e2e_tol = 1e-3 * peak;
    let e2e_err_ratio = e2e_delta / e2e_tol;
    println!(
        "waters={} atoms={}: max|Δ| = {:.3e} (tol {:.3e}, ratio {:.3})",
        waters,
        system.n_atoms(),
        e2e_delta,
        e2e_tol,
        e2e_err_ratio
    );
    assert_eq!(spec_f64.wavenumbers, spec_mixed.wavenumbers, "frequency grids must match");

    let shape_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"shape\":\"{}\",\"gflops_blocked\":{:.4},\"gflops_packed\":{:.4},\
                 \"gflops_mixed\":{:.4},\
                 \"mixed_err\":{:.6e},\"mixed_tol\":{:.6e}}}",
                r.label,
                r.gflops_blocked,
                r.gflops_packed,
                r.gflops_mixed,
                r.mixed_err,
                r.mixed_tol
            )
        })
        .collect();
    write_record(
        "ablation_gemm",
        &format!(
            "{{\"fast\":{},\"shapes\":[{}],\"speedup_packed_large\":{:.4},\
             \"mixed_err_ratio\":{:.6},\"e2e_max_delta\":{:.6e},\"e2e_tol\":{:.6e},\
             \"e2e_err_ratio\":{:.6}}}",
            fast_mode(),
            shape_json.join(","),
            speedup_large,
            mixed_err_ratio,
            e2e_delta,
            e2e_tol,
            e2e_err_ratio
        ),
    );
}
