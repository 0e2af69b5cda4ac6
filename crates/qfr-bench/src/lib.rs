//! # qfr-bench
//!
//! The experiment harness: one binary per table/figure of the QF-RAMAN
//! paper's evaluation (see DESIGN.md §5 for the experiment index), plus
//! ablation studies and Criterion microbenchmarks.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig08_load_balance` | Fig. 8 execution-time variation across nodes |
//! | `fig09_speedups` | Fig. 9 step-by-step optimization speedups |
//! | `fig10_strong_scaling` | Fig. 10 strong scaling on both machines |
//! | `fig11_weak_scaling` | Fig. 11 weak scaling throughput |
//! | `table1_peak_performance` | Table I FP64 rates |
//! | `fig12_raman_spectra` | Fig. 12 Raman spectra (gas / water / solvated) |
//! | `fig_scenarios` | graph-decomposition scenarios (ligand / disulfide / polymer) + band checks |
//! | `stats_decomposition` | Section VI-A decomposition statistics |
//! | `ablation_balancer` | policy ablation (design-choice study) |
//! | `ablation_offload_stride` | batch-stride ablation |
//! | `ablation_gagq` | GAGQ vs plain Gauss vs dense accuracy |
//! | `ablation_fold` | chain fold vs concap statistics |
//! | `ablation_faults` | failure-rate sweep + straggler re-issue study |
//! | `ablation_symmetry` | Section V-D strength reduction: syrk kernels + merged displaced-SCF sweep |
//! | `ablation_cache` | content-addressed fragment cache: exact-hit bit-identity and warm hit rate |
//!
//! Every binary prints a human-readable table comparing measured values to
//! the paper's reported ones and writes a JSON record under
//! `target/experiments/`.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

/// Output directory for experiment records (`target/experiments`).
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("cannot create experiments dir");
    dir
}

/// The git commit the workspace is checked out at (`"unknown"` outside a
/// git checkout). Stamped into every experiment record so a floor gate can
/// refuse to compare records produced by different commits.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a JSON record for an experiment as `BENCH_{name}.json` (the
/// `BENCH_` prefix is what CI globs when uploading artifacts). The payload
/// is wrapped as `{"git_sha": ..., "data": <json>}` so every record
/// carries the commit that produced it — `bench_gate` rejects mixed-commit
/// record sets, which is what makes "stale record passes the gate"
/// impossible.
pub fn write_record(name: &str, json: &str) {
    let path = experiments_dir().join(format!("BENCH_{name}.json"));
    let stamped = format!("{{\"git_sha\":\"{}\",\"data\":{json}}}", git_sha());
    fs::write(&path, stamped).expect("cannot write experiment record");
    println!("\n[record written to {}]", path.display());
}

/// Peak resident set size of this process so far, in KiB (Linux `VmHWM`
/// from `/proc/self/status`; 0 on other platforms). The bounded-memory
/// experiments print and record this so CI can assert the sharded path's
/// residency stays under a cap the in-core path exceeds.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// True when the binary should run a scaled-down smoke version of its
/// experiment: `--fast` on the command line or `QFR_BENCH_FAST=1` in the
/// environment (how the CI bench-smoke job invokes every binary).
pub fn fast_mode() -> bool {
    has_flag("--fast") || std::env::var("QFR_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// Picks the full-size or fast-mode value of an experiment parameter.
pub fn scaled<T>(full: T, fast: T) -> T {
    if fast_mode() {
        fast
    } else {
        full
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Simple fixed-width row printer.
pub fn row(cells: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$} ", w = w));
    }
    println!("{line}");
}

/// Parses a `--flag value` style argument.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// True if `--flag` is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_exists_after_call() {
        let d = experiments_dir();
        assert!(d.exists());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.015), "+1.5%");
        assert_eq!(pct(-0.092), "-9.2%");
    }
}
