//! `qfr-benchmark` — the repository's benchmark.
//!
//! ```text
//! qfr-benchmark [--reps N] [--workloads a,b] [--seed S] [--no-trace] [--out FILE]
//!     every workload: N untraced repetitions round-robin, one staged traced
//!     pass each; prints every metric, writes BENCHMARK.json, out/results.json
//!     and out/trace-<workload>.json
//! qfr-benchmark --workload W --seed S --seconds T --trace 0|1
//!     one contract run: measures for T seconds, last stdout line is the result
//! qfr-benchmark --compare A.json B.json
//! qfr-benchmark --write-golden
//! ```

#![forbid(unsafe_code)]

mod host;
mod metrics;
mod probes;
mod record;
mod report;
mod runner;
mod spans;
mod staged;
mod stats;
mod workloads;

use runner::{Options, Reps, Runner};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use workloads::{Workload, GOLDEN_SEED, WORKLOADS};

/// The benchmark's own directory (holds `golden/`, receives `out/`): the
/// working directory when run as `cd benchmark && cargo run`, `benchmark/`
/// when run from the repository root, else where it was built.
fn bench_dir() -> PathBuf {
    [".", "benchmark", env!("CARGO_MANIFEST_DIR")]
        .iter()
        .map(PathBuf::from)
        .find(|d| d.join("golden").is_dir() && d.join("Cargo.toml").is_file())
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Strictly parsed command line: every flag is known and has its value.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn values(&mut self, name: &str, n: usize) -> Result<Option<Vec<String>>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else { return Ok(None) };
        if self.0.len() < i + 1 + n {
            return Err(format!("{name} takes {n} value(s)"));
        }
        let taken: Vec<String> = self.0.drain(i..i + 1 + n).skip(1).collect();
        Ok(Some(taken))
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        Ok(self.values(name, 1)?.map(|mut v| v.remove(0)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(text) => text.parse().map(Some).map_err(|_| format!("{name}: bad value '{text}'")),
            None => Ok(None),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unknown argument '{extra}'")),
            None => Ok(()),
        }
    }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })
}

fn write_json(path: &Path, doc: &serde_json::Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `--child <target> --mode e2e|staged|probes`: one measured run in this
/// process; its record is the last stdout line.
fn child(mut args: Args, target: String, entered: SystemTime) -> Result<ExitCode, String> {
    let spawned_at = match args.parsed::<u64>("--spawned-at-ns")? {
        Some(ns) => UNIX_EPOCH + Duration::from_nanos(ns),
        None => entered,
    };
    let mode = args.value("--mode")?.ok_or("--child needs --mode")?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(GOLDEN_SEED);
    let scratch = PathBuf::from(args.value("--scratch")?.ok_or("--child needs --scratch")?);
    let dump = args.value("--dump")?.map(PathBuf::from);
    let trace_out = args.value("--trace-out")?.map(PathBuf::from);
    args.finish()?;
    let dir = bench_dir();
    let rec = match mode.as_str() {
        "probes" => probes::run_probes(),
        "e2e" => workloads::run_e2e(
            workload(&target)?,
            seed,
            &dir,
            &scratch,
            dump.as_deref(),
            spawned_at,
        ),
        "staged" => {
            let trace_out = trace_out.ok_or("--mode staged needs --trace-out")?;
            staged::run_staged(workload(&target)?, seed, &dir, &scratch, &trace_out)
        }
        other => return Err(format!("unknown --mode '{other}'")),
    };
    println!("{}", serde_json::to_string(&rec.to_json()).map_err(|e| e.to_string())?);
    Ok(ExitCode::SUCCESS)
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let (text, bad) = report::compare(&read_json(&paths[0])?, &read_json(&paths[1])?);
    print!("{text}");
    Ok(if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Regenerates `golden/<workload>.seed42.json` from one untraced run each.
fn write_golden() -> Result<ExitCode, String> {
    let dir = bench_dir();
    let mut runner = Runner::new(&dir.join("out"), GOLDEN_SEED)?;
    for w in &WORKLOADS {
        let path = workloads::golden_path(&dir, w);
        let rec = runner.child(w.name, "e2e", &["--dump".into(), path.display().to_string()])?;
        if !rec.failures.is_empty() {
            return Err(format!("{}: {}", w.name, rec.failures.join("; ")));
        }
        println!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// One contract run of one workload.
fn contract(mut args: Args, name: String) -> Result<ExitCode, String> {
    let w = workload(&name)?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(GOLDEN_SEED);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(metrics::RUN_SECONDS as f64);
    let trace = match args.parsed::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    args.finish()?;
    let mut runner = Runner::new(&bench_dir().join("out"), seed)?;
    let results = runner.run(&Options { workloads: vec![w], reps: Reps::Seconds(seconds), trace });
    eprint!("{}", report::render(&results));
    let line = report::contract_line(&results[0], trace);
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(if results[0].failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The full suite: every workload, every metric.
fn suite(mut args: Args) -> Result<ExitCode, String> {
    let reps: usize = args.parsed("--reps")?.unwrap_or(3);
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let seed: u64 = args.parsed("--seed")?.unwrap_or(GOLDEN_SEED);
    let selected: Vec<&'static Workload> = match args.value("--workloads")? {
        Some(list) => list.split(',').map(workload).collect::<Result<_, _>>()?,
        None => WORKLOADS.iter().collect(),
    };
    let trace = !args.flag("--no-trace");
    let dir = bench_dir();
    let out =
        args.value("--out")?.map_or_else(|| dir.join("out").join("results.json"), PathBuf::from);
    args.finish()?;

    let mut runner = Runner::new(&dir.join("out"), seed)?;
    let results = runner.run(&Options { workloads: selected, reps: Reps::Count(reps), trace });
    print!("{}", report::render(&results));
    write_json(&out, &report::results_json(&results, seed))?;
    write_json(&dir.join("..").join("BENCHMARK.json"), &metrics::benchmark_json())?;
    println!("\nresults: {}", out.display());
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    println!("failed_frac over all workloads: {failed} failed");
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run(entered: SystemTime) -> Result<ExitCode, String> {
    let mut args = Args(std::env::args().skip(1).collect());
    if let Some(target) = args.value("--child")? {
        return child(args, target, entered);
    }
    if let Some(paths) = args.values("--compare", 2)? {
        args.finish()?;
        return compare(&paths);
    }
    if args.flag("--write-golden") {
        args.finish()?;
        return write_golden();
    }
    match args.value("--workload")? {
        Some(name) => contract(args, name),
        None => suite(args),
    }
}

fn main() -> ExitCode {
    run(SystemTime::now()).unwrap_or_else(|e| {
        eprintln!("qfr-benchmark: {e}");
        ExitCode::from(2)
    })
}
