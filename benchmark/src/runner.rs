//! The parent side: one fresh child process per repetition (so peak RSS and
//! the process-global `qfr-obs` counters belong to exactly one run),
//! round-robin over workloads, the host reference probe before and after
//! every repetition, then the per-layer numbers from one probes child and one
//! staged traced child per workload.

use crate::host::Reference;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::record::Record;
use crate::stats::median;
use crate::workloads::{Kind, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// How many untraced repetitions to make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    Count(usize),
    /// As many as fit in this many seconds (never fewer than three, or two
    /// beside a traced pass).
    Seconds(f64),
}

pub struct Options {
    pub workloads: Vec<&'static Workload>,
    pub reps: Reps,
    pub trace: bool,
}

/// Everything measured for one workload.
#[derive(Default)]
pub struct WorkloadResult {
    pub name: &'static str,
    /// Samples per end-to-end metric, one per untraced repetition.
    pub e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Largest request latency seen (service workload).
    pub request_max_s: f64,
    /// Per-layer metric values (traced runs only), every catalogue name.
    pub layers: BTreeMap<&'static str, f64>,
    /// `span:<name>:{calls,total_s,self_s}` and `staged.*` totals of the staged pass.
    pub spans: BTreeMap<String, f64>,
    /// Deterministic counters of the untraced child (identical across reps).
    pub counters: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    hash: String,
    refs: Vec<f64>,
    e2e_records: Vec<Record>,
}

impl WorkloadResult {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn fail(&mut self, what: String) {
        eprintln!("FAIL {}: {what}", self.name);
        self.failures.push(what);
        self.failed = (self.failed + 1).min(self.attempted.max(1));
    }

    /// Folds one child's outcome into the attempted/failed counts.
    fn account(&mut self, units: u64, child: &Result<Record, String>) {
        self.attempted += units;
        match child {
            Ok(rec) => {
                self.failed += rec.failed.max(u64::from(!rec.failures.is_empty())).min(units);
                for f in &rec.failures {
                    eprintln!("FAIL {}: {f}", self.name);
                }
                self.failures.extend(rec.failures.iter().cloned());
            }
            Err(e) => {
                self.failed += units;
                eprintln!("FAIL {}: {e}", self.name);
                self.failures.push(e.clone());
            }
        }
    }
}

/// Layer metrics that are plain reads of a deterministic counter in the
/// untraced child.
const COUNTER_LAYERS: [(&str, &str); 16] = [
    ("dfpt.scf_iterations", "dfpt.scf.iterations"),
    ("dfpt.scf_solves", "dfpt.scf.solves"),
    ("dfpt.poisson_solves", "dfpt.poisson.solves"),
    ("dfpt.response_cycles", "dfpt.response.cycles"),
    ("linalg.flops", "linalg.flops"),
    ("linalg.gemm_calls", "linalg.gemm.calls"),
    ("linalg.syrk_calls", "linalg.syrk.calls"),
    ("linalg.batch_jobs", "linalg.batch.jobs"),
    ("linalg.batch_launches", "linalg.batch.launches"),
    ("linalg.batch_packed_bytes", "linalg.batch.packed_bytes"),
    ("linalg.fft_transforms", "linalg.fft.transforms"),
    ("linalg.flops_saved_symmetry", "linalg.gemm.flops_saved_symmetry"),
    ("solver.lanczos_runs", "solver.lanczos.runs"),
    ("solver.lanczos_steps", "solver.lanczos.steps"),
    ("solver.gagq_rules", "solver.gagq.rules"),
    ("core.shard_bytes_spilled", "shard.bytes_spilled"),
];

pub struct Runner {
    exe: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    reference: Reference,
    children: usize,
}

impl Runner {
    pub fn new(out_dir: &Path, seed: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Self {
            exe,
            out_dir: out_dir.to_path_buf(),
            seed,
            reference: Reference::new(),
            children: 0,
        })
    }

    /// Runs `--child <target> --mode <mode>` in a scratch directory of its
    /// own under `out/`, removed afterwards, and parses its record.
    pub fn child(&mut self, target: &str, mode: &str, extra: &[String]) -> Result<Record, String> {
        self.children += 1;
        let scratch = self.out_dir.join(format!("tmp-{}-{}", std::process::id(), self.children));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let now_ns = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let output = Command::new(&self.exe)
            .args(["--child", target, "--mode", mode, "--seed", &self.seed.to_string()])
            .args(["--spawned-at-ns", &now_ns.to_string()])
            .arg("--scratch")
            .arg(&scratch)
            .args(extra)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let _ = std::fs::remove_dir_all(&scratch);
        let output = output.map_err(|e| format!("spawn {mode} child: {e}"))?;
        if !output.status.success() {
            return Err(format!("{mode} child of {target} exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        serde_json::from_str(line)
            .ok()
            .and_then(|v| Record::from_json(&v))
            .ok_or_else(|| format!("{mode} child of {target} printed no record"))
    }

    fn e2e_rep(&mut self, w: &Workload, res: &mut WorkloadResult, ref_before: &mut f64) {
        let child = self.child(w.name, "e2e", &[]);
        let ref_after = self.reference.measure();
        res.refs.extend([*ref_before, ref_after]);
        *ref_before = ref_after;
        res.account(w.requests(), &child);
        let Ok(rec) = child else { return };
        let wall = rec.get("wall_s");
        if wall <= 0.0 {
            return; // nothing ran; the failure is already counted
        }
        for m in &END_TO_END {
            let value = match m.name {
                "wall_per_ref" => continue, // needs every reference probe: see `run`
                "atoms_per_s" => rec.get("atoms") / wall,
                name => rec.get(name),
            };
            res.e2e.entry(m.name).or_default().push(value);
        }
        res.request_max_s = res.request_max_s.max(rec.get("core.service_request_max_s"));
        if res.e2e_records.is_empty() {
            res.hash = rec.hash.clone();
            res.counters = rec.counters.clone();
        } else {
            if rec.hash != res.hash {
                res.fail(format!(
                    "spectra differ between repetitions ({} vs {})",
                    rec.hash, res.hash
                ));
            }
            if rec.counters != res.counters {
                let diff: Vec<&String> = rec
                    .counters
                    .keys()
                    .chain(res.counters.keys())
                    .filter(|k| rec.counters.get(*k) != res.counters.get(*k))
                    .collect();
                res.fail(format!("deterministic counters differ between repetitions: {diff:?}"));
            }
        }
        res.e2e_records.push(rec);
    }

    fn staged(&mut self, w: &Workload, res: &mut WorkloadResult) -> Option<Record> {
        let trace = self.out_dir.join(format!("trace-{}.json", w.name));
        let extra = ["--trace-out".to_string(), trace.display().to_string()];
        let child = self.child(w.name, "staged", &extra);
        res.account(w.requests(), &child);
        let rec = child.ok()?;
        if !res.hash.is_empty() && !rec.hash.is_empty() && rec.hash != res.hash {
            res.fail(format!(
                "staged spectra are not bit-identical to the untraced run ({} vs {})",
                rec.hash, res.hash
            ));
        }
        Some(rec)
    }

    /// Runs the plan: probes (traced only), repetition 1 of every workload,
    /// the staged pass of every workload (traced only), then the remaining
    /// repetitions round-robin, so host drift hits every workload alike.
    pub fn run(&mut self, opts: &Options) -> Vec<WorkloadResult> {
        let start = Instant::now();
        let mut results: Vec<WorkloadResult> = opts
            .workloads
            .iter()
            .map(|w| WorkloadResult { name: w.name, ..WorkloadResult::default() })
            .collect();
        let probes = opts.trace.then(|| self.child("host", "probes", &[]));
        let mut staged: Vec<Option<Record>> = opts.workloads.iter().map(|_| None).collect();

        let mut ref_before = self.reference.measure();
        let (mut reps, mut rep_seconds) = (0usize, 0.0f64);
        loop {
            let t = Instant::now();
            for (w, res) in opts.workloads.iter().zip(&mut results) {
                self.e2e_rep(w, res, &mut ref_before);
            }
            rep_seconds += t.elapsed().as_secs_f64();
            reps += 1;
            if reps == 1 && opts.trace {
                for ((w, res), slot) in opts.workloads.iter().zip(&mut results).zip(&mut staged) {
                    *slot = self.staged(w, res);
                }
                ref_before = self.reference.measure();
            }
            let done = match opts.reps {
                Reps::Count(n) => reps >= n,
                Reps::Seconds(budget) => {
                    let min_reps = if opts.trace { 2 } else { 3 };
                    let next_ends = start.elapsed().as_secs_f64() + rep_seconds / reps as f64;
                    reps >= min_reps && next_ends > budget
                }
            };
            if done {
                break;
            }
        }

        // The host changes speed by ~20 % for tens of seconds at a time while
        // a single 0.1 s probe is itself +-5 % noisy, so each repetition is
        // read against the median of all the probes that bracketed this
        // workload's repetitions: that follows the slow changes and adds no
        // noise of its own.
        for res in &mut results {
            let reference = median(&res.refs);
            let walls = res.e2e.get("wall_s").cloned().unwrap_or_default();
            if reference > 0.0 && !walls.is_empty() {
                res.e2e.insert("wall_per_ref", walls.iter().map(|w| w / reference).collect());
            }
        }
        if let Some(probes) = probes {
            let probes = probes.unwrap_or_else(|e| {
                results.iter_mut().for_each(|res| res.fail(format!("probes: {e}")));
                Record::default()
            });
            for ((w, res), staged) in opts.workloads.iter().zip(&mut results).zip(staged) {
                finish_layers(w, res, &probes, &staged.unwrap_or_default());
            }
        }
        results
    }
}

/// Assembles every catalogue per-layer metric from the probes child, the
/// staged child and the untraced repetitions. A layer the workload bypasses
/// reads 0.
fn finish_layers(w: &Workload, res: &mut WorkloadResult, probes: &Record, staged: &Record) {
    let e2e_median = |name: &str| -> Option<f64> {
        let v: Vec<f64> =
            res.e2e_records.iter().filter_map(|r| r.values.get(name).copied()).collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let counter = |layer: &str| {
        let (_, name) = COUNTER_LAYERS.iter().find(|(l, _)| *l == layer)?;
        res.counters.get(*name).map(|&v| v as f64)
    };
    let sample_median = |name: &str| res.e2e.get(name).map(|v| median(v));
    let mut layers = BTreeMap::new();
    for m in &PER_LAYER {
        let value = match m.name {
            "host.ref_s" => Some(median(&res.refs)),
            "linalg.spmv_bw_frac" => {
                let triad = probes.get("host.triad_gbs");
                Some(if triad > 0.0 { staged.get("linalg.spmv_gbs") / triad } else { 0.0 })
            }
            "obs.trace_overhead_frac" => {
                // The staged service pass serialises the eight requests on
                // one thread, so its wall is read against the CPU seconds of
                // the untraced (two-thread) run, not against its makespan.
                let base = if w.kind == Kind::Service { "cpu_s" } else { "wall_s" };
                sample_median(base)
                    .filter(|b| *b > 0.0 && staged.get("staged.wall_s") > 0.0)
                    .map(|b| staged.get("staged.wall_s") / b - 1.0)
            }
            "check.failed_frac" => Some(res.failed_frac()),
            name => staged
                .values
                .get(name)
                .copied()
                .or_else(|| e2e_median(name))
                .or_else(|| probes.values.get(name).copied())
                .or_else(|| counter(name)),
        };
        layers.insert(m.name, value.unwrap_or(0.0));
    }
    res.layers = layers;
    res.spans = staged
        .values
        .iter()
        .filter(|(k, _)| k.starts_with("span:") || k.starts_with("staged."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
}
