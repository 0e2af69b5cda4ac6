//! The metric catalogue: every end-to-end and per-layer metric by name,
//! unit and direction, the regression bounds, and the `BENCHMARK.json`
//! description generated from them.

use crate::record::obj;
use crate::workloads::WORKLOADS;
use serde_json::Value;

/// Seconds one contract run (`--workload … --seconds N`) measures for.
pub const RUN_SECONDS: u64 = 20;

/// The command that runs one workload, from the repository root.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "qfr-benchmark",
    "--",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before that counts as a regression. Every
/// time-derived bound sits at the contract's cap of 25 %: ten 20 s runs per
/// workload, made twice on the shared 2-vCPU host this was written on, spread
/// (inter-quartile over median) 2-11 % on `wall_s`, and the host moves
/// between states ~20 % apart that last longer than a run (README.md).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "generated system in, Raman + IR spectra out through the workload's entry \
                  point (service: makespan of the 8 requests), tracing off",
    },
    EndToEnd {
        name: "wall_per_ref",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        meaning: "wall_s over the median of host.ref_s, the fixed reference work timed before \
                  and after every repetition; cancels host-speed drift between sets of runs",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "user + system CPU of the child process over the timed region (/proc/self/stat)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "everything before the timed region, from the runner's spawn call: process \
                  start, geometry build, workflow construction, spill-dir creation, service + \
                  cache construction (one set-up per repetition, median over repetitions)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.08,
        meaning: "VmHWM of the child process at exit",
    },
    EndToEnd {
        name: "atoms_per_s",
        unit: "atoms/s",
        better: Higher,
        bound: 0.25,
        meaning: "atoms in all spectra produced over wall_s (work per second at the stated size)",
    },
    EndToEnd {
        name: "request_p50_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "median submit-to-result latency; 8 samples per repetition on the service \
                  workload, where the max is printed beside it; a batch run is one request",
    },
];

/// A single layer's metric. No bound: it attributes, it does not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const HOST: &str = "denominator only; same invocation, never compared across hosts";
const SETUP: &str = "setup_s, all workloads";
const ASSEMBLE: &str =
    "wall_s on protein40_solvated (~13 %) and water512_incore (~11 %); ~0 on water2_dfpt";
const MODEL: &str = "wall_s on protein40_solvated and water512_incore (~1-2 %); not water2_dfpt; \
                     water128_service only through the 2 cold requests";
const DFPT: &str = "wall_s and cpu_s on water2_dfpt only";
const GEMM: &str = "wall_s on water2_dfpt; force-field workloads issue zero GEMM calls";
const SPMV: &str = "wall_s on the force-field workloads (~25-30 % in core, ~13 % sharded)";
const SOLVER: &str = "largest term of wall_s on every force-field workload; nothing on water2_dfpt";
const BASIS: &str = "peak_rss_mib on water256_sharded and water512_incore";
const CORE: &str = "restates wall_s by stage, every workload";
const SHARD: &str = "wall_s and cpu_s on water256_sharded only";
const SERVICE: &str = "request_p50_s and wall_s on water128_service only";
const CACHE: &str = "request_p50_s on water128_service";
const SCHED: &str = "guards the scheduler runtime; no end-to-end workload routes through it";
const OBS: &str = "cost of the staged traced pass itself";
const CHECK: &str = "correctness; a failure makes the run incorrect";

pub const PER_LAYER: [PerLayer; 96] = [
    layer("host.nproc", "count", Higher, HOST),
    layer("host.llc_mib", "MiB", Higher, HOST),
    layer("host.fma_gflops", "GFLOP/s", Higher, HOST),
    layer("host.triad_gbs", "GB/s", Higher, HOST),
    layer("host.triad_array_mib", "MiB", Higher, HOST),
    layer("host.ref_s", "s", Lower, "denominator of wall_per_ref"),
    layer("geom.build_s", "s", Lower, SETUP),
    layer("geom.atoms", "count", Higher, SETUP),
    layer("fragment.decompose_s", "s", Lower, ASSEMBLE),
    layer("fragment.jobs", "count", Lower, ASSEMBLE),
    layer("fragment.structure_s", "s", Lower, ASSEMBLE),
    layer("fragment.assemble_s", "s", Lower, ASSEMBLE),
    layer("fragment.assemble_nnz", "count", Lower, ASSEMBLE),
    layer("fragment.assemble_mnnz_per_s", "Mnnz/s", Higher, ASSEMBLE),
    layer("model.engine_s", "s", Lower, MODEL),
    layer("model.fragments", "count", Lower, MODEL),
    layer("model.fragment_p50_us", "us", Lower, MODEL),
    layer("model.fragment_p99_us", "us", Lower, MODEL),
    layer("model.fragment_max_us", "us", Lower, MODEL),
    layer("dfpt.engine_s", "s", Lower, DFPT),
    layer("dfpt.fragment_max_s", "s", Lower, DFPT),
    layer("dfpt.scf_iterations", "count", Lower, DFPT),
    layer("dfpt.scf_solves", "count", Lower, DFPT),
    layer("dfpt.poisson_solves", "count", Lower, DFPT),
    layer("dfpt.response_cycles", "count", Lower, DFPT),
    layer("dfpt.scf_probe_s", "s", Lower, DFPT),
    layer("dfpt.scf_probe_iterations", "count", Lower, DFPT),
    layer("dfpt.poisson_probe_us", "us", Lower, DFPT),
    layer("dfpt.polarizability_probe_s", "s", Lower, DFPT),
    layer("linalg.flops", "count", Lower, GEMM),
    layer("linalg.gemm_calls", "count", Lower, GEMM),
    layer("linalg.syrk_calls", "count", Lower, GEMM),
    layer("linalg.batch_jobs", "count", Lower, GEMM),
    layer("linalg.batch_launches", "count", Lower, GEMM),
    layer("linalg.batch_packed_bytes", "B", Lower, GEMM),
    layer("linalg.fft_transforms", "count", Lower, GEMM),
    layer("linalg.flops_saved_symmetry", "count", Higher, GEMM),
    layer("linalg.gemm64_gflops", "GFLOP/s", Higher, GEMM),
    layer("linalg.gemm256_gflops", "GFLOP/s", Higher, GEMM),
    layer("linalg.gemm256_peak_frac", "ratio", Higher, GEMM),
    layer("linalg.batch_probe_gflops", "GFLOP/s", Higher, GEMM),
    layer("linalg.fft_probe_us", "us", Lower, GEMM),
    layer("linalg.vecops_probe_gbs", "GB/s", Higher, SOLVER),
    layer("linalg.spmv_s", "s", Lower, SPMV),
    layer("linalg.spmv_calls", "count", Lower, SPMV),
    layer("linalg.spmv_gbs", "GB/s", Higher, SPMV),
    layer("linalg.spmv_bw_frac", "ratio", Higher, SPMV),
    layer("solver.total_s", "s", Lower, SOLVER),
    layer("solver.raman_s", "s", Lower, SOLVER),
    layer("solver.ir_s", "s", Lower, SOLVER),
    layer("solver.matvec_s", "s", Lower, SOLVER),
    layer("solver.self_s", "s", Lower, SOLVER),
    layer("solver.self_frac", "ratio", Lower, SOLVER),
    layer("solver.matvec_calls", "count", Lower, SOLVER),
    layer("solver.lanczos_runs", "count", Lower, SOLVER),
    layer("solver.lanczos_steps", "count", Lower, SOLVER),
    layer("solver.gagq_rules", "count", Lower, SOLVER),
    layer("solver.lanczos1_s", "s", Lower, SOLVER),
    layer("solver.gagq_probe_ms", "ms", Lower, SOLVER),
    layer("solver.basis_mib", "MiB", Lower, BASIS),
    layer("core.stage_decompose_s", "s", Lower, CORE),
    layer("core.stage_engine_s", "s", Lower, CORE),
    layer("core.stage_assemble_s", "s", Lower, CORE),
    layer("core.stage_solver_s", "s", Lower, CORE),
    layer("core.overhead_s", "s", Lower, CORE),
    layer("core.cores_used", "ratio", Higher, "rises with cpu_s flat when real parallelism lands"),
    layer("core.shard_build_s", "s", Lower, SHARD),
    layer("core.shard_bytes_spilled", "B", Lower, SHARD),
    layer("core.shard_spill_mbs", "MB/s", Higher, SHARD),
    layer("core.shard_open_s", "s", Lower, SHARD),
    layer("core.tile_read_s", "s", Lower, SHARD),
    layer("core.tiles_streamed", "count", Lower, SHARD),
    layer("core.tile_read_mbs", "MB/s", Higher, SHARD),
    layer("core.shard_recompute_ratio", "ratio", Lower, SHARD),
    layer("core.shard_resume_s", "s", Lower, SHARD),
    layer("core.service_miss_request_s", "s", Lower, SERVICE),
    layer("core.service_hit_request_s", "s", Lower, SERVICE),
    layer("core.service_request_max_s", "s", Lower, SERVICE),
    layer("core.service_rejected", "count", Lower, SERVICE),
    layer("cache.hits", "count", Higher, CACHE),
    layer("cache.misses", "count", Lower, CACHE),
    layer("cache.near_hits", "count", Higher, CACHE),
    layer("cache.evictions", "count", Lower, CACHE),
    layer("cache.hit_rate", "ratio", Higher, CACHE),
    layer("cache.resident_mib", "MiB", Lower, "peak_rss_mib on water128_service"),
    layer("cache.lookup_hit_us", "us", Lower, CACHE),
    layer("cache.insert_us", "us", Lower, CACHE),
    layer("sched.runtime_engine_s", "s", Lower, SCHED),
    layer("sched.tasks_completed", "count", Higher, SCHED),
    layer("sched.retries", "count", Lower, SCHED),
    layer("sched.overhead_ratio", "ratio", Lower, SCHED),
    layer("obs.trace_overhead_frac", "ratio", Lower, OBS),
    layer("obs.spans_recorded", "count", Lower, OBS),
    layer("check.raman_err", "1-cos", Lower, CHECK),
    layer("check.ir_err", "1-cos", Lower, CHECK),
    layer("check.failed_frac", "ratio", Lower, CHECK),
];

fn s(text: &str) -> Value {
    Value::String(text.into())
}

/// The `BENCHMARK.json` document: exactly the keys the builder contract
/// names, generated from the tables above.
pub fn benchmark_json() -> Value {
    obj(vec![
        ("command", Value::Array(COMMAND.iter().map(|c| s(c)).collect())),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "x")));
        for (name, unit) in names {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("bad name") && !valid_name("") && !valid_name(".x"));
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound out of range", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{} why too long", w.name);
        }
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_committed_file() {
        let doc = benchmark_json();
        let text = serde_json::to_string_pretty(&doc).unwrap();
        assert!(text.len() < 64 * 1024);
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc);
        let keys: Vec<&str> = match &back {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(back["end_to_end"][0]["name"], "wall_s");
        assert_eq!(back["per_layer"].as_array().unwrap().len(), PER_LAYER.len());
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(committed).expect("BENCHMARK.json at the repo root");
        assert_eq!(serde_json::from_str(&on_disk).unwrap(), doc, "regenerate BENCHMARK.json");
    }
}
