//! CI counter-based performance-regression gate.
//!
//! Runs a set of **pinned deterministic workloads** — a scheduled Raman
//! run with injected faults, one real DFPT displacement cycle, a modeled
//! offload pricing pass, and a simulator fault run — then snapshots the
//! deterministic counter registry (`qfr_obs::counter::deterministic_json`).
//!
//! - `--write FILE` stores the snapshot as the committed baseline;
//! - `--check FILE` compares against the baseline and exits non-zero on
//!   any drift, printing a per-counter diff;
//! - no flag prints the snapshot.
//!
//! Because the gate compares *deterministic counters* (FLOPs, GEMM
//! launches, Lanczos steps, task lifecycle counts) rather than wall-clock,
//! it is immune to machine noise: a diff means an algorithmic change
//! (different work performed), which is exactly what a perf gate should
//! flag. Refresh procedure: DESIGN.md §8.

use qfr_bench::arg_value;
use qfr_core::{HessianOperator, RamanWorkflow, ResponseSource, RunPlan};
use qfr_dfpt::displacement::{displacement_cycle, n1_phase_gemm_jobs, DisplacementConfig};
use qfr_dfpt::scf::{ScfConfig, ScfSolver};
use qfr_fragment::{Decomposition, DecompositionParams};
use qfr_geom::WaterBoxBuilder;
use qfr_sched::balancer::SizeSensitivePolicy;
use qfr_sched::fault::{FaultPlan, RecoveryPolicy};
use qfr_sched::machine::MachineModel;
use qfr_sched::offload::ModeledAccelerator;
use qfr_sched::simulator::{simulate, SimConfig};
use qfr_sched::task::protein_workload;

/// The pinned workloads. Every input is a fixed seed or constant; every
/// code path consulted is deterministic for fixed inputs, so the counter
/// snapshot is a pure function of the source code.
fn run_pinned_workloads() {
    // 1. Scheduled Raman run with injected failures and a permanent
    //    (quarantining) fragment: exercises the workflow stages, the
    //    threaded master/leader runtime, the recovery path, and the
    //    solver counters. Exactly-once slot locking in `run_scheduled`
    //    keeps the engine-side counters independent of scheduling races.
    let system = WaterBoxBuilder::new(20).seed(7).build();
    let result = RamanWorkflow::new(system)
        .sigma(25.0)
        .run_scheduled(qfr_sched::RuntimeConfig {
            n_leaders: 2,
            workers_per_leader: 2,
            recovery: RecoveryPolicy { max_attempts: 2, backoff_base: 1e-4, ..Default::default() },
            faults: FaultPlan::with_failure_rate(2024, 0.05).permanent([3]),
            ..Default::default()
        })
        .expect("scheduled run");
    assert!(result.recovery.is_some(), "scheduled run must report recovery");

    // 2. One real DFPT displacement cycle on a water monomer: exercises
    //    SCF, Poisson/FFT, the four response phases, and the GEMM/FLOP
    //    counters of the instrumented kernels.
    let sys = WaterBoxBuilder::new(1).seed(1).build();
    let d = Decomposition::new(&sys, DecompositionParams::default());
    let frag = d.jobs[0].structure(&sys);
    let scf = ScfSolver {
        config: ScfConfig { max_grid_dim: 16, grid_spacing: 0.5, ..Default::default() },
    }
    .solve(&frag);
    let cfg = DisplacementConfig::new(0, 2);
    let (resp, _profile) = displacement_cycle(&scf, &frag, &cfg);

    // 3. Modeled offload pricing over the cycle's real GEMM stream:
    //    exercises the bytes-moved counter for both scattered and batched
    //    execution.
    let jobs = n1_phase_gemm_jobs(&scf, &resp.p1, 48);
    let accel = ModeledAccelerator::from_machine(&MachineModel::orise());
    let _ = accel.scattered_seconds(&jobs);
    let _ = accel.batched_seconds(&jobs, 32);

    // 4. Simulator fault run with an MTBF-derived failure rate (an
    //    800-hour ORISE campaign over 2,000 tasks ≈ 4.8% per attempt —
    //    enough retries and quarantines to pin the recovery counters
    //    without degenerating into all-fail): exercises the
    //    discrete-event executor's (shared) lifecycle counters.
    let n_frag = 2_000;
    let plan = FaultPlan::from_machine(&MachineModel::orise(), 800.0, n_frag, 11);
    let _report = simulate(
        Box::new(SizeSensitivePolicy::with_defaults(protein_workload(n_frag, 1))),
        &SimConfig {
            n_leaders: 100,
            faults: plan,
            recovery: RecoveryPolicy { max_attempts: 3, backoff_base: 0.5, ..Default::default() },
            ..Default::default()
        },
    );

    // 5. Checkpoint/restart cycle: a checkpointed scheduled run, a
    //    simulated kill (every third job survives in the checkpoint), and
    //    a same-seed restart. Pins `core.checkpoint.saves`,
    //    `core.checkpoint.jobs_resumed`, and — through the exactly-once
    //    slot locking — that the restart recomputes only the missing jobs
    //    (`model.engine.fragments`).
    let ckpt = std::env::temp_dir().join("qfr_metrics_baseline.qfrc");
    std::fs::remove_file(&ckpt).ok();
    let wf =
        RamanWorkflow::new(WaterBoxBuilder::new(10).seed(11).build()).sigma(25.0).lanczos_steps(40);
    let sched = || RunPlan {
        checkpoint: Some(ckpt.clone()),
        ..RunPlan::new(
            ResponseSource::Scheduler(qfr_sched::RuntimeConfig {
                n_leaders: 2,
                workers_per_leader: 2,
                ..Default::default()
            }),
            HessianOperator::InCore,
        )
    };
    wf.execute(sched()).expect("checkpointed run");
    qfr_core::checkpoint::drop_jobs(
        &ckpt,
        &wf.decompose(),
        wf.system(),
        qfr_model::ForceFieldEngine::NAME,
        |j| j % 3 != 0,
    )
    .expect("partial checkpoint");
    let restarted = wf.execute(sched()).expect("restarted run");
    assert!(
        restarted.recovery.as_ref().is_some_and(|r| r.resumed_jobs > 0),
        "restart must resume from the checkpoint"
    );
    std::fs::remove_file(&ckpt).ok();

    // 6. Content-addressed cache cycle: a cold + warm cached run. Misses
    //    equal the distinct fragment keys of the cold run, warm-run hits
    //    equal the job count, and `cache.bytes` the resident payload —
    //    all deterministic because the working set fits capacity. Pins
    //    `cache.hits` / `cache.misses` / `cache.bytes` in the gate (and
    //    the gate asserts hits > 0 below).
    let cache = std::sync::Arc::new(qfr_cache::FragmentCache::with_capacity(256 << 20));
    let wf = RamanWorkflow::new(WaterBoxBuilder::new(12).seed(13).build())
        .sigma(25.0)
        .lanczos_steps(40)
        .with_cache(cache);
    let cold = wf.run().expect("cold cached run");
    let warm = wf.run().expect("warm cached run");
    assert_eq!(
        warm.spectrum.intensities, cold.spectrum.intensities,
        "cache must preserve bit-identity"
    );

    // 7. Graph decomposition of the three non-chain scenarios (ligand,
    //    disulfide bridge, polymer melt): pins the covalent partitioner's
    //    `fragment.graph.partitions` / `fragment.graph.bonds_cut`
    //    counters — a drift means the bond scoring, bridge detection or
    //    tree partitioning changed the cuts it makes.
    for (name, seed) in [("protein-ligand", 3), ("disulfide", 5), ("polymer-melt", 7)] {
        let sys = qfr_geom::build_scenario(name, seed).expect("known scenario");
        let d = Decomposition::new(&sys, DecompositionParams::default());
        assert!(d.stats.n_graph_partitions > 0, "{name} must take the graph path");
    }

    // 8. Packed-panel kernel (DESIGN.md §10): one fixed-seed GEMM through
    //    the packed driver. Pins `linalg.gemm.packed_calls` (and the gate
    //    asserts it is nonzero below).
    let a = qfr_linalg::DMatrix::from_fn(96, 64, |i, j| ((i * 31 + j * 7) % 17) as f64 - 8.0);
    let b = qfr_linalg::DMatrix::from_fn(64, 80, |i, j| ((i * 13 + j * 5) % 19) as f64 - 9.0);
    let mut c = qfr_linalg::DMatrix::zeros(96, 80);
    qfr_linalg::gemm::gemm_packed(&mut c, &a, &b, 1.0, 0.0);
}

/// Parses the compact `{"name":value,...}` object the counter registry
/// emits. Hand-rolled on purpose: counter names contain no escapes.
fn parse_counters(json: &str) -> Vec<(String, u64)> {
    let inner = json.trim().trim_start_matches('{').trim_end_matches('}');
    inner
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (name, value) = pair.split_once(':').expect("malformed counter pair");
            (name.trim().trim_matches('"').to_string(), value.trim().parse().expect("count"))
        })
        .collect()
}

fn main() {
    qfr_obs::reset_all();
    qfr_linalg::flops::reset();
    run_pinned_workloads();
    let snapshot = qfr_obs::counter::deterministic_json();

    // The pinned workloads traverse the DFPT hot path, so the symmetry
    // strength reduction must have fired: a zero here means the symmetric
    // call sites regressed to the general GEMM.
    let saved = qfr_obs::counter::value_of("linalg.gemm.flops_saved_symmetry").unwrap_or(0);
    assert!(saved > 0, "linalg.gemm.flops_saved_symmetry must be > 0 on the pinned workload");
    let syrk_calls = qfr_obs::counter::value_of("linalg.syrk.calls").unwrap_or(0);
    assert!(syrk_calls > 0, "linalg.syrk.calls must be > 0 on the pinned workload");
    // The DFPT hot loops must really run through the batched executor: a
    // zero here means the gather points regressed to direct kernel calls.
    let batched = qfr_obs::counter::value_of("linalg.batch.jobs").unwrap_or(0);
    assert!(batched > 0, "linalg.batch.jobs must be > 0 on the pinned workload");
    // The cached workload's warm run must actually be served from the
    // cache: a zero here means the workflow stopped routing fragment
    // computes through it.
    let cache_hits = qfr_obs::counter::value_of("cache.hits").unwrap_or(0);
    assert!(cache_hits > 0, "cache.hits must be > 0 on the pinned workload");
    // The scenario workload must route through the graph partitioner and
    // actually cut bonds somewhere (the disulfide chains exceed the
    // fragment budget): zeros mean the fallback routing regressed.
    let graph_parts = qfr_obs::counter::value_of("fragment.graph.partitions").unwrap_or(0);
    assert!(graph_parts > 0, "fragment.graph.partitions must be > 0 on the pinned workload");
    let bonds_cut = qfr_obs::counter::value_of("fragment.graph.bonds_cut").unwrap_or(0);
    assert!(bonds_cut > 0, "fragment.graph.bonds_cut must be > 0 on the pinned workload");
    // The packed-panel driver must have fired: a zero means the packed
    // dispatch regressed (DESIGN.md §10).
    let packed_calls = qfr_obs::counter::value_of("linalg.gemm.packed_calls").unwrap_or(0);
    assert!(packed_calls > 0, "linalg.gemm.packed_calls must be > 0 on the pinned workload");

    if let Some(path) = arg_value("--write") {
        std::fs::write(&path, format!("{snapshot}\n")).expect("write baseline");
        println!("baseline written to {path}");
        return;
    }
    if let Some(path) = arg_value("--check") {
        let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        if baseline.trim() == snapshot.trim() {
            println!("metrics gate PASS: counters match {path}");
            return;
        }
        eprintln!("metrics gate FAIL: deterministic counters drifted from {path}");
        let old: std::collections::BTreeMap<_, _> = parse_counters(&baseline).into_iter().collect();
        let new: std::collections::BTreeMap<_, _> = parse_counters(&snapshot).into_iter().collect();
        for name in old.keys().chain(new.keys()).collect::<std::collections::BTreeSet<_>>() {
            match (old.get(name), new.get(name)) {
                (Some(a), Some(b)) if a == b => {}
                (Some(a), Some(b)) => eprintln!("  {name}: baseline {a} -> current {b}"),
                (Some(a), None) => eprintln!("  {name}: baseline {a} -> (missing)"),
                (None, Some(b)) => eprintln!("  {name}: (new) -> current {b}"),
                (None, None) => unreachable!(),
            }
        }
        eprintln!(
            "\nIf the change is intentional, refresh with:\n  \
             cargo run --release -p qfr-bench --bin metrics_baseline -- --write {path}"
        );
        std::process::exit(1);
    }
    println!("{snapshot}");
}
