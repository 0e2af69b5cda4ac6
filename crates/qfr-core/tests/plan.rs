//! The `RunPlan` contract: every response-source × operator × checkpoint
//! cell either reproduces `run()` or is rejected up front with
//! `WorkflowError::UnsupportedPlan` — never a silent downgrade.
//!
//! `model.engine.fragments` is a process global, so every test takes
//! `GUARD` and reads deltas inside the critical section.

use qfr_core::checkpoint::{drop_jobs, CheckpointError, Journal};
use qfr_core::{
    HessianOperator, RamanResult, RamanWorkflow, ResponseSource, RunPlan, ShardConfig,
    WorkflowError,
};
use qfr_geom::WaterBoxBuilder;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const FF: &str = qfr_model::ForceFieldEngine::NAME;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn workflow() -> RamanWorkflow {
    let system = WaterBoxBuilder::new(8).seed(61).build();
    RamanWorkflow::new(system).sigma(30.0).lanczos_steps(60)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qfr_plan_tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn runtime() -> qfr_sched::RuntimeConfig {
    qfr_sched::RuntimeConfig { n_leaders: 2, workers_per_leader: 2, ..Default::default() }
}

fn engine_fragments() -> u64 {
    qfr_obs::counter::value_of("model.engine.fragments").unwrap_or(0)
}

fn assert_bit_identical(got: &RamanResult, want: &RamanResult, cell: &str) {
    assert_eq!(got.spectrum.intensities, want.spectrum.intensities, "Raman, {cell}");
    assert_eq!(got.ir.intensities, want.ir.intensities, "IR, {cell}");
}

fn assert_rejected(result: Result<RamanResult, WorkflowError>, cell: &str) {
    match result {
        Err(WorkflowError::UnsupportedPlan(_)) => {}
        other => panic!("{cell}: expected UnsupportedPlan, got {:?}", other.map(|r| r.n_atoms)),
    }
}

#[test]
fn every_plan_cell_matches_run_or_is_rejected() {
    let _g = lock();
    let dir = temp_dir("cells");
    let reference = workflow().run().expect("reference run");

    let sources = [
        ("rayon", ResponseSource::Rayon),
        ("sequential", ResponseSource::Sequential),
        ("scheduler", ResponseSource::Scheduler(runtime())),
    ];
    let operators = |spill: &Path| {
        [
            ("in-core", HessianOperator::InCore),
            ("dense", HessianOperator::DenseReference),
            ("sharded", HessianOperator::Sharded(ShardConfig::new(3, spill).tile_rows(7))),
        ]
    };
    for (source_name, source) in &sources {
        for checkpointed in [false, true] {
            let spill = dir.join(format!("spill-{source_name}-{checkpointed}"));
            for (operator_name, operator) in operators(&spill) {
                let cell = format!("{source_name} x {operator_name} x checkpoint={checkpointed}");
                let checkpoint = dir.join(format!("{cell}.qfrc"));
                let plan = RunPlan {
                    checkpoint: checkpointed.then(|| checkpoint.clone()),
                    ..RunPlan::new(source.clone(), operator.clone())
                };
                let stores_responses = matches!(operator_name, "in-core" | "dense");
                let legal = !checkpointed || stores_responses;
                let result = workflow().execute(plan);
                if !legal {
                    assert_rejected(result, &cell);
                    assert!(!checkpoint.exists(), "{cell}: a rejected plan wrote a checkpoint");
                    if operator_name == "sharded" {
                        assert!(
                            !spill.exists(),
                            "{cell}: a rejected plan created a spill directory"
                        );
                    }
                    continue;
                }
                let result = result.unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_eq!(result.recovery.is_some(), *source_name == "scheduler", "{cell}");
                assert_eq!(checkpoint.exists(), checkpointed, "{cell}");
                match operator_name {
                    // The dense reference agrees with Lanczos-on-CSR to
                    // solver accuracy, as its dedicated test pins; the dense
                    // plan's IR is Lanczos on the same CSR matrix.
                    "dense" => {
                        let sim = result.spectrum.cosine_similarity(&reference.spectrum);
                        assert!(sim > 0.995, "{cell}: cosine similarity {sim}");
                        assert_eq!(result.ir.intensities, reference.ir.intensities, "{cell}");
                    }
                    _ => {
                        assert_bit_identical(&result, &reference, &cell);
                        assert_eq!(result.hessian_nnz, reference.hessian_nnz, "{cell}");
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_plan_shapes_are_rejected() {
    let _g = lock();
    let dir = temp_dir("shapes");
    let sharded = |shards, tile_rows| {
        let cfg = ShardConfig::new(shards, dir.join("spill")).tile_rows(tile_rows);
        RunPlan::new(ResponseSource::Rayon, HessianOperator::Sharded(cfg))
    };
    assert_rejected(workflow().execute(sharded(0, 7)), "zero shards");
    assert_rejected(workflow().execute(sharded(3, 0)), "zero tile rows");
    let leaderless = qfr_sched::RuntimeConfig { n_leaders: 0, ..runtime() };
    assert_rejected(workflow().run_scheduled(leaderless), "zero leaders");
    assert!(!dir.join("spill").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A complete checkpoint is a partial one with every job recorded: the
/// unscheduled path resumes a partial file and computes only the rest.
#[test]
fn plain_checkpoint_run_recomputes_only_missing_jobs() {
    let _g = lock();
    let dir = temp_dir("partial");
    let path = dir.join("partial.qfrc");
    let wf = workflow();
    let fresh = wf.run().expect("fresh run");
    let n_jobs = fresh.stats.n_jobs;

    let before = engine_fragments();
    let first = wf.run_with_checkpoint(&path).expect("cold checkpointed run");
    assert_eq!(engine_fragments() - before, n_jobs as u64, "cold run computes every job");
    assert_bit_identical(&first, &fresh, "cold checkpointed run");

    // Drop every third record — what a run killed before those jobs
    // settled leaves behind.
    let d = wf.decompose();
    let missing = drop_jobs(&path, &d, wf.system(), FF, |j| j % 3 == 0).expect("drop jobs");
    assert_eq!(missing, n_jobs.div_ceil(3), "the cold run journaled every job");

    let before = engine_fragments();
    let resumed = wf.run_with_checkpoint(&path).expect("resumed run");
    assert_eq!(engine_fragments() - before, missing as u64, "only the missing jobs recompute");
    assert_bit_identical(&resumed, &fresh, "resumed run");
    let journal = Journal::open(&path, &d, wf.system(), FF).expect("reload checkpoint");
    assert_eq!(journal.resumed(), n_jobs, "the resumed run completes the file");

    let before = engine_fragments();
    let again = wf.run_with_checkpoint(&path).expect("fully resumed run");
    assert_eq!(engine_fragments() - before, 0, "a complete file leaves nothing to compute");
    assert_bit_identical(&again, &fresh, "fully resumed run");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that exists but does not load — another system's, cut
/// inside its header, or not a checkpoint at all — stops the run with a
/// typed error before any engine work, and the file keeps its bytes.
#[test]
fn unloadable_checkpoint_is_a_typed_error_and_left_untouched() {
    let _g = lock();
    let dir = temp_dir("foreign");
    let path = dir.join("foreign.qfrc");
    let other = RamanWorkflow::new(WaterBoxBuilder::new(8).seed(62).build()).lanczos_steps(60);
    other.run_with_checkpoint(&path).expect("other system's checkpointed run");
    let foreign = std::fs::read(&path).expect("read checkpoint");
    let own = dir.join("own.qfrc");
    workflow().run_with_checkpoint(&own).expect("this system's checkpointed run");
    let own = std::fs::read(&own).expect("read checkpoint");
    let cases: [(&str, &[u8]); 3] = [
        ("another system", &foreign),
        ("truncated", &own[..20]),
        ("garbage", b"not a checkpoint at all"),
    ];
    for (case, bytes) in cases {
        std::fs::write(&path, bytes).expect("write checkpoint");
        let before = engine_fragments();
        let err = workflow().run_with_checkpoint(&path).err();
        assert_eq!(engine_fragments() - before, 0, "{case}: no engine work");
        match (case, err) {
            ("another system", Some(WorkflowError::Checkpoint(e))) => {
                assert!(matches!(e, CheckpointError::FingerprintMismatch { .. }), "{case}: {e}");
            }
            (_, Some(WorkflowError::Checkpoint(CheckpointError::Format(_)))) => {}
            (_, other) => panic!("{case}: expected a checkpoint error, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).expect("reread"), bytes, "{case}: file touched");
    }
    // The file is another system's, not garbage: it still loads for it.
    std::fs::write(&path, &foreign).expect("restore checkpoint");
    let d = other.decompose();
    let journal = Journal::open(&path, &d, other.system(), FF).expect("load");
    assert_eq!(journal.resumed(), d.jobs.len());
    std::fs::remove_dir_all(&dir).ok();
}

fn resumed_jobs() -> u64 {
    qfr_obs::counter::value_of("core.checkpoint.jobs_resumed").unwrap_or(0)
}

/// A journal cut inside its last record resumes without that record alone:
/// every other job is read back, only the cut one recomputes, and the run
/// completes the file.
#[test]
fn journal_cut_mid_record_loses_only_that_record() {
    let _g = lock();
    let dir = temp_dir("torn");
    let path = dir.join("torn.qfrc");
    let wf = workflow();
    let fresh = wf.run_with_checkpoint(&path).expect("cold checkpointed run");
    let n_jobs = fresh.stats.n_jobs;
    let whole = std::fs::read(&path).expect("read checkpoint");
    std::fs::write(&path, &whole[..whole.len() - 100]).expect("cut checkpoint");

    let (resumed, computed) = (resumed_jobs(), engine_fragments());
    let again = wf.run_with_checkpoint(&path).expect("resumed run");
    assert_eq!(resumed_jobs() - resumed, n_jobs as u64 - 1, "records - 1 resume");
    assert_eq!(engine_fragments() - computed, 1, "only the cut record recomputes");
    assert_bit_identical(&again, &fresh, "torn resume");
    assert_eq!(std::fs::read(&path).expect("reread"), whole, "the run re-appends that record");
    std::fs::remove_dir_all(&dir).ok();
}

/// Any damage but a torn tail — a record of a job past the job count, a job
/// recorded twice, an `m` that is not the job's size, another format
/// version — is `WorkflowError::Checkpoint` before any engine work, with
/// the file unchanged.
#[test]
fn corrupt_journal_is_a_typed_error_and_left_untouched() {
    let _g = lock();
    let dir = temp_dir("corrupt");
    let path = dir.join("corrupt.qfrc");
    let wf = workflow();
    wf.run_with_checkpoint(&path).expect("cold checkpointed run");
    let good = std::fs::read(&path).expect("read checkpoint");
    let d = wf.decompose();
    // Header: magic, version, fingerprint, job count. Each record: job
    // index, m, then its matrices; the first is job 0's.
    let m0 = d.jobs[0].size();
    let second = 24 + 16 + 8 * (9 * m0 * m0 + 27 * m0);
    let word = |at: usize, v: u64| {
        let mut bytes = good.clone();
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        bytes
    };
    let mut v4 = good.clone();
    v4[4..8].copy_from_slice(&4u32.to_le_bytes());
    let cases = [
        ("job past the count", word(second, d.jobs.len() as u64)),
        ("duplicate job", word(second, 0)),
        ("wrong m", word(32, m0 as u64 + 3)),
        ("v4 file", v4),
    ];
    for (case, bytes) in cases {
        std::fs::write(&path, &bytes).expect("write checkpoint");
        let before = engine_fragments();
        match wf.run_with_checkpoint(&path) {
            Err(WorkflowError::Checkpoint(CheckpointError::Version { found: 4, expected: 5 })) => {
                assert_eq!(case, "v4 file");
            }
            Err(WorkflowError::Checkpoint(CheckpointError::Format(why))) => {
                assert_ne!(case, "v4 file", "{why}");
            }
            other => panic!("{case}: expected a checkpoint error, got {:?}", other.err()),
        }
        assert_eq!(engine_fragments() - before, 0, "{case}: no engine work");
        assert_eq!(std::fs::read(&path).expect("reread"), bytes, "{case}: file touched");
    }
    std::fs::remove_dir_all(&dir).ok();
}
