//! Checkpoint/restart integration tests for the scheduled runtime.
//!
//! These exercise the response journal end to end: a run is "killed" with
//! some jobs outstanding (simulated by rewriting its journal without their
//! records — byte-wise what a run killed before they settled leaves
//! behind), then rerun with the same seed. The deterministic engine counter
//! (`model.engine.fragments`) proves that *only* the missing and
//! quarantined jobs re-execute, and the final spectrum must be
//! bit-identical to an uninterrupted run.
//!
//! Counter stores are process globals, so every test takes `GUARD` and
//! resets them inside the critical section (same pattern as the
//! observability suite) — exact-count assertions are safe here.

use qfr_core::checkpoint::{drop_jobs, fingerprint, Journal};
use qfr_core::{HessianOperator, RamanWorkflow, ResponseSource, RunPlan};
use qfr_geom::{ProteinBuilder, SolvatedSystem, WaterBoxBuilder};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const FF: &str = qfr_model::ForceFieldEngine::NAME;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn workflow() -> RamanWorkflow {
    let system = WaterBoxBuilder::new(10).seed(11).build();
    RamanWorkflow::new(system).sigma(25.0).lanczos_steps(40)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qfr_restart_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn engine_fragments() -> u64 {
    qfr_obs::counter::value_of("model.engine.fragments").unwrap_or(0)
}

fn runtime() -> qfr_sched::RuntimeConfig {
    qfr_sched::RuntimeConfig { n_leaders: 2, workers_per_leader: 2, ..Default::default() }
}

/// A scheduled in-core run on `runtime`, journaling to `checkpoint`.
fn sched_plan(checkpoint: &Path, runtime: qfr_sched::RuntimeConfig) -> RunPlan {
    RunPlan {
        checkpoint: Some(checkpoint.to_path_buf()),
        ..RunPlan::new(ResponseSource::Scheduler(runtime), HessianOperator::InCore)
    }
}

/// The runtime of [`runtime`] with a permanent fault on job 0: its task
/// quarantines after two attempts.
fn faulty_runtime() -> qfr_sched::RuntimeConfig {
    qfr_sched::RuntimeConfig {
        faults: qfr_sched::FaultPlan::none().permanent([0]),
        recovery: qfr_sched::RecoveryPolicy {
            max_attempts: 2,
            backoff_base: 1e-4,
            straggler_factor: Some(4.0),
        },
        ..runtime()
    }
}

#[test]
fn restart_recomputes_only_missing_jobs_and_reproduces_the_spectrum() {
    let _g = lock();
    qfr_obs::reset_all();
    let path = temp_path("partial_resume.qfrc");
    std::fs::remove_file(&path).ok();

    // Uninterrupted checkpointed run: the reference spectrum, and every
    // job computed exactly once.
    let wf = workflow();
    let n_jobs = wf.decompose().jobs.len();
    let reference = wf.execute(sched_plan(&path, runtime())).expect("reference run");
    assert_eq!(engine_fragments(), n_jobs as u64, "each job computed exactly once");
    assert_eq!(reference.recovery.as_ref().unwrap().resumed_jobs, 0, "cold start resumes nothing");

    // "Kill" the run with every other job outstanding: rewrite the
    // complete journal without their records.
    let wf = workflow();
    let missing =
        drop_jobs(&path, &wf.decompose(), wf.system(), FF, |j| j % 2 == 0).expect("drop jobs");
    let present = n_jobs - missing;
    assert!(missing > 0 && present > 0, "partial scenario must have both kinds");

    // Same-seed rerun: only the missing jobs may reach the engine.
    let before = engine_fragments();
    let restarted = wf.execute(sched_plan(&path, runtime())).expect("restarted run");
    let recomputed = engine_fragments() - before;
    assert_eq!(recomputed, missing as u64, "exactly the missing jobs re-execute");
    let rec = restarted.recovery.as_ref().unwrap();
    assert_eq!(rec.resumed_jobs, present);
    assert!(rec.is_complete());

    // The spectrum from resumed + recomputed responses is bit-identical.
    assert_eq!(restarted.spectrum.wavenumbers, reference.spectrum.wavenumbers);
    assert_eq!(restarted.spectrum.intensities, reference.spectrum.intensities);
    assert_eq!(restarted.ir.intensities, reference.ir.intensities);
    assert_eq!(restarted.hessian_nnz, reference.hessian_nnz);

    std::fs::remove_file(&path).ok();
    qfr_obs::reset_all();
}

#[test]
fn restart_reattempts_quarantined_jobs() {
    let _g = lock();
    qfr_obs::reset_all();
    let path = temp_path("quarantine_resume.qfrc");
    std::fs::remove_file(&path).ok();

    // Fault-free reference spectrum (no checkpoint involved).
    let reference = workflow().run_scheduled(runtime()).expect("reference run");
    let n_jobs = reference.stats.n_jobs;

    // Checkpointed run with a permanently failing fragment: its task
    // quarantines, and its computed responses must never reach the journal
    // so a restart re-attempts them.
    let faulty = workflow().execute(sched_plan(&path, faulty_runtime())).expect("faulty run");
    let quarantined = faulty.recovery.as_ref().unwrap().quarantined_jobs;
    assert!(quarantined > 0, "the permanent failure must quarantine its task");
    assert!(!faulty.recovery.as_ref().unwrap().is_complete());

    // Fault-free same-seed restart: only the quarantined jobs re-execute
    // and the run completes with the reference spectrum, bit for bit.
    let before = engine_fragments();
    let restarted = workflow().execute(sched_plan(&path, runtime())).expect("restarted run");
    let recomputed = engine_fragments() - before;
    assert_eq!(recomputed, quarantined as u64, "exactly the quarantined jobs re-execute");
    let rec = restarted.recovery.as_ref().unwrap();
    assert_eq!(rec.resumed_jobs, n_jobs - quarantined);
    assert!(rec.is_complete());
    assert_eq!(restarted.spectrum.wavenumbers, reference.spectrum.wavenumbers);
    assert_eq!(restarted.spectrum.intensities, reference.spectrum.intensities);

    std::fs::remove_file(&path).ok();
    qfr_obs::reset_all();
}

/// A quarantined task's responses are computed (the attempts fail only
/// after their fragments ran) but never settle: the journal holds every
/// job except that task's, and a restart recomputes exactly those.
#[test]
fn quarantined_task_never_reaches_the_journal() {
    let _g = lock();
    qfr_obs::reset_all();
    let path = temp_path("quarantine_journal.qfrc");
    std::fs::remove_file(&path).ok();

    let wf = workflow();
    let d = wf.decompose();
    let faulty = wf.execute(sched_plan(&path, faulty_runtime())).expect("faulty run");
    let quarantined = faulty.recovery.as_ref().unwrap().quarantined_jobs;
    assert!(quarantined > 0, "the permanent failure must quarantine its task");
    assert_eq!(engine_fragments(), d.jobs.len() as u64, "quarantined jobs ran too");
    let journal = Journal::open(&path, &d, wf.system(), FF).expect("load journal");
    assert!(!journal.holds(0), "job 0's task reached the journal");
    assert_eq!(journal.resumed(), d.jobs.len() - quarantined, "every other job is journaled");
    let saves = qfr_obs::counter::value_of("core.checkpoint.saves");
    assert_eq!(saves, Some(journal.resumed() as u64), "one record per settled job");

    let before = engine_fragments();
    let restarted = wf.execute(sched_plan(&path, runtime())).expect("restarted run");
    assert_eq!(engine_fragments() - before, quarantined as u64, "exactly that task recomputes");
    assert!(restarted.recovery.as_ref().unwrap().is_complete());
    let journal = Journal::open(&path, &d, wf.system(), FF).expect("reload journal");
    assert_eq!(journal.resumed(), d.jobs.len(), "the restart completes the journal");

    std::fs::remove_file(&path).ok();
    qfr_obs::reset_all();
}

#[test]
fn same_seed_restart_sequences_emit_identical_counter_reports() {
    let _g = lock();
    let path = temp_path("determinism_resume.qfrc");

    // One full "kill and resume" sequence, returning the deterministic
    // counter report it produced.
    let sequence = || {
        qfr_obs::reset_all();
        std::fs::remove_file(&path).ok();
        let wf = workflow();
        wf.execute(sched_plan(&path, runtime())).expect("first run");
        drop_jobs(&path, &wf.decompose(), wf.system(), FF, |j| j % 3 != 0).expect("drop jobs");
        wf.execute(sched_plan(&path, runtime())).expect("restarted run");
        (qfr_obs::counter::deterministic_report(), qfr_obs::counter::deterministic_json())
    };

    let (report_a, json_a) = sequence();
    let (report_b, json_b) = sequence();
    assert_eq!(report_a, report_b, "deterministic counter report must be byte-identical");
    assert_eq!(json_a, json_b);
    assert!(report_a.contains("core.checkpoint.saves"), "saves counter missing:\n{report_a}");
    assert!(report_a.contains("core.checkpoint.jobs_resumed"));
    assert!(report_a.contains("model.engine.fragments"));

    std::fs::remove_file(&path).ok();
    qfr_obs::reset_all();
}

/// Checkpoints and shard spills are keyed by this value, so files written
/// before a change to the structure extraction resume after it only while
/// these literals (printed by the build that wrote them) stand. They are
/// the force-field engine's: the engine's name is folded in last.
#[test]
fn fingerprint_of_fixed_systems_is_pinned() {
    let protein = ProteinBuilder::new(20).seed(42).build();
    let solvated = SolvatedSystem::build(&protein, 6.0, 3.1, 2.4, 43);
    let water = WaterBoxBuilder::new(27).seed(42).build();
    for (system, jobs, pinned) in
        [(solvated, 7178, 0xead3_ee82_97b6_a5ad_u64), (water, 141, 0x8d0b_d628_ac67_af21)]
    {
        let decomposition = RamanWorkflow::new(system.clone()).decompose();
        assert_eq!(decomposition.jobs.len(), jobs);
        assert_eq!(fingerprint(&decomposition, &system), pinned, "{jobs}-job system");
    }
}
