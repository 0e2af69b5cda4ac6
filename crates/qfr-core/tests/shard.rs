//! Out-of-core shard spill/restart integration tests.
//!
//! These exercise the QFRS v2 spill container end to end through the
//! public workflow API: a scheduled sharded run is killed by fault
//! injection (a permanently failing shard build quarantines and its spill
//! file is deleted), then rerun against the same spill directory. The
//! deterministic `shard.shards_built` / `shard.shards_resumed` counters
//! prove that *only* the missing shard rebuilds, and the restarted spectrum
//! must be bit-identical to an in-core [`RamanWorkflow::run`].
//!
//! Counter stores are process globals, so every test takes `GUARD` and
//! reads deltas inside the critical section (same pattern as the restart
//! suite) — exact-count assertions are safe here.

use proptest::prelude::*;
use qfr_core::shard::{shard_path, ShardPlan};
use qfr_core::{EngineKind, HessianOperator, RamanWorkflow, ResponseSource, RunPlan, ShardConfig};
use qfr_geom::WaterBoxBuilder;
use std::path::PathBuf;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn workflow() -> RamanWorkflow {
    let system = WaterBoxBuilder::new(10).seed(29).build();
    RamanWorkflow::new(system).sigma(25.0).lanczos_steps(40)
}

fn temp_spill(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qfr_shard_tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn shards_built() -> u64 {
    qfr_obs::counter::value_of("shard.shards_built").unwrap_or(0)
}

fn shards_resumed() -> u64 {
    qfr_obs::counter::value_of("shard.shards_resumed").unwrap_or(0)
}

fn runtime() -> qfr_sched::RuntimeConfig {
    qfr_sched::RuntimeConfig { n_leaders: 2, workers_per_leader: 2, ..Default::default() }
}

#[test]
fn killed_shard_build_restarts_from_spill() {
    let _g = lock();
    let spill = temp_spill("killed_build");
    let k = 4;

    // In-core reference spectrum: the restarted sharded run must match it
    // bit for bit.
    let reference = workflow().run().expect("in-core reference");

    // Scheduled sharded run where shard 0's build fails on every attempt:
    // the runtime injects the fault *after* the workload, so the task
    // quarantines even though a file was written — and the pipeline must
    // then distrust and delete that file so a restart recomputes it.
    let mut rt = runtime();
    rt.faults = qfr_sched::FaultPlan::none().permanent([0]);
    rt.recovery = qfr_sched::RecoveryPolicy {
        max_attempts: 2,
        backoff_base: 1e-4,
        straggler_factor: Some(4.0),
    };
    let before_built = shards_built();
    let faulty = workflow()
        .execute(RunPlan::new(
            ResponseSource::Scheduler(rt),
            HessianOperator::Sharded(ShardConfig::new(k, &spill).tile_rows(7)),
        ))
        .expect("faulty sharded run");
    let built = shards_built() - before_built;
    let recovery = faulty.recovery.as_ref().expect("scheduled run reports recovery");
    // Quarantine is task-granular: shard 0's permanent failure condemns
    // every shard packed into the same task, so anywhere from one to all
    // k shards may quarantine — and each quarantined shard's spill file
    // must be deleted while every healthy shard's file survives.
    assert!(recovery.quarantined_jobs >= 1, "shard 0 must quarantine: {recovery:?}");
    assert!(!recovery.is_complete());
    // Retries find the first attempt's file already valid and skip the
    // rebuild, so every shard builds exactly once.
    assert_eq!(built, k as u64, "each shard builds exactly once despite retries");
    assert!(!shard_path(&spill, 0).exists(), "the quarantined shard's spill file must be deleted");
    let missing: usize = (0..k).filter(|&s| !shard_path(&spill, s).exists()).count();
    assert_eq!(missing, recovery.quarantined_jobs, "deleted files == quarantined shards");

    // Fault-free restart against the same spill directory: only the
    // quarantined shards rebuild, the rest resume from disk, and the
    // spectrum now matches the in-core reference exactly.
    let (before_built, before_resumed) = (shards_built(), shards_resumed());
    let restarted = workflow()
        .run_sharded(ShardConfig::new(k, &spill).tile_rows(7))
        .expect("restarted sharded run");
    assert_eq!(shards_built() - before_built, missing as u64, "only missing shards rebuild");
    assert_eq!(shards_resumed() - before_resumed, (k - missing) as u64);
    assert_eq!(restarted.spectrum.wavenumbers, reference.spectrum.wavenumbers);
    assert_eq!(restarted.spectrum.intensities, reference.spectrum.intensities);
    assert_eq!(restarted.ir.intensities, reference.ir.intensities);
    assert_eq!(restarted.hessian_nnz, reference.hessian_nnz);

    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn truncated_spill_file_rebuilds_only_that_shard() {
    let _g = lock();
    let spill = temp_spill("truncated");
    let k = 4;

    let reference =
        workflow().run_sharded(ShardConfig::new(k, &spill).tile_rows(7)).expect("cold sharded run");

    // Truncate one shard mid-payload — byte-wise what a crash during an
    // unbuffered write would leave behind without the atomic temp-name
    // save. The resume validity check must reject it.
    let victim = shard_path(&spill, 2);
    let bytes = std::fs::read(&victim).expect("read shard file");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate shard file");

    let (before_built, before_resumed) = (shards_built(), shards_resumed());
    let rerun = workflow()
        .run_sharded(ShardConfig::new(k, &spill).tile_rows(7))
        .expect("rerun over truncated spill");
    assert_eq!(shards_built() - before_built, 1, "only the truncated shard rebuilds");
    assert_eq!(shards_resumed() - before_resumed, (k - 1) as u64);
    assert_eq!(rerun.spectrum.intensities, reference.spectrum.intensities);
    assert_eq!(rerun.ir.intensities, reference.ir.intensities);
    assert_eq!(rerun.hessian_nnz, reference.hessian_nnz);

    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn foreign_geometry_spill_is_rejected_and_rebuilt() {
    let _g = lock();
    let spill = temp_spill("foreign_geometry");
    let k = 2;

    // Spill written for one geometry must never be resumed for another:
    // the fingerprint folds the checkpoint geometry hash, so a different
    // seed invalidates every shard file.
    workflow().run_sharded(ShardConfig::new(k, &spill).tile_rows(7)).expect("first geometry");

    let other =
        RamanWorkflow::new(WaterBoxBuilder::new(10).seed(30).build()).sigma(25.0).lanczos_steps(40);
    let reference = other.run().expect("in-core reference, second geometry");
    let (before_built, before_resumed) = (shards_built(), shards_resumed());
    let sharded = other
        .run_sharded(ShardConfig::new(k, &spill).tile_rows(7))
        .expect("second geometry over stale spill");
    assert_eq!(shards_built() - before_built, k as u64, "every stale shard rebuilds");
    assert_eq!(shards_resumed() - before_resumed, 0, "no stale shard may resume");
    assert_eq!(sharded.spectrum.intensities, reference.spectrum.intensities);
    assert_eq!(sharded.hessian_nnz, reference.hessian_nnz);

    std::fs::remove_dir_all(&spill).ok();
}

/// Shards the force field spilled are never resumed by a model-DFPT run of
/// the same system: the spill fingerprint folds the engine's name.
#[test]
fn foreign_engine_spill_is_rejected_and_rebuilt() {
    let _g = lock();
    let spill = temp_spill("foreign_engine");
    let k = 2;
    let dimer = RamanWorkflow::new(WaterBoxBuilder::new(2).seed(42).build()).lanczos_steps(20);
    dimer.run_sharded(ShardConfig::new(k, &spill).tile_rows(7)).expect("force-field spill");

    let (before_built, before_resumed) = (shards_built(), shards_resumed());
    dimer
        .engine(EngineKind::ModelDfpt)
        .run_sharded(ShardConfig::new(k, &spill).tile_rows(7))
        .expect("model-DFPT run over the force-field spill");
    assert_eq!(shards_built() - before_built, k as u64, "every foreign shard rebuilds");
    assert_eq!(shards_resumed() - before_resumed, 0, "no foreign shard may resume");

    std::fs::remove_dir_all(&spill).ok();
}

/// A spill directory from before the container format (QFRS v1) is scratch
/// space: every shard is rebuilt, none resumed, and the spectrum matches.
#[test]
fn v1_spill_directory_is_rebuilt() {
    let _g = lock();
    let spill = temp_spill("v1_rebuilt");
    let k = 3;
    let reference =
        workflow().run_sharded(ShardConfig::new(k, &spill).tile_rows(7)).expect("cold sharded run");
    for s in 0..k {
        let path = shard_path(&spill, s);
        let mut bytes = std::fs::read(&path).expect("read shard file");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write v1 header");
    }
    let (before_built, before_resumed) = (shards_built(), shards_resumed());
    let rerun =
        workflow().run_sharded(ShardConfig::new(k, &spill).tile_rows(7)).expect("rerun over v1");
    assert_eq!(shards_built() - before_built, k as u64, "every v1 shard rebuilds");
    assert_eq!(shards_resumed() - before_resumed, 0, "no v1 shard may resume");
    assert_eq!(rerun.spectrum.intensities, reference.spectrum.intensities);
    std::fs::remove_dir_all(&spill).ok();
}

#[test]
fn sharded_run_bit_identical_to_in_core() {
    let _g = lock();
    let system = WaterBoxBuilder::new(10).seed(51).build();
    let n_atoms = system.n_atoms();
    let wf = RamanWorkflow::new(system).sigma(25.0).lanczos_steps(40);
    let in_core = wf.run().unwrap();
    let dir = temp_spill("bit_identical");
    // K = 40 > 30 atoms: ten shards own no atoms and spill an empty
    // spans block and zero tiles.
    for k in [1, 4, 16, 40] {
        let spill = dir.join(format!("k{k}"));
        let result = wf.run_sharded(ShardConfig::new(k, &spill).tile_rows(7)).unwrap();
        // Block 0 (the spans) holds 72 bytes per dof row; its length is the
        // first table entry, after the 16-byte preamble and six words.
        for (s, atoms) in ShardPlan::new(n_atoms, k).ranges().iter().enumerate() {
            let bytes = std::fs::read(shard_path(&spill, s)).unwrap();
            let spans_len = (72 * 3 * atoms.len() as u64).to_le_bytes();
            assert_eq!(bytes[64..72], spans_len, "K={k} shard {s}");
        }
        // Bit-identity, not cosine similarity: the same add sequence per
        // Hessian slot + row-partitioned streaming makes every f64 op
        // identical.
        assert_eq!(result.spectrum.intensities, in_core.spectrum.intensities, "K={k}");
        assert_eq!(result.ir.intensities, in_core.ir.intensities, "K={k}");
        assert_eq!(result.hessian_nnz, in_core.hessian_nnz, "K={k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_solve_streams_every_tile_once_per_step() {
    let _g = lock();
    let system = WaterBoxBuilder::new(10).seed(51).build();
    let (k, tile_rows, steps) = (4, 7, 40);
    let n_tiles: usize = (ShardPlan::new(system.n_atoms(), k).ranges().iter())
        .map(|atoms| (3 * atoms.len()).div_ceil(tile_rows))
        .sum();
    let wf = RamanWorkflow::new(system).sigma(25.0).lanczos_steps(steps);
    let dir = temp_spill("tiles_per_step");
    let count = |name: &str| qfr_obs::counter::value_of(name).unwrap_or(0);
    let (tiles, column_steps) = (count("shard.tiles_streamed"), count("solver.lanczos.steps"));
    wf.run_sharded(ShardConfig::new(k, &dir).tile_rows(tile_rows)).unwrap();
    // The ten start vectors (7 Raman + 3 IR) advance as one panel: a step
    // is one pass over the tiles, not ten.
    assert_eq!(count("solver.lanczos.steps") - column_steps, 10 * steps as u64);
    assert_eq!(count("shard.tiles_streamed") - tiles, (n_tiles * steps) as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_resume_skips_valid_shards() {
    let _g = lock();
    let system = WaterBoxBuilder::new(8).seed(52).build();
    let wf = RamanWorkflow::new(system).sigma(25.0).lanczos_steps(40);
    let dir = temp_spill("resume_skips");
    let cfg = || ShardConfig::new(3, &dir);
    let built = qfr_obs::counter::value_of("shard.shards_built").unwrap_or(0);
    let first = wf.run_sharded(cfg()).unwrap();
    assert_eq!(qfr_obs::counter::value_of("shard.shards_built"), Some(built + 3));
    let resumed = qfr_obs::counter::value_of("shard.shards_resumed").unwrap_or(0);
    let second = wf.run_sharded(cfg()).unwrap();
    // Nothing rebuilt, all three resumed, same bits out.
    assert_eq!(qfr_obs::counter::value_of("shard.shards_built"), Some(built + 3));
    assert_eq!(qfr_obs::counter::value_of("shard.shards_resumed"), Some(resumed + 3));
    assert_eq!(first.spectrum.intensities, second.spectrum.intensities);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// A shard plan is an exact cover of `0..n_atoms` for any (n, k):
    /// ranges are contiguous, ordered, collectively exhaustive, mutually
    /// exclusive, balanced to within one atom, and `shard_of` inverts them.
    #[test]
    fn shard_plan_is_an_exact_cover(n_atoms in 1usize..5000, k in 1usize..64) {
        let plan = ShardPlan::new(n_atoms, k);
        let ranges = plan.ranges();
        prop_assert_eq!(ranges.len(), k);
        let mut next = 0usize;
        let (lo, hi) = (n_atoms / k, n_atoms / k + 1);
        for (s, r) in ranges.iter().enumerate() {
            prop_assert_eq!(r.start, next, "shard {} must start where {} ended", s, s.wrapping_sub(1));
            prop_assert!(r.len() == lo || r.len() == hi, "shard {} unbalanced: {:?}", s, r);
            for atom in r.clone() {
                prop_assert_eq!(plan.shard_of(atom), s);
            }
            next = r.end;
        }
        prop_assert_eq!(next, n_atoms, "ranges must tile the whole system");
    }
}
