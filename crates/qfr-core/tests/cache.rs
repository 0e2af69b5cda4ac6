//! End-to-end cache correctness: spectra must be bit-identical with the
//! content-addressed fragment cache on or off, the deterministic counter
//! contract must hold (same-seed cached sequences emit byte-identical
//! reports), and the checkpoint ↔ cache composition must work both ways.
//!
//! Counter stores are process globals, so every test takes `GUARD` and
//! resets them inside the critical section (same pattern as the restart
//! and observability suites).

use qfr_cache::FragmentCache;
use qfr_core::RamanWorkflow;
use qfr_geom::WaterBoxBuilder;
use std::sync::{Arc, Mutex};

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn workflow() -> RamanWorkflow {
    let system = WaterBoxBuilder::new(10).seed(17).build();
    RamanWorkflow::new(system).sigma(25.0).lanczos_steps(40)
}

fn fresh_cache() -> Arc<FragmentCache> {
    Arc::new(FragmentCache::with_capacity(256 << 20))
}

#[test]
fn cached_spectra_bit_identical_to_uncached() {
    let _g = lock();
    qfr_obs::reset_all();

    let uncached = workflow().run().expect("uncached run");

    let cache = fresh_cache();
    let wf = workflow().with_cache(Arc::clone(&cache));
    let cold = wf.run().expect("cold cached run");
    let warm = wf.run().expect("warm cached run");

    for (name, run) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            run.spectrum.intensities, uncached.spectrum.intensities,
            "{name} cached spectrum must be bit-identical to the uncached run"
        );
        assert_eq!(run.ir.intensities, uncached.ir.intensities);
        assert_eq!(run.hessian_nnz, uncached.hessian_nnz);
    }

    let n_jobs = uncached.stats.n_jobs;
    let stats = cache.stats();
    assert_eq!(stats.misses as usize, n_jobs, "cold run computes every distinct fragment");
    assert_eq!(stats.hits as usize, n_jobs, "warm run is served entirely from the cache");
    assert_eq!(qfr_obs::counter::value_of("cache.hits"), Some(n_jobs as u64));
    assert!(qfr_obs::counter::value_of("cache.bytes").unwrap_or(0) > 0);

    qfr_obs::reset_all();
}

#[test]
fn same_seed_cached_sequences_emit_identical_counter_reports() {
    let _g = lock();

    // One cold + warm cached sequence on a fresh cache and fresh
    // counters, returning the deterministic report it produced. The
    // cache counters qualify for the deterministic gate because the
    // working set fits capacity.
    let sequence = || {
        qfr_obs::reset_all();
        let wf = workflow().with_cache(fresh_cache());
        wf.run().expect("cold run");
        wf.run().expect("warm run");
        (qfr_obs::counter::deterministic_report(), qfr_obs::counter::deterministic_json())
    };

    let (report_a, json_a) = sequence();
    let (report_b, json_b) = sequence();
    assert_eq!(report_a, report_b, "deterministic counter report must be byte-identical");
    assert_eq!(json_a, json_b);
    for name in ["cache.hits", "cache.misses", "cache.bytes"] {
        assert!(report_a.contains(name), "{name} missing from report:\n{report_a}");
    }

    qfr_obs::reset_all();
}

#[test]
fn loaded_checkpoint_prewarms_the_cache() {
    let _g = lock();
    qfr_obs::reset_all();
    let dir = std::env::temp_dir().join("qfr_cache_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.qfrc");
    std::fs::remove_file(&path).ok();

    // First run computes and writes the checkpoint (no cache attached).
    let reference = workflow().run_with_checkpoint(&path).expect("checkpointing run");
    let n_jobs = reference.stats.n_jobs;

    // Second run loads the checkpoint with a *fresh* cache attached: the
    // loaded responses must be installed as a pre-warmed cache slice.
    let cache = fresh_cache();
    let wf = workflow().with_cache(Arc::clone(&cache));
    let resumed = wf.run_with_checkpoint(&path).expect("resumed run");
    assert_eq!(resumed.spectrum.intensities, reference.spectrum.intensities);
    assert_eq!(cache.len(), n_jobs, "every checkpointed response pre-warms the cache");
    assert_eq!(cache.stats().misses, 0, "pre-warming is not a compute");

    // A plain (checkpoint-free) run sharing that cache now hits on every
    // fragment instead of recomputing.
    let before = qfr_obs::counter::value_of("model.engine.fragments").unwrap_or(0);
    let served = wf.run().expect("cache-served run");
    let computed = qfr_obs::counter::value_of("model.engine.fragments").unwrap_or(0) - before;
    assert_eq!(computed, 0, "the pre-warmed cache must satisfy every fragment");
    assert_eq!(cache.stats().hits as usize, n_jobs);
    assert_eq!(served.spectrum.intensities, reference.spectrum.intensities);

    std::fs::remove_file(&path).ok();
    qfr_obs::reset_all();
}

#[test]
fn scheduled_runs_report_per_request_cache_hits() {
    let _g = lock();
    qfr_obs::reset_all();

    let cache = fresh_cache();
    let wf = workflow().with_cache(Arc::clone(&cache));
    let sched =
        || qfr_sched::RuntimeConfig { n_leaders: 2, workers_per_leader: 2, ..Default::default() };
    let cold = wf.run_scheduled(sched()).expect("cold scheduled run");
    let warm = wf.run_scheduled(sched()).expect("warm scheduled run");
    let n_jobs = cold.stats.n_jobs;
    assert_eq!(cold.recovery.as_ref().unwrap().cache_hits, 0, "cold run hits nothing");
    assert_eq!(
        warm.recovery.as_ref().unwrap().cache_hits as usize,
        n_jobs,
        "warm run is served entirely from the cache"
    );
    assert_eq!(warm.spectrum.intensities, cold.spectrum.intensities);

    qfr_obs::reset_all();
}
