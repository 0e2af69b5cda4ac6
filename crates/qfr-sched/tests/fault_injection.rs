//! Deterministic fault-injection integration tests.
//!
//! The same seeded [`FaultPlan`] is run through the threaded runtime and
//! the discrete-event simulator. Because injected failure decisions are
//! pure functions of `(fragment, attempt)`, both executors must produce
//! *identical* retry and quarantine counters — and both must match the
//! pure [`FaultPlan::forecast`] computed from the task decomposition
//! alone, regardless of thread interleaving or simulated timing.

use qfr_sched::balancer::{Policy, SortedSingletonPolicy};
use qfr_sched::fault::{FaultPlan, RecoveryPolicy};
use qfr_sched::runtime::{run_master_leader_worker, RuntimeConfig};
use qfr_sched::simulator::{simulate, SimConfig};
use qfr_sched::task::{water_dimer_workload, FragmentWorkItem, Task};

/// Drains a policy copy to learn the exact task decomposition.
fn decompose(frags: Vec<FragmentWorkItem>) -> Vec<Task> {
    let mut probe: Box<dyn Policy> = Box::new(SortedSingletonPolicy::new(frags));
    let mut tasks = Vec::new();
    while let Some(t) = probe.next_task() {
        tasks.push(t);
    }
    tasks
}

#[test]
fn runtime_and_simulator_match_the_forecast_exactly() {
    let plan = FaultPlan::with_failure_rate(2024, 0.35).permanent([3, 17]);
    let rec = RecoveryPolicy { max_attempts: 3, backoff_base: 1e-4, straggler_factor: Some(4.0) };
    let frags = water_dimer_workload(30);
    let n = frags.len();

    let forecast = plan.forecast(&decompose(frags.clone()), &rec);
    assert!(forecast.retries >= 2, "scenario should exercise retries: {}", forecast.retries);
    assert!(forecast.quarantined_fragments.contains(&3));
    assert!(forecast.quarantined_fragments.contains(&17));

    // Threaded runtime, wall-clock scheduling.
    let run = run_master_leader_worker(
        Box::new(SortedSingletonPolicy::new(frags.clone())),
        |_| true,
        RuntimeConfig {
            n_leaders: 3,
            workers_per_leader: 1,
            prefetch: true,
            recovery: rec,
            faults: plan.clone(),
        },
    );
    // Discrete-event simulator, virtual-time scheduling.
    let sim = simulate(
        Box::new(SortedSingletonPolicy::new(frags)),
        &SimConfig { n_leaders: 3, recovery: rec, faults: plan, ..Default::default() },
    );

    // Exact counter parity with the forecast in both executors.
    assert_eq!(run.retries, forecast.retries, "runtime retries vs forecast");
    assert_eq!(sim.retries, forecast.retries, "simulator retries vs forecast");
    assert_eq!(run.quarantined_fragments, forecast.quarantined_fragments);
    assert_eq!(sim.quarantined_fragments, forecast.quarantined_fragments);

    // Exactly-once completion of every non-quarantined fragment.
    let done = n - forecast.quarantined_fragments.len();
    assert_eq!(run.fragments_done, done);
    assert_eq!(sim.fragments, done);
    assert_eq!(run.tasks_executed, done, "singleton tasks complete exactly once");
    assert_eq!(sim.tasks_completed, done);
    assert_eq!(run.unfinished_fragments, 0);
    assert_eq!(sim.unfinished_fragments, 0);
}

#[test]
fn retries_are_bounded_by_max_attempts() {
    // A brutal failure rate: every task needs several attempts, many
    // quarantine. The retry count must still respect the per-task cap.
    let plan = FaultPlan::with_failure_rate(7, 0.8);
    let rec = RecoveryPolicy { max_attempts: 2, backoff_base: 1e-4, straggler_factor: None };
    let frags = water_dimer_workload(25);
    let n = frags.len();
    let forecast = plan.forecast(&decompose(frags.clone()), &rec);

    let run = run_master_leader_worker(
        Box::new(SortedSingletonPolicy::new(frags)),
        |_| true,
        RuntimeConfig {
            n_leaders: 2,
            workers_per_leader: 1,
            prefetch: false,
            recovery: rec,
            faults: plan,
        },
    );
    assert_eq!(run.retries, forecast.retries);
    assert!(run.retries <= n * (rec.max_attempts as usize - 1), "retry cap violated");
    assert_eq!(run.quarantined_fragments, forecast.quarantined_fragments);
    assert!(
        !run.quarantined_fragments.is_empty(),
        "an 80% failure rate with 2 attempts should quarantine something"
    );
    // The run returned (no hang) with a partial result and full accounting.
    assert_eq!(run.fragments_done + run.quarantined_fragments.len(), n);
}

#[test]
fn quarantine_is_deterministic_across_repeated_runs() {
    let plan = FaultPlan::with_failure_rate(99, 0.6);
    let rec = RecoveryPolicy { max_attempts: 2, backoff_base: 1e-4, straggler_factor: Some(4.0) };
    let frags = water_dimer_workload(20);
    let reference = plan.forecast(&decompose(frags.clone()), &rec);
    for trial in 0..3 {
        let run = run_master_leader_worker(
            Box::new(SortedSingletonPolicy::new(frags.clone())),
            |_| true,
            RuntimeConfig {
                n_leaders: 4,
                workers_per_leader: 1,
                prefetch: true,
                recovery: rec,
                faults: plan.clone(),
            },
        );
        assert_eq!(
            run.quarantined_fragments, reference.quarantined_fragments,
            "trial {trial}: quarantine set must not depend on interleaving"
        );
        assert_eq!(run.retries, reference.retries, "trial {trial}");
    }
}

/// A straggler copy of attempt *n* that reports after the eager retry has
/// already issued attempt *n+1* must be dropped as stale: the in-flight
/// entry for attempt *n+1* and every forecastable counter stay untouched.
///
/// Construction: one oversized fragment (dispatched first by the sorted
/// policy) fails permanently and sleeps long enough that the idle second
/// leader gets a duplicate copy. Both copies of attempt 0 are doomed
/// (failure is pure in `(fragment, attempt)`); the first to report
/// concludes the attempt eagerly, so the second — which started strictly
/// later and sleeps just as long — always lands stale.
#[test]
fn stale_straggler_ack_leaves_counters_untouched_runtime() {
    const SLOW: u32 = 0;
    let mut frags = vec![FragmentWorkItem::new(SLOW, 500)];
    frags.extend((1..13).map(|i| FragmentWorkItem::new(i, 6)));
    let n = frags.len();

    let plan = FaultPlan::none().permanent([SLOW]);
    let rec = RecoveryPolicy { max_attempts: 2, backoff_base: 1e-4, straggler_factor: Some(2.0) };
    let forecast = plan.forecast(&decompose(frags.clone()), &rec);
    assert_eq!(forecast.retries, 1, "one eager retry before quarantine");
    assert_eq!(forecast.quarantined_fragments, vec![SLOW]);

    let run = run_master_leader_worker(
        Box::new(SortedSingletonPolicy::new(frags)),
        |item| {
            if item.id == SLOW {
                std::thread::sleep(std::time::Duration::from_millis(150));
            }
            true
        },
        RuntimeConfig {
            n_leaders: 2,
            workers_per_leader: 1,
            prefetch: false,
            recovery: rec,
            faults: plan,
        },
    );

    // The stale copy was observed and dropped...
    assert!(run.reissues >= 1, "slow task must be re-issued: {}", run.reissues);
    assert!(run.stale_dropped >= 1, "straggler ack must be dropped as stale");
    // ...without disturbing any forecastable counter or the quarantine set.
    assert_eq!(run.retries, forecast.retries);
    assert_eq!(run.quarantined_fragments, forecast.quarantined_fragments);
    assert_eq!(run.fragments_done, n - 1);
    assert_eq!(run.unfinished_fragments, 0);
}

/// Simulator twin of the stale-straggler scenario: virtual time makes the
/// whole trajectory deterministic, so the stale drop reproduces exactly.
/// Injected copy latency stretches some first copies; the clean re-issued
/// copy of a doomed attempt then fails first, the eager retry issues
/// attempt n+1, and the stretched copy's Done event lands stale. Counter
/// parity with the forecast must hold for *every* seed, stale drops or not.
#[test]
fn stale_straggler_ack_leaves_counters_untouched_simulator() {
    let rec = RecoveryPolicy { max_attempts: 3, backoff_base: 1e-4, straggler_factor: Some(2.0) };
    let frags = water_dimer_workload(40);
    let tasks = decompose(frags.clone());
    let mut saw_stale = false;
    for seed in 0..60u64 {
        let plan = FaultPlan::with_failure_rate(seed, 0.3).stragglers(0.3, 30.0);
        let forecast = plan.forecast(&tasks, &rec);
        let sim = simulate(
            Box::new(SortedSingletonPolicy::new(frags.clone())),
            &SimConfig { n_leaders: 3, recovery: rec, faults: plan, ..Default::default() },
        );
        assert_eq!(sim.retries, forecast.retries, "seed {seed}");
        assert_eq!(sim.quarantined_fragments, forecast.quarantined_fragments, "seed {seed}");
        if sim.stale_dropped > 0 {
            assert!(sim.reissues > 0, "seed {seed}: a stale ack implies a duplicate copy");
            saw_stale = true;
            break;
        }
    }
    assert!(saw_stale, "no seed in 0..60 produced a stale straggler ack");
}

#[test]
fn leader_death_and_failures_compose() {
    // One leader dies after two tasks AND fragments fail intermittently:
    // survivors absorb the bounced work and the retry counters still match
    // the forecast (death re-dispatches at the same attempt, costing no
    // retry). Whether the threaded leader 0 reaches its quota before its
    // peers drain the pool is a thread-scheduling race, so the death itself
    // is asserted on the simulator's virtual clock, which drives the same
    // ledger; the threaded runtime must match the forecast either way.
    let plan = FaultPlan::with_failure_rate(5, 0.25).kill_leader_after(0, 2);
    let rec = RecoveryPolicy { max_attempts: 3, backoff_base: 1e-4, straggler_factor: Some(4.0) };
    let frags = water_dimer_workload(24);
    let forecast = plan.forecast(&decompose(frags.clone()), &rec);
    let done = frags.len() - forecast.quarantined_fragments.len();

    let sim = simulate(
        Box::new(SortedSingletonPolicy::new(frags.clone())),
        &SimConfig { n_leaders: 3, recovery: rec, faults: plan.clone(), ..Default::default() },
    );
    assert_eq!(sim.nodes_died, 1);
    assert_eq!(sim.retries, forecast.retries);
    assert_eq!(sim.quarantined_fragments, forecast.quarantined_fragments);
    assert_eq!(sim.fragments, done);
    assert_eq!(sim.unfinished_fragments, 0, "two survivors must finish everything");

    let run = run_master_leader_worker(
        Box::new(SortedSingletonPolicy::new(frags)),
        |_| true,
        RuntimeConfig {
            n_leaders: 3,
            workers_per_leader: 1,
            prefetch: true,
            recovery: rec,
            faults: plan,
        },
    );
    assert!(run.leaders_died <= 1, "only leader 0 has a death quota");
    assert_eq!(run.retries, forecast.retries);
    assert_eq!(run.quarantined_fragments, forecast.quarantined_fragments);
    assert_eq!(run.fragments_done, done);
    assert_eq!(run.unfinished_fragments, 0, "two survivors must finish everything");
}
