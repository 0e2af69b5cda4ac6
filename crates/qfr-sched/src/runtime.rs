//! The real master/leader/worker runtime on OS threads (Fig. 3).
//!
//! - The **master** serves task-assignment requests over crossbeam channels
//!   (the `leader-available` / `task-assignment` signals of Fig. 4(a)). It
//!   decides nothing itself: every message becomes a transition of the
//!   recovery [`ledger`] on the wall clock, and the assignments the ledger
//!   returns are sent out.
//! - Each **leader** pulls tasks, partitions every fragment's displacement
//!   set statically across its **workers** (scoped threads), and reports
//!   completion or failure back to the master. A leader scheduled to die
//!   ([`FaultPlan::kill_leader_after`]) bounces what it still receives.
//! - **Prefetching** (Fig. 4(d)): a leader requests its next task while the
//!   current one is still executing, hiding the master round-trip.
//!
//! The recovery contract — eager retry, quarantine, straggler re-issue,
//! exactly-once crediting, conservation — is stated once, in
//! [`crate::ledger`]. What stays here is the leader-side arbiter of
//! exactly-once crediting: a stale copy's result is real work, so the
//! leaders, not the ledger, decide which successful copy of a task counts.

use crate::balancer::Policy;
use crate::fault::{FaultPlan, RecoveryPolicy};
use crate::ledger::{self, Assignment, Ledger, Outcome, Totals};
use crate::task::{FragmentWorkItem, Task};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use qfr_obs::trace;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Runtime shape and fault/recovery configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of leader threads.
    pub n_leaders: usize,
    /// Worker threads per leader (static displacement partitioning).
    pub workers_per_leader: usize,
    /// Whether leaders prefetch their next task.
    pub prefetch: bool,
    /// Retry, backoff and straggler re-issue policy.
    pub recovery: RecoveryPolicy,
    /// Injected faults (none by default).
    pub faults: FaultPlan,
}

impl Default for RuntimeConfig {
    /// The default shape: 4 leaders x 2 workers, prefetching, default
    /// recovery policy, no injected faults.
    fn default() -> Self {
        Self {
            n_leaders: 4,
            workers_per_leader: 2,
            prefetch: true,
            recovery: RecoveryPolicy::default(),
            faults: FaultPlan::none(),
        }
    }
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock seconds from first dispatch to last completion.
    pub makespan: f64,
    /// Per-leader busy seconds (first successful executions only).
    pub leader_busy: Vec<f64>,
    /// Tasks completed, each counted exactly once.
    pub tasks_executed: usize,
    /// Distinct fragments completed successfully.
    pub fragments_done: usize,
    /// Failure-triggered re-queues (retry attempts scheduled), each at the
    /// *first* failed copy of an attempt.
    pub retries: usize,
    /// Acknowledgements dropped because their `(attempt, copy)` tag no
    /// longer matched the in-flight entry (straggler copies of an attempt
    /// that an eager retry already concluded). Timing-sensitive.
    pub stale_dropped: usize,
    /// Straggler duplicates issued to idle leaders.
    pub reissues: usize,
    /// Completions discarded because another copy already won.
    pub duplicates_suppressed: usize,
    /// Fragments whose task exhausted `max_attempts` (sorted ids).
    pub quarantined_fragments: Vec<u32>,
    /// Fragments abandoned because every leader died.
    pub unfinished_fragments: usize,
    /// Leaders that died during the run.
    pub leaders_died: usize,
}

impl RunReport {
    /// Relative busy-time deviation range across leaders
    /// `((min-mean)/mean, (max-mean)/mean)` — the Fig. 8 metric.
    pub fn busy_variation(&self) -> (f64, f64) {
        busy_variation(&self.leader_busy)
    }

    /// Whether every input fragment completed (nothing quarantined or
    /// abandoned).
    pub fn is_complete(&self) -> bool {
        self.quarantined_fragments.is_empty() && self.unfinished_fragments == 0
    }

    /// Plain-text run summary followed by the shared observability report
    /// (span aggregates + counter registry).
    pub fn text_report(&self) -> String {
        let (lo, hi) = self.busy_variation();
        let mut out = String::from("-- run report --\n");
        out.push_str(&format!("makespan_s         = {:.6}\n", self.makespan));
        out.push_str(&format!("tasks_executed     = {}\n", self.tasks_executed));
        out.push_str(&format!("fragments_done     = {}\n", self.fragments_done));
        out.push_str(&format!("retries            = {}\n", self.retries));
        out.push_str(&format!("stale_dropped      = {}\n", self.stale_dropped));
        out.push_str(&format!("reissues           = {}\n", self.reissues));
        out.push_str(&format!("duplicates_suppressed = {}\n", self.duplicates_suppressed));
        out.push_str(&format!("quarantined        = {}\n", self.quarantined_fragments.len()));
        out.push_str(&format!("unfinished         = {}\n", self.unfinished_fragments));
        out.push_str(&format!("leaders_died       = {}\n", self.leaders_died));
        out.push_str(&format!("busy_variation     = {lo:+.3}..{hi:+.3}\n"));
        out.push_str(&qfr_obs::report());
        out
    }
}

/// Relative deviation range of per-leader busy times
/// `((min-mean)/mean, (max-mean)/mean)` — the Fig. 8 metric.
pub(crate) fn busy_variation(busy: &[f64]) -> (f64, f64) {
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    if mean <= 0.0 {
        return (0.0, 0.0);
    }
    let min = busy.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = busy.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    ((min - mean) / mean, (max - mean) / mean)
}

// Acknowledgements carry the `(attempt, copy)` tag of the assignment they
// answer; the ledger matches it against the in-flight entry.
enum MasterMsg {
    Available { leader: usize },
    Ack { leader: usize, task_id: u32, attempt: u32, copy: u32, outcome: Outcome },
    Died { leader: usize },
}

/// What the master sends a leader: an assignment, or `None` to shut down.
type LeaderMsg = Option<Assignment>;

/// The leader-side arbiter of exactly-once crediting across straggler
/// duplicates and stale copies.
#[derive(Default)]
struct Arbiter {
    /// Task ids whose first successful copy already reported.
    won_tasks: HashSet<u32>,
    done_fragments: HashSet<u32>,
    tasks_executed: usize,
    duplicates_suppressed: usize,
}

impl Arbiter {
    /// Whether this successful copy of `task` is the first; only the first
    /// credits the task and its fragments.
    fn first_success(&mut self, task: &Task) -> bool {
        let first = self.won_tasks.insert(task.id);
        if first {
            self.done_fragments.extend(task.fragment_ids());
            self.tasks_executed += 1;
        } else {
            self.duplicates_suppressed += 1;
        }
        first
    }
}

/// Translates leader messages into ledger transitions at `t0.elapsed()` and
/// sends out what the ledger assigns, until the ledger is finished.
fn master_loop(
    mut ledger: Ledger,
    inbox: Receiver<MasterMsg>,
    leaders: Vec<Sender<LeaderMsg>>,
    t0: Instant,
) -> Totals {
    let clock = || t0.elapsed().as_secs_f64();
    let mut assigned = Vec::new();
    loop {
        let wake = ledger.dispatch(clock(), &mut assigned);
        for a in assigned.drain(..) {
            leaders[a.leader].send(Some(a)).ok();
        }
        if ledger.finished() {
            for mailbox in &leaders {
                mailbox.send(None).ok();
            }
            break;
        }
        // Time-based work (a backoff expiring, a straggler maturing) must
        // be picked up without waiting for another message.
        let msg = match wake {
            Some(at) => inbox.recv_timeout(Duration::from_secs_f64((at - clock()).max(0.0))),
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match msg {
            Ok(MasterMsg::Available { leader }) => ledger.leader_idle(leader),
            Ok(MasterMsg::Ack { leader, task_id, attempt, copy, outcome }) => {
                ledger.ack(clock(), leader, task_id, attempt, copy, outcome);
            }
            Ok(MasterMsg::Died { leader }) => ledger.leader_died(leader),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    ledger.into_totals()
}

/// Executes one attempt of `task`: its fragments are split statically
/// across the leader's workers. True iff every fragment succeeded.
fn execute<F>(task: &Task, attempt: u32, cfg: &RuntimeConfig, workload: &F) -> bool
where
    F: Fn(&FragmentWorkItem) -> bool + Sync,
{
    let chunk = task.fragments.len().div_ceil(cfg.workers_per_leader);
    std::thread::scope(|workers| {
        let handles: Vec<_> = task
            .fragments
            .chunks(chunk)
            .map(|fragments| {
                workers.spawn(move || {
                    // `&`, not `&&`: a failed attempt still runs every
                    // fragment, like a real partitioned job.
                    fragments
                        .iter()
                        .map(|f| workload(f) && !cfg.faults.fragment_fails(f.id, attempt))
                        .fold(true, |ok, succeeded| ok & succeeded)
                })
            })
            .collect();
        handles.into_iter().fold(true, |ok, h| ok & h.join().expect("worker panicked"))
    })
}

/// One leader: pulls assignments until the master shuts it down and returns
/// its busy seconds (first successful executions only).
fn leader_loop<F, S>(
    leader: usize,
    cfg: &RuntimeConfig,
    workload: &F,
    arbiter: &Mutex<(Arbiter, S)>,
    mailbox: Receiver<LeaderMsg>,
    to_master: Sender<MasterMsg>,
) -> f64
where
    F: Fn(&FragmentWorkItem) -> bool + Sync,
    S: FnMut(&Task),
{
    let death_quota = cfg.faults.death_after(leader);
    let mut busy = 0.0;
    let mut executed = 0usize;
    let mut dead = false;
    let mut pending: Option<Assignment> = None;
    to_master.send(MasterMsg::Available { leader }).ok();
    loop {
        let Assignment { task, attempt, copy, .. } = match pending.take() {
            Some(a) => a,
            None => match mailbox.recv() {
                Ok(Some(a)) => a,
                _ => break,
            },
        };
        let ack = |outcome| MasterMsg::Ack { leader, task_id: task.id, attempt, copy, outcome };
        if dead {
            to_master.send(ack(Outcome::Returned)).ok();
            continue;
        }
        // Prefetch: ask for the next task before executing.
        if cfg.prefetch {
            trace::instant("task.prefetch", &[("leader", leader as i64)]);
            to_master.send(MasterMsg::Available { leader }).ok();
        }
        let exec_span = qfr_obs::span("sched.task.execute");
        let start = Instant::now();
        let ok = execute(&task, attempt, cfg, workload);
        // Injected straggler latency: stretch this copy's execution by the
        // plan's multiplier.
        let stretch = cfg.faults.latency_multiplier(task.id, attempt, copy);
        if stretch > 1.0 {
            std::thread::sleep(start.elapsed().mul_f64(stretch - 1.0));
        }
        let seconds = start.elapsed().as_secs_f64();
        drop(exec_span);
        executed += 1;
        if ok {
            let mut arbiter = arbiter.lock();
            if arbiter.0.first_success(&task) {
                (arbiter.1)(&task);
                busy += seconds;
                ledger::credit_completion(task.id, attempt, leader);
            } else {
                ledger::credit_duplicate();
            }
            to_master.send(ack(Outcome::Completed { seconds })).ok();
        } else {
            trace::instant(
                "task.fail",
                &[
                    ("task", i64::from(task.id)),
                    ("attempt", i64::from(attempt)),
                    ("copy", i64::from(copy)),
                    ("leader", leader as i64),
                ],
            );
            to_master.send(ack(Outcome::Failed)).ok();
        }
        if death_quota.is_some_and(|q| executed >= q) {
            dead = true;
            to_master.send(MasterMsg::Died { leader }).ok();
        }
        if !cfg.prefetch {
            if !dead {
                to_master.send(MasterMsg::Available { leader }).ok();
            }
        } else {
            match mailbox.try_recv() {
                Ok(Some(a)) => pending = Some(a),
                // A `None` here is the master's shutdown broadcast: honor
                // it instead of silently swallowing it and deadlocking in
                // recv().
                Ok(None) => break,
                Err(_) => {}
            }
        }
    }
    busy
}

/// Runs a workload through the three-level hierarchy.
///
/// `workload` processes one fragment (one displacement partition is handled
/// internally by the leader's workers) and returns `true` on success. A
/// `false` — or an injected failure from `cfg.faults` — fails the whole
/// task, which the master retries with backoff up to
/// `cfg.recovery.max_attempts` total attempts before quarantining it.
pub fn run_master_leader_worker<F>(
    policy: Box<dyn Policy>,
    workload: F,
    cfg: RuntimeConfig,
) -> RunReport
where
    F: Fn(&FragmentWorkItem) -> bool + Sync,
{
    run_master_leader_worker_settled(policy, workload, |_| {}, cfg)
}

/// [`run_master_leader_worker`] that hands every task to `settle` once, when
/// its first successful copy credits it and before the master hears of it:
/// when the run returns, every credited task has settled, and a straggler
/// or stale copy never settles again. Calls are serialized. A quarantined
/// task never settles, unless a stale copy of it succeeds later and is
/// credited after all.
pub fn run_master_leader_worker_settled<F, S>(
    policy: Box<dyn Policy>,
    workload: F,
    settle: S,
    cfg: RuntimeConfig,
) -> RunReport
where
    F: Fn(&FragmentWorkItem) -> bool + Sync,
    S: FnMut(&Task) + Send,
{
    assert!(cfg.workers_per_leader > 0, "need at least one worker per leader");
    let ledger = Ledger::new(policy, cfg.recovery, cfg.n_leaders);
    let (to_master, inbox) = unbounded();
    // Unbounded so the master's final None broadcast can never block.
    let (mailboxes, mailbox_rxs): (Vec<_>, Vec<_>) =
        (0..cfg.n_leaders).map(|_| unbounded::<LeaderMsg>()).unzip();
    let arbiter = Mutex::new((Arbiter::default(), settle));

    let t0 = Instant::now();
    let (mut totals, leader_busy) = std::thread::scope(|scope| {
        let master = scope.spawn(move || master_loop(ledger, inbox, mailboxes, t0));
        let leaders: Vec<_> = mailbox_rxs
            .into_iter()
            .enumerate()
            .map(|(leader, mailbox)| {
                let to_master = to_master.clone();
                let (cfg, workload, arbiter) = (&cfg, &workload, &arbiter);
                scope.spawn(move || leader_loop(leader, cfg, workload, arbiter, mailbox, to_master))
            })
            .collect();
        drop(to_master);
        let totals = master.join().expect("master panicked");
        let busy: Vec<f64> =
            leaders.into_iter().map(|h| h.join().expect("leader panicked")).collect();
        (totals, busy)
    });
    let makespan = t0.elapsed().as_secs_f64();

    let (arbiter, _) = arbiter.into_inner();
    // Salvage reconciliation: under an *impure* workload a straggler copy of
    // an earlier attempt can succeed (and credit its fragments) after the
    // master eagerly quarantined the task — the stale ack is dropped, but
    // the result is real. Keep the credit and un-quarantine those
    // fragments; under a pure FaultPlan this is a no-op, so the forecast
    // parity guarantees are untouched.
    totals.quarantined.retain(|f| !arbiter.done_fragments.contains(f));
    totals.assert_conserved(arbiter.done_fragments.len());
    RunReport {
        makespan,
        leader_busy,
        tasks_executed: arbiter.tasks_executed,
        fragments_done: arbiter.done_fragments.len(),
        retries: totals.retries,
        stale_dropped: totals.stale_dropped,
        reissues: totals.reissues,
        duplicates_suppressed: arbiter.duplicates_suppressed,
        quarantined_fragments: totals.quarantined,
        unfinished_fragments: totals.unfinished,
        leaders_died: totals.leaders_died,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{SizeSensitivePolicy, SortedSingletonPolicy};
    use crate::task::{protein_workload, water_dimer_workload};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spin_for(cost: f64) {
        // Busy work proportional to cost (deterministic, ~microseconds).
        let iters = (cost * 40.0) as u64;
        let mut acc = 0.0_f64;
        for i in 0..iters {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn processes_every_fragment() {
        let frags = protein_workload(200, 1);
        let policy = SizeSensitivePolicy::with_defaults(frags);
        let report = run_master_leader_worker(
            Box::new(policy),
            |f| {
                spin_for(f.cost() / 50.0);
                true
            },
            RuntimeConfig {
                n_leaders: 4,
                workers_per_leader: 2,
                prefetch: true,
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(report.fragments_done, 200);
        assert_eq!(report.retries, 0);
        assert!(report.quarantined_fragments.is_empty());
        assert_eq!(report.unfinished_fragments, 0);
        assert!(report.is_complete());
        assert!(report.tasks_executed > 0);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn failure_injection_retries_and_recovers() {
        let frags = water_dimer_workload(60);
        let policy = SizeSensitivePolicy::with_defaults(frags);
        // Fragment 7 fails on its first *execution* only — impure on
        // purpose, to exercise the workload-reported failure path. Straggler
        // re-issue is disabled: a duplicate copy would be the second
        // execution and could succeed before the original's failure ack
        // lands, legitimately completing the task with zero retries.
        let failures = AtomicUsize::new(0);
        let report = run_master_leader_worker(
            Box::new(policy),
            |f| {
                if f.id == 7 && failures.fetch_add(1, Ordering::SeqCst) == 0 {
                    return false;
                }
                true
            },
            RuntimeConfig {
                n_leaders: 3,
                workers_per_leader: 1,
                prefetch: false,
                recovery: RecoveryPolicy { straggler_factor: None, ..RecoveryPolicy::default() },
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(report.fragments_done, 60, "all fragments recover");
        assert!(report.retries >= 1, "the failure must trigger a retry");
        assert!(report.quarantined_fragments.is_empty());
    }

    #[test]
    fn single_leader_single_worker() {
        let frags = water_dimer_workload(10);
        let policy = SizeSensitivePolicy::with_defaults(frags);
        let report = run_master_leader_worker(
            Box::new(policy),
            |_| true,
            RuntimeConfig {
                n_leaders: 1,
                workers_per_leader: 1,
                prefetch: false,
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(report.fragments_done, 10);
        assert_eq!(report.leader_busy.len(), 1);
    }

    #[test]
    fn time_based_straggler_reissued_exactly_once() {
        // Fragment 0's first execution stalls; the other fragments finish
        // fast, the pool drains, and the idle leader receives a duplicate
        // copy of the stalled task, which completes immediately. When the
        // stalled original eventually finishes too, its completion is
        // suppressed: every fragment is credited exactly once.
        let frags = water_dimer_workload(10);
        let first = AtomicUsize::new(0);
        let report = run_master_leader_worker(
            Box::new(SortedSingletonPolicy::new(frags)),
            |f| {
                if f.id == 0 && first.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
                true
            },
            RuntimeConfig {
                n_leaders: 2,
                workers_per_leader: 1,
                prefetch: false,
                recovery: RecoveryPolicy {
                    straggler_factor: Some(5.0),
                    ..RecoveryPolicy::default()
                },
                faults: FaultPlan::none(),
            },
        );
        assert_eq!(report.fragments_done, 10);
        assert!(report.reissues >= 1, "idle leader should have received a straggler copy");
        assert!(
            report.duplicates_suppressed >= 1,
            "the slow original must be suppressed when it finally completes"
        );
        assert_eq!(
            report.tasks_executed, 10,
            "exactly-once: duplicates must not inflate tasks_executed"
        );
        assert_eq!(report.retries, 0, "a straggler re-issue is not a retry");
    }

    #[test]
    fn permanent_failure_is_quarantined_without_hanging() {
        let frags = water_dimer_workload(8);
        let report = run_master_leader_worker(
            Box::new(SortedSingletonPolicy::new(frags)),
            |_| true,
            RuntimeConfig {
                n_leaders: 2,
                workers_per_leader: 1,
                prefetch: true,
                recovery: RecoveryPolicy {
                    max_attempts: 2,
                    backoff_base: 1e-4,
                    straggler_factor: None,
                },
                faults: FaultPlan::none().permanent([3]),
            },
        );
        assert_eq!(report.fragments_done, 7);
        assert_eq!(report.quarantined_fragments, vec![3]);
        assert_eq!(report.retries, 1, "max_attempts=2 means exactly one retry before quarantine");
        assert_eq!(report.unfinished_fragments, 0);
        assert!(!report.is_complete());
        assert_eq!(report.tasks_executed, 7);
    }

    /// A stalled first copy re-issued to the idle leader and a task that
    /// quarantines: `settle` sees every credited fragment exactly once,
    /// whichever copy wins, and never the quarantined one.
    #[test]
    fn settle_sees_each_credited_task_once() {
        let frags = water_dimer_workload(10);
        let first = AtomicUsize::new(0);
        let mut settled = Vec::new();
        let report = run_master_leader_worker_settled(
            Box::new(SortedSingletonPolicy::new(frags)),
            |f| {
                if f.id == 0 && first.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                true
            },
            |task: &Task| settled.extend(task.fragment_ids()),
            RuntimeConfig {
                n_leaders: 2,
                workers_per_leader: 1,
                prefetch: false,
                recovery: RecoveryPolicy {
                    max_attempts: 2,
                    backoff_base: 1e-4,
                    straggler_factor: Some(5.0),
                },
                faults: FaultPlan::none().permanent([3]),
            },
        );
        settled.sort_unstable();
        assert_eq!(settled, [0, 1, 2, 4, 5, 6, 7, 8, 9]);
        assert_eq!(report.quarantined_fragments, vec![3]);
        assert_eq!(report.tasks_executed, 9);
    }

    #[test]
    fn dead_leader_bounces_work_to_survivors() {
        let frags = water_dimer_workload(12);
        let report = run_master_leader_worker(
            Box::new(SortedSingletonPolicy::new(frags)),
            |_| true,
            RuntimeConfig {
                n_leaders: 2,
                workers_per_leader: 1,
                prefetch: true,
                recovery: RecoveryPolicy::default(),
                faults: FaultPlan::none().kill_leader_after(0, 1),
            },
        );
        assert_eq!(report.fragments_done, 12, "the surviving leader must absorb the work");
        assert_eq!(report.leaders_died, 1);
        assert!(report.quarantined_fragments.is_empty());
        assert_eq!(report.unfinished_fragments, 0);
    }

    #[test]
    fn all_leaders_dead_returns_partial_instead_of_hanging() {
        let frags = water_dimer_workload(6);
        let report = run_master_leader_worker(
            Box::new(SortedSingletonPolicy::new(frags)),
            |_| true,
            RuntimeConfig {
                n_leaders: 1,
                workers_per_leader: 1,
                prefetch: false,
                recovery: RecoveryPolicy::default(),
                faults: FaultPlan::none().kill_leader_after(0, 2),
            },
        );
        assert_eq!(report.leaders_died, 1);
        assert_eq!(report.fragments_done, 2);
        assert_eq!(report.unfinished_fragments, 4);
        assert!(!report.is_complete());
    }

    #[test]
    fn busy_variation_metric() {
        let report = RunReport {
            makespan: 1.0,
            leader_busy: vec![0.9, 1.0, 1.1],
            tasks_executed: 3,
            fragments_done: 3,
            retries: 0,
            stale_dropped: 0,
            reissues: 0,
            duplicates_suppressed: 0,
            quarantined_fragments: vec![],
            unfinished_fragments: 0,
            leaders_died: 0,
        };
        let (lo, hi) = report.busy_variation();
        assert!((lo + 0.1).abs() < 1e-12);
        assert!((hi - 0.1).abs() < 1e-12);
    }

    #[test]
    fn balanced_leaders_under_size_sensitive_policy() {
        // Many uneven fragments across 4 leaders: busy times should agree
        // within a loose bound thanks to the shrinking-granularity tail.
        let frags = protein_workload(400, 7);
        let policy = SizeSensitivePolicy::with_defaults(frags);
        let report = run_master_leader_worker(
            Box::new(policy),
            |f| {
                spin_for(f.cost() / 10.0);
                true
            },
            RuntimeConfig {
                n_leaders: 4,
                workers_per_leader: 1,
                prefetch: true,
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(report.fragments_done, 400);
        assert_eq!(report.retries, 0);
        // Wall-clock balance on a real machine is noisy (CI boxes run other
        // work); the *deterministic* balance property is asserted in the
        // simulator tests. Here we only require that no leader was starved
        // or hogged outright.
        let (lo, hi) = report.busy_variation();
        assert!(
            lo > -0.95 && hi < 2.0,
            "leader busy times pathologically unbalanced: {lo:+.2}..{hi:+.2}"
        );
        assert!(report.leader_busy.iter().all(|&b| b > 0.0), "a leader was starved");
    }
}
