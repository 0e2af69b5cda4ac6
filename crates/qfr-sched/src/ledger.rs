//! The master's recovery ledger: one task state machine, driven by both the
//! threaded [`crate::runtime`] (wall clock) and the discrete-event
//! [`crate::simulator`] (virtual clock).
//!
//! The ledger owns every master-side decision — what to hand to an idle
//! leader, what an acknowledgement means, when a retry or a duplicate is
//! due, when the run is over — and exposes them as transitions on an
//! explicit clock of `f64` seconds (or simulator time units) since run
//! start. The executors only translate their events into these calls.
//!
//! # The recovery contract (normative; every other doc links here)
//!
//! 1. **Eager retry with exponential backoff.** Attempt `a` of a task fails
//!    iff one of its fragments fails at attempt `a`
//!    ([`FaultPlan::fragment_fails`](crate::fault::FaultPlan::fragment_fails))
//!    or the workload reports failure. The *first* failed copy concludes
//!    the attempt — failure is pure in `(fragment, attempt)`, so every other
//!    copy is doomed — and the task waits `backoff_base * 2^a` in the
//!    ledger's delay queue before attempt `a + 1` is dispatched, ahead of
//!    the policy pool. Every acknowledgement carries the `(attempt, copy)`
//!    tag of its assignment; one whose attempt no longer matches the
//!    in-flight entry is **stale** and only counted (`stale_dropped`).
//! 2. **Quarantine.** After `max_attempts` failed attempts the task's
//!    fragments are reported as quarantined instead of retried forever.
//! 3. **Straggler re-issue.** A leader that is still idle once retries and
//!    the pool are drained receives a duplicate of an in-flight attempt
//!    whose age has reached `straggler_factor x` the mean completed-task
//!    duration. At most two copies of an attempt are live at once.
//!    The wake-up `Ledger::dispatch` announces and its candidate test share
//!    one maturity expression, so a dispatch at the announced time always
//!    finds its candidate mature.
//! 4. **Exactly-once crediting.** The first successful copy of a task wins
//!    (`credit_completion`); losers only count as suppressed duplicates
//!    (`credit_duplicate`). The arbiter is the executor: the simulator
//!    uses the ledger's `Ack::First`/`Ack::Duplicate`, the runtime's
//!    leaders arbitrate themselves so a stale copy's real result is kept.
//! 5. **Leader death and conservation.** An assignment bounced off a dead
//!    leader (`Outcome::Returned`) is re-dispatched at the same attempt
//!    and gives its copy budget back. When every leader is dead the run
//!    ends with the outstanding fragments reported as unfinished, and
//!    `done + quarantined + unfinished == distinct input fragments`
//!    (`Totals::assert_conserved`).
//!
//! Retries and quarantines are therefore pure functions of the plan and
//! the task decomposition and equal
//! [`FaultPlan::forecast`](crate::fault::FaultPlan::forecast) in either
//! executor.

use crate::balancer::Policy;
use crate::fault::RecoveryPolicy;
use crate::task::Task;
use qfr_obs::{trace, Counter};
use std::collections::BTreeMap;
use std::sync::Arc;

// Enqueues, completions, retries and quarantines are pure functions of the
// workload and the `FaultPlan` seed; re-issues, suppressed duplicates,
// stale drops and leader deaths depend on wall-clock races in the threaded
// runtime and are therefore reported but never baselined.
static TASKS_ENQUEUED: Counter = Counter::deterministic("sched.tasks.enqueued");
static TASKS_COMPLETED: Counter = Counter::deterministic("sched.tasks.completed");
static TASKS_RETRIED: Counter = Counter::deterministic("sched.tasks.retried");
static TASKS_QUARANTINED: Counter = Counter::deterministic("sched.tasks.quarantined");
static REISSUES: Counter = Counter::timing_sensitive("sched.reissues");
static DUPLICATES_SUPPRESSED: Counter = Counter::timing_sensitive("sched.duplicates_suppressed");
static LEADERS_DIED: Counter = Counter::timing_sensitive("sched.leaders_died");
static STALE_DROPPED: Counter = Counter::timing_sensitive("sched.stale_dropped");

/// One copy of one attempt of a task, handed to `leader`.
#[derive(Debug, Clone)]
pub(crate) struct Assignment {
    pub(crate) leader: usize,
    pub(crate) task: Arc<Task>,
    pub(crate) attempt: u32,
    /// 0 for the original, ≥ 1 for a straggler duplicate.
    pub(crate) copy: u32,
}

/// What a leader reports about one assignment.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    /// Every fragment succeeded after `seconds` of execution.
    Completed {
        seconds: f64,
    },
    Failed,
    /// Bounced off a dead leader without running.
    Returned,
}

/// What an acknowledgement meant to the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ack {
    /// First successful copy of the attempt.
    First,
    /// A sibling copy had already completed the attempt.
    Duplicate,
    /// The copy is gone without concluding anything: it failed after a
    /// sibling completed, or it was returned unexecuted.
    Retired,
    /// First failed copy: the next attempt waits in the delay queue.
    Retried,
    /// First failed copy of the last allowed attempt.
    Quarantined,
    /// The attempt had already concluded; nothing changed.
    Stale,
}

/// What the ledger counted over a run.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone, PartialEq))]
pub(crate) struct Totals {
    /// Every retry is scheduled at the first failed copy, so this number
    /// stays forecast-exact.
    pub(crate) retries: usize,
    pub(crate) stale_dropped: usize,
    pub(crate) reissues: usize,
    /// Sorted fragment ids.
    pub(crate) quarantined: Vec<u32>,
    pub(crate) unfinished: usize,
    pub(crate) leaders_died: usize,
    initial_fragments: usize,
}

impl Totals {
    /// Contract point 5, given the executor's count of credited fragments.
    pub(crate) fn assert_conserved(&self, fragments_done: usize) {
        assert_eq!(
            fragments_done + self.quarantined.len() + self.unfinished,
            self.initial_fragments,
            "fragment conservation violated: every input fragment must be done, \
             quarantined, or reported unfinished exactly once"
        );
    }
}

/// Credits the first successful copy of a task (contract point 4).
pub(crate) fn credit_completion(task_id: u32, attempt: u32, leader: usize) {
    TASKS_COMPLETED.incr();
    trace::instant(
        "task.complete",
        &[("task", i64::from(task_id)), ("attempt", i64::from(attempt)), ("leader", leader as i64)],
    );
}

/// Counts a successful copy that lost the exactly-once race.
pub(crate) fn credit_duplicate() {
    DUPLICATES_SUPPRESSED.incr();
}

/// Counts a task the simulator's fault-free fast path issued and completed
/// in one step.
pub(crate) fn credit_fault_free_task() {
    TASKS_ENQUEUED.incr();
    TASKS_COMPLETED.incr();
}

struct InFlight {
    task: Arc<Task>,
    attempt: u32,
    issued: f64,
    /// Copies issued and not returned (caps the duplicate storm at 2).
    copies: u32,
    /// Leaders whose copy is not yet acknowledged.
    holders: Vec<usize>,
    completed: bool,
}

impl InFlight {
    fn duplicable(&self) -> bool {
        !self.completed && self.copies < 2
    }

    /// When the attempt becomes a straggler: the one expression behind both
    /// the candidate test and the announced wake-up.
    fn matures_at(&self, straggler_age: f64) -> f64 {
        self.issued + straggler_age
    }
}

/// The master's bookkeeping (see the module doc for the contract).
pub(crate) struct Ledger {
    policy: Box<dyn Policy>,
    recovery: RecoveryPolicy,
    /// Keyed by task id; ordered so the straggler scan is reproducible.
    in_flight: BTreeMap<u32, InFlight>,
    /// Retries and bounced tasks ready to go, served before the pool.
    ready: Vec<(Arc<Task>, u32)>,
    /// `(ready_at, task, attempt)` backoffs.
    delayed: Vec<(f64, Arc<Task>, u32)>,
    idle: Vec<usize>,
    dead: Vec<bool>,
    /// `(sum, count)` of first-completion durations.
    completed_durations: (f64, usize),
    totals: Totals,
}

impl Ledger {
    pub(crate) fn new(policy: Box<dyn Policy>, recovery: RecoveryPolicy, n_leaders: usize) -> Self {
        assert!(n_leaders > 0, "need at least one leader");
        assert!(recovery.max_attempts >= 1, "need at least one attempt per task");
        let totals =
            Totals { initial_fragments: policy.remaining_fragments(), ..Totals::default() };
        Self {
            policy,
            recovery,
            in_flight: BTreeMap::new(),
            ready: Vec::new(),
            delayed: Vec::new(),
            idle: Vec::new(),
            dead: vec![false; n_leaders],
            completed_durations: (0.0, 0),
            totals,
        }
    }

    /// `leader` can take an assignment (ignored once it is dead).
    pub(crate) fn leader_idle(&mut self, leader: usize) {
        if !self.dead[leader] {
            self.idle.push(leader);
        }
    }

    /// `leader` executes nothing from now on.
    pub(crate) fn leader_died(&mut self, leader: usize) {
        if std::mem::replace(&mut self.dead[leader], true) {
            return;
        }
        self.totals.leaders_died += 1;
        LEADERS_DIED.incr();
        trace::instant("leader.death", &[("leader", leader as i64)]);
        self.idle.retain(|&l| l != leader);
    }

    /// Books `leader`'s acknowledgement of copy `copy` of attempt `attempt`
    /// of task `task_id`.
    pub(crate) fn ack(
        &mut self,
        now: f64,
        leader: usize,
        task_id: u32,
        attempt: u32,
        copy: u32,
        outcome: Outcome,
    ) -> Ack {
        let Some(e) = self.in_flight.get_mut(&task_id).filter(|e| e.attempt == attempt) else {
            // A copy of an attempt that already concluded: acting on it
            // would corrupt the current attempt's bookkeeping.
            self.totals.stale_dropped += 1;
            STALE_DROPPED.incr();
            trace::instant(
                "task.stale_drop",
                &[
                    ("task", i64::from(task_id)),
                    ("attempt", i64::from(attempt)),
                    ("copy", i64::from(copy)),
                ],
            );
            return Ack::Stale;
        };
        let ack = match outcome {
            Outcome::Failed if !e.completed => return self.conclude_failed(now, task_id),
            Outcome::Completed { seconds } if !e.completed => {
                e.completed = true;
                self.completed_durations.0 += seconds;
                self.completed_durations.1 += 1;
                Ack::First
            }
            Outcome::Completed { .. } => Ack::Duplicate,
            Outcome::Failed => Ack::Retired,
            Outcome::Returned => {
                e.copies -= 1;
                Ack::Retired
            }
        };
        e.holders.retain(|&l| l != leader);
        if e.holders.is_empty() {
            let e = self.in_flight.remove(&task_id).expect("matched above");
            if !e.completed {
                // Only a returned copy leaves an unconcluded attempt with
                // no live copy: the dead leader is not the task's fault.
                self.ready.push((e.task, e.attempt));
            }
        }
        ack
    }

    /// The first failed copy concludes the attempt; acks of its siblings
    /// will be stale.
    fn conclude_failed(&mut self, now: f64, task_id: u32) -> Ack {
        let e = self.in_flight.remove(&task_id).expect("caller matched the entry");
        let next = e.attempt + 1;
        if next >= self.recovery.max_attempts {
            TASKS_QUARANTINED.incr();
            trace::instant("task.quarantine", &[("task", i64::from(task_id))]);
            self.totals.quarantined.extend(e.task.fragment_ids());
            return Ack::Quarantined;
        }
        self.totals.retries += 1;
        TASKS_RETRIED.incr();
        trace::instant("task.retry", &[("task", i64::from(task_id)), ("attempt", i64::from(next))]);
        self.delayed.push((now + self.recovery.backoff_after(e.attempt), e.task, next));
        Ack::Retried
    }

    /// Everything that can be handed out at `now`, appended to `out`:
    /// expired backoffs are promoted, idle leaders are fed (retries before
    /// the pool), and still-idle leaders receive straggler duplicates.
    /// Returns when to dispatch again if no acknowledgement arrives first.
    pub(crate) fn dispatch(&mut self, now: f64, out: &mut Vec<Assignment>) -> Option<f64> {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, task, attempt) = self.delayed.swap_remove(i);
                self.ready.push((task, attempt));
            } else {
                i += 1;
            }
        }

        while !self.idle.is_empty() {
            let next = self.ready.pop().or_else(|| {
                self.policy.next_task().map(|task| {
                    TASKS_ENQUEUED.incr();
                    (Arc::new(task), 0)
                })
            });
            let Some((task, attempt)) = next else { break };
            let leader = self.idle.pop().expect("checked non-empty");
            trace::instant(
                "task.enqueue",
                &[
                    ("task", i64::from(task.id)),
                    ("attempt", i64::from(attempt)),
                    ("leader", leader as i64),
                ],
            );
            self.in_flight.insert(
                task.id,
                InFlight {
                    task: Arc::clone(&task),
                    attempt,
                    issued: now,
                    copies: 1,
                    holders: vec![leader],
                    completed: false,
                },
            );
            out.push(Assignment { leader, task, attempt, copy: 0 });
        }

        if let Some(age) = self.straggler_age() {
            let mut w = 0;
            while w < self.idle.len() {
                let leader = self.idle[w];
                let candidate = self.in_flight.values_mut().find(|e| {
                    e.duplicable() && !e.holders.contains(&leader) && now >= e.matures_at(age)
                });
                let Some(e) = candidate else {
                    w += 1;
                    continue;
                };
                let copy = e.copies;
                e.copies += 1;
                e.holders.push(leader);
                self.totals.reissues += 1;
                REISSUES.incr();
                trace::instant(
                    "task.reissue",
                    &[
                        ("task", i64::from(e.task.id)),
                        ("copy", i64::from(copy)),
                        ("leader", leader as i64),
                    ],
                );
                out.push(Assignment {
                    leader,
                    task: Arc::clone(&e.task),
                    attempt: e.attempt,
                    copy,
                });
                self.idle.swap_remove(w);
            }
        }
        self.next_wake(now)
    }

    /// Age at which an in-flight attempt becomes a straggler, once re-issue
    /// is on and a completed duration exists to compare against.
    fn straggler_age(&self) -> Option<f64> {
        let (sum, count) = self.completed_durations;
        self.recovery.straggler_factor.filter(|_| count > 0).map(|f| f * (sum / count as f64))
    }

    /// Earliest time after a dispatch at `now` at which the next one would
    /// act on its own: a backoff expiring or, while a leader is idle, a
    /// straggler maturing. One that matured without an eligible idle leader
    /// waits for the next message instead of being announced again.
    fn next_wake(&self, now: f64) -> Option<f64> {
        let backoffs = self.delayed.iter().map(|d| d.0);
        let stragglers =
            self.straggler_age().filter(|_| !self.idle.is_empty()).into_iter().flat_map(|age| {
                self.in_flight.values().filter(|e| e.duplicable()).map(move |e| e.matures_at(age))
            });
        backoffs.chain(stragglers).filter(|&at| at > now).min_by(f64::total_cmp)
    }

    /// All work concluded, or every leader died.
    pub(crate) fn finished(&self) -> bool {
        self.dead.iter().all(|&d| d)
            || (self.ready.is_empty()
                && self.delayed.is_empty()
                && self.policy.remaining_fragments() == 0
                && self.in_flight.values().all(|e| e.completed))
    }

    /// Closes the books: whatever is still in the pool, queued or in flight
    /// without a completed copy is unfinished.
    pub(crate) fn into_totals(self) -> Totals {
        let mut totals = self.totals;
        totals.unfinished = self.policy.remaining_fragments()
            + self.ready.iter().map(|(t, _)| t.len()).sum::<usize>()
            + self.delayed.iter().map(|(_, t, _)| t.len()).sum::<usize>()
            + self.in_flight.values().filter(|e| !e.completed).map(|e| e.task.len()).sum::<usize>();
        totals.quarantined.sort_unstable();
        totals
    }
}

#[cfg(test)]
mod tests {
    //! The transitions on a scripted clock: no threads, no sleeps.

    use super::*;
    use crate::balancer::SortedSingletonPolicy;
    use crate::fault::FaultPlan;
    use crate::task::{water_dimer_workload, FragmentWorkItem};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A ledger over `n_tasks` singleton tasks with every leader idle.
    fn ledger(n_tasks: usize, recovery: RecoveryPolicy, n_leaders: usize) -> Ledger {
        let policy = SortedSingletonPolicy::new(water_dimer_workload(n_tasks));
        let mut ledger = Ledger::new(Box::new(policy), recovery, n_leaders);
        (0..n_leaders).for_each(|leader| ledger.leader_idle(leader));
        ledger
    }

    fn dispatch(ledger: &mut Ledger, now: f64) -> Vec<Assignment> {
        let mut out = Vec::new();
        ledger.dispatch(now, &mut out);
        out
    }

    fn ack(ledger: &mut Ledger, now: f64, a: &Assignment, outcome: Outcome) -> Ack {
        ledger.ack(now, a.leader, a.task.id, a.attempt, a.copy, outcome)
    }

    const DONE: Outcome = Outcome::Completed { seconds: 1.0 };

    /// Two tasks on four leaders, `backoff_base` 1, `max_attempts` 3. One
    /// task completes in 1.0, so the other matures at `2.0 * 1.0` and is
    /// duplicated: returns its original and its duplicate, with two leaders
    /// left idle.
    fn straggler_with_duplicate() -> (Ledger, Assignment, Assignment) {
        let recovery =
            RecoveryPolicy { max_attempts: 3, backoff_base: 1.0, straggler_factor: Some(2.0) };
        let mut l = ledger(2, recovery, 4);
        let mut first = dispatch(&mut l, 0.0);
        assert_eq!(first.len(), 2);
        let original = first.pop().expect("two assignments");
        assert_eq!(ack(&mut l, 1.0, &first[0], DONE), Ack::First);
        l.leader_idle(first[0].leader);
        assert!(dispatch(&mut l, 1.5).is_empty(), "duplicated before maturity");
        let mut duplicates = dispatch(&mut l, 2.0);
        assert_eq!(duplicates.len(), 1);
        let duplicate = duplicates.pop().expect("one duplicate");
        assert_eq!(
            (duplicate.task.id, duplicate.attempt, duplicate.copy),
            (original.task.id, 0, 1)
        );
        assert_ne!(duplicate.leader, original.leader);
        assert!(dispatch(&mut l, 100.0).is_empty(), "more than two live copies of an attempt");
        (l, original, duplicate)
    }

    #[test]
    fn returned_copy_keeps_the_attempt_and_refunds_the_copy_budget() {
        let (mut l, original, duplicate) = straggler_with_duplicate();
        // The duplicate bounces off a dead leader: one more may be issued.
        l.leader_died(duplicate.leader);
        assert_eq!(ack(&mut l, 3.0, &duplicate, Outcome::Returned), Ack::Retired);
        let again = dispatch(&mut l, 3.0);
        assert_eq!(again.len(), 1);
        assert_eq!((again[0].task.id, again[0].attempt, again[0].copy), (original.task.id, 0, 1));
        // Both live copies bounce: the task goes out again as an original,
        // still at attempt 0 — a dead leader is not the task's fault.
        for a in [&original, &again[0]] {
            l.leader_died(a.leader);
            assert_eq!(ack(&mut l, 4.0, a, Outcome::Returned), Ack::Retired);
        }
        let fresh = dispatch(&mut l, 4.0);
        assert_eq!(fresh.len(), 1);
        assert_eq!((fresh[0].task.id, fresh[0].attempt, fresh[0].copy), (original.task.id, 0, 0));
        assert_eq!(ack(&mut l, 5.0, &fresh[0], DONE), Ack::First);
        assert!(l.finished());
        let totals = l.into_totals();
        assert_eq!((totals.retries, totals.reissues, totals.leaders_died), (0, 2, 3));
        assert_eq!(totals.unfinished, 0);
        totals.assert_conserved(2);
    }

    #[test]
    fn after_a_sibling_completed_a_copy_only_retires() {
        for (late, expected) in [(Outcome::Failed, Ack::Retired), (DONE, Ack::Duplicate)] {
            let (mut l, original, duplicate) = straggler_with_duplicate();
            assert_eq!(ack(&mut l, 2.5, &duplicate, DONE), Ack::First);
            assert!(l.finished(), "a live loser does not hold the run open");
            assert_eq!(ack(&mut l, 3.0, &original, late), expected);
            let totals = l.into_totals();
            assert_eq!((totals.retries, totals.stale_dropped, totals.unfinished), (0, 0, 0));
            assert!(totals.quarantined.is_empty());
        }
    }

    #[test]
    fn first_failure_concludes_the_attempt_and_later_acks_are_stale() {
        let (mut l, original, duplicate) = straggler_with_duplicate();
        assert_eq!(ack(&mut l, 2.5, &duplicate, Outcome::Failed), Ack::Retried);
        let before = l.totals.clone();
        assert_eq!(before.retries, 1);
        assert_eq!(l.next_wake(2.5), Some(3.5));
        let retry = dispatch(&mut l, 3.5);
        assert_eq!((retry[0].task.id, retry[0].attempt, retry[0].copy), (original.task.id, 1, 0));
        // Whatever attempt 0's other copy reports, and whenever, it moves
        // nothing but the stale count — attempt 1 stays in flight.
        for late in [Outcome::Failed, DONE, Outcome::Returned] {
            assert_eq!(ack(&mut l, 4.0, &original, late), Ack::Stale);
        }
        assert_eq!(l.totals, Totals { stale_dropped: 3, ..before });
        assert_eq!(ack(&mut l, 5.0, &retry[0], DONE), Ack::First);
        assert!(l.finished());
    }

    #[test]
    fn backoff_doubles_and_promotion_happens_at_ready_at() {
        let recovery =
            RecoveryPolicy { max_attempts: 4, backoff_base: 1.0, straggler_factor: None };
        let mut l = ledger(1, recovery, 1);
        let mut now = 0.0;
        for (attempt, backoff) in [(0, 1.0), (1, 2.0), (2, 4.0)] {
            let a = dispatch(&mut l, now);
            assert_eq!((a.len(), a[0].attempt), (1, attempt));
            now += 0.25;
            assert_eq!(ack(&mut l, now, &a[0], Outcome::Failed), Ack::Retried);
            l.leader_idle(0);
            assert_eq!(l.next_wake(now), Some(now + backoff));
            assert!(dispatch(&mut l, now + backoff - 1e-9).is_empty(), "promoted early");
            now += backoff;
        }
        let last = dispatch(&mut l, now);
        assert_eq!((last.len(), last[0].attempt), (1, 3), "promoted late");
        assert_eq!(ack(&mut l, now, &last[0], Outcome::Failed), Ack::Quarantined);
        assert!(l.finished());
        let totals = l.into_totals();
        assert_eq!((totals.retries, totals.quarantined.len()), (3, 1));
        totals.assert_conserved(0);
    }

    #[test]
    fn all_leaders_dead_finishes_with_everything_outstanding_unfinished() {
        let recovery =
            RecoveryPolicy { max_attempts: 3, backoff_base: 100.0, straggler_factor: None };
        let mut l = ledger(5, recovery, 3);
        let a = dispatch(&mut l, 0.0);
        assert_eq!(a.len(), 3, "three in flight, two in the pool");
        assert_eq!(ack(&mut l, 1.0, &a[0], Outcome::Failed), Ack::Retried); // delayed
        l.leader_died(a[0].leader);
        l.leader_died(a[1].leader);
        assert_eq!(ack(&mut l, 2.0, &a[1], Outcome::Returned), Ack::Retired); // ready
        assert!(!l.finished());
        l.leader_died(a[2].leader); // a[2] stays in flight, uncompleted
        assert!(l.finished());
        let totals = l.into_totals();
        assert_eq!((totals.unfinished, totals.leaders_died), (5, 3));
        totals.assert_conserved(0);
    }

    /// At the parent commit the candidate test was `t - issued >= age` while
    /// the wake-up was scheduled at `t = issued + age`, which misses by one
    /// ulp for some `(issued, age)`: the wake found nothing and scheduled
    /// nothing.
    #[test]
    fn a_dispatch_at_the_announced_wake_always_yields_the_duplicate() {
        let recovery = RecoveryPolicy { straggler_factor: Some(3.0), ..Default::default() };
        let mut one_ulp_short = 0;
        for (i, j) in (1..40).flat_map(|i| (1..40).map(move |j| (i, j))) {
            let (issued, seconds) = (0.1 * f64::from(i), 0.3 * f64::from(j));
            // Both first tasks complete at `issued` after `seconds` each;
            // the third is issued then, to one of the two leaders.
            let mut l = ledger(3, recovery, 2);
            for a in dispatch(&mut l, 0.0) {
                assert_eq!(ack(&mut l, issued, &a, Outcome::Completed { seconds }), Ack::First);
                l.leader_idle(a.leader);
            }
            let mut third = Vec::new();
            let wake = l.dispatch(issued, &mut third);
            assert_eq!(third.len(), 1);
            let wake = wake.expect("an idle leader and a duplicable attempt");
            one_ulp_short += usize::from(wake - issued < 3.0 * seconds);
            let duplicates = dispatch(&mut l, wake);
            assert_eq!(duplicates.len(), 1, "issued {issued}, mean {seconds}: wake found nothing");
            assert_eq!(duplicates[0].copy, 1);
        }
        assert!(one_ulp_short > 0, "the sweep no longer covers the one-ulp case");
    }

    /// Acknowledges the oldest outstanding assignment every time unit, so
    /// leaders idle at the tail pick up duplicates and stale acks occur.
    fn drive(mut ledger: Ledger, plan: &FaultPlan) -> (Totals, usize) {
        let (mut now, mut done) = (0.0, 0);
        let (mut out, mut outstanding) = (Vec::new(), VecDeque::new());
        while !ledger.finished() {
            let wake = ledger.dispatch(now, &mut out);
            outstanding.extend(out.drain(..));
            let Some(a) = outstanding.pop_front() else {
                now = wake.expect("unfinished and idle: waiting on a backoff");
                continue;
            };
            now += 1.0;
            let outcome = if plan.task_fails(&a.task, a.attempt) { Outcome::Failed } else { DONE };
            if ack(&mut ledger, now, &a, outcome) == Ack::First {
                done += a.task.len();
            }
            ledger.leader_idle(a.leader);
        }
        (ledger.into_totals(), done)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Same input strategy as `tests/proptest_sched.rs`, without threads.
        #[test]
        fn totals_match_the_forecast_for_generated_plans(
            sizes in prop::collection::vec(3u32..40, 2..50),
            seed in 0u64..500,
            rate_pct in 0u32..45,
            n_permanent in 0u32..3,
            max_attempts in 1u32..4,
            leaders in 1usize..4,
        ) {
            let frags: Vec<FragmentWorkItem> = sizes
                .iter()
                .enumerate()
                .map(|(i, &atoms)| FragmentWorkItem::new(i as u32, atoms))
                .collect();
            let n = frags.len() as u32;
            let plan = FaultPlan::with_failure_rate(seed, f64::from(rate_pct) / 100.0)
                .permanent((0..n_permanent.min(n)).map(|i| i * (n / n_permanent.max(1)).max(1)));
            let recovery =
                RecoveryPolicy { max_attempts, backoff_base: 0.5, straggler_factor: Some(2.0) };

            let mut probe = SortedSingletonPolicy::new(frags.clone());
            let tasks: Vec<Task> = std::iter::from_fn(|| probe.next_task()).collect();
            let forecast = plan.forecast(&tasks, &recovery);

            let mut ledger =
                Ledger::new(Box::new(SortedSingletonPolicy::new(frags)), recovery, leaders);
            (0..leaders).for_each(|leader| ledger.leader_idle(leader));
            let (totals, done) = drive(ledger, &plan);
            prop_assert_eq!(totals.retries, forecast.retries);
            prop_assert_eq!(&totals.quarantined, &forecast.quarantined_fragments);
            prop_assert_eq!(totals.unfinished, 0);
            totals.assert_conserved(done);
        }
    }
}
