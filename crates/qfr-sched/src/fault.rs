//! Deterministic fault injection and the recovery policy.
//!
//! The paper's production runs ride on machines where node failure and
//! stragglers are routine (Section V-C: tasks "processed for a long time
//! but not yet completed" are re-queued). To exercise that machinery
//! reproducibly, this module defines a **seedable fault plan** that both
//! executors — the threaded [`crate::runtime`] and the discrete-event
//! [`crate::simulator`] — consult through pure functions of
//! `(fragment, attempt)` / `(task, attempt, copy)`. Because the decisions
//! depend only on the plan and those indices, never on wall-clock or
//! thread interleaving, a fixed plan produces the *same* failure/retry/
//! quarantine trajectory in both executors, and [`FaultPlan::forecast`]
//! can predict the recovery counters exactly.
//!
//! What the executors do about an injected fault — retry, quarantine,
//! re-issue, bounce — is the recovery contract stated in [`crate::ledger`];
//! this module only decides *what* fails, stalls or dies.

use crate::task::Task;
use std::collections::{BTreeMap, BTreeSet};

const SALT_FAILURE: u64 = 0x517cc1b727220a95;
const SALT_LATENCY: u64 = 0x2545f4914f6cdd1d;

/// A deterministic, seedable plan of injected faults.
///
/// The default plan ([`FaultPlan::none`]) injects nothing; executors then
/// behave exactly like the fault-free runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-decision hash.
    pub seed: u64,
    /// Probability that one fragment execution attempt fails.
    pub failure_rate: f64,
    /// Fragments that fail on *every* attempt (drive quarantine).
    pub permanent_failures: BTreeSet<u32>,
    /// Probability that a task copy gets its execution stretched.
    pub straggler_rate: f64,
    /// Execution-time multiplier applied to stretched copies.
    pub straggler_multiplier: f64,
    /// Leader index → number of tasks after which that leader dies.
    pub leader_deaths: BTreeMap<usize, usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        Self {
            seed: 0,
            failure_rate: 0.0,
            permanent_failures: BTreeSet::new(),
            straggler_rate: 0.0,
            straggler_multiplier: 1.0,
            leader_deaths: BTreeMap::new(),
        }
    }

    /// Plan with only a per-attempt fragment failure probability.
    pub fn with_failure_rate(seed: u64, failure_rate: f64) -> Self {
        Self { seed, failure_rate, ..Self::none() }
    }

    /// Plan whose per-attempt fragment failure probability is derived from
    /// a machine's MTBF: the expected number of node failures over a run of
    /// `run_hours` is spread uniformly over the `n_tasks` task attempts, so
    /// `failure_rate = nodes * node_failure_probability(run_hours) /
    /// n_tasks`, clamped to `[0, 1]`. This is how the fault ablations tie
    /// injected failures to the paper's machines instead of hand-picked
    /// rates.
    pub fn from_machine(
        machine: &crate::machine::MachineModel,
        run_hours: f64,
        n_tasks: usize,
        seed: u64,
    ) -> Self {
        assert!(n_tasks > 0, "cannot spread failures over zero tasks");
        let expected_failures = machine.nodes as f64 * machine.node_failure_probability(run_hours);
        let rate = (expected_failures / n_tasks as f64).clamp(0.0, 1.0);
        Self::with_failure_rate(seed, rate)
    }

    /// Plan with only straggler latency injection.
    pub fn with_stragglers(seed: u64, rate: f64, multiplier: f64) -> Self {
        Self { seed, straggler_rate: rate, straggler_multiplier: multiplier, ..Self::none() }
    }

    /// Adds straggler latency injection to an existing plan.
    pub fn stragglers(mut self, rate: f64, multiplier: f64) -> Self {
        self.straggler_rate = rate;
        self.straggler_multiplier = multiplier;
        self
    }

    /// Adds fragments that fail every attempt.
    pub fn permanent(mut self, fragments: impl IntoIterator<Item = u32>) -> Self {
        self.permanent_failures.extend(fragments);
        self
    }

    /// Schedules `leader` to die after completing `tasks` tasks.
    pub fn kill_leader_after(mut self, leader: usize, tasks: usize) -> Self {
        self.leader_deaths.insert(leader, tasks);
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.failure_rate > 0.0
            || !self.permanent_failures.is_empty()
            || (self.straggler_rate > 0.0 && self.straggler_multiplier > 1.0)
            || !self.leader_deaths.is_empty()
    }

    /// Uniform deterministic value in `[0, 1)` for one decision.
    fn unit(&self, salt: u64, a: u64, b: u64) -> f64 {
        let mut x = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(a.wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_add(b.wrapping_mul(0xbf58476d1ce4e5b9));
        // SplitMix64 finalizer.
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether attempt `attempt` of fragment `fragment` fails. Pure in its
    /// arguments — identical for every copy of the attempt, in every
    /// executor.
    pub fn fragment_fails(&self, fragment: u32, attempt: u32) -> bool {
        if self.permanent_failures.contains(&fragment) {
            return true;
        }
        self.failure_rate > 0.0
            && self.unit(SALT_FAILURE, fragment as u64, attempt as u64) < self.failure_rate
    }

    /// Whether attempt `attempt` of `task` fails (any fragment fails).
    pub fn task_fails(&self, task: &Task, attempt: u32) -> bool {
        task.fragments.iter().any(|f| self.fragment_fails(f.id, attempt))
    }

    /// Execution-time multiplier for copy `copy` of attempt `attempt` of
    /// task `task_id` (≥ 1). Keyed on the copy index so a straggler
    /// re-issue of a stretched copy can run clean — injected latency
    /// models a slow *node*, not an expensive task.
    pub fn latency_multiplier(&self, task_id: u32, attempt: u32, copy: u32) -> f64 {
        if self.straggler_rate <= 0.0 || self.straggler_multiplier <= 1.0 {
            return 1.0;
        }
        let key = (task_id as u64) << 20 | (attempt as u64) << 8 | copy as u64;
        if self.unit(SALT_LATENCY, key, 0) < self.straggler_rate {
            self.straggler_multiplier
        } else {
            1.0
        }
    }

    /// Number of tasks after which `leader` dies, if scheduled.
    pub fn death_after(&self, leader: usize) -> Option<usize> {
        self.leader_deaths.get(&leader).copied()
    }

    /// Predicts the failure/retry/quarantine trajectory for a concrete
    /// task decomposition: because failure decisions are pure in
    /// `(fragment, attempt)`, the number of failing leading attempts of
    /// each task — and hence the retry and quarantine counters — is a
    /// function of the plan alone. Both executors must match this exactly.
    pub fn forecast(&self, tasks: &[Task], recovery: &RecoveryPolicy) -> FaultForecast {
        let mut retries = 0usize;
        let mut quarantined: Vec<u32> = Vec::new();
        for task in tasks {
            let failing =
                (0..recovery.max_attempts).take_while(|&a| self.task_fails(task, a)).count() as u32;
            if failing == recovery.max_attempts {
                retries += recovery.max_attempts.saturating_sub(1) as usize;
                quarantined.extend(task.fragments.iter().map(|f| f.id));
            } else {
                retries += failing as usize;
            }
        }
        quarantined.sort_unstable();
        FaultForecast { retries, quarantined_fragments: quarantined }
    }
}

/// Deterministic prediction of the recovery counters for a task list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultForecast {
    /// Total failure-triggered re-queues across all tasks (the executors
    /// retry eagerly, at the first failed copy of an attempt).
    pub retries: usize,
    /// Fragment ids that end up quarantined (sorted).
    pub quarantined_fragments: Vec<u32>,
}

/// How the executors recover from failures and stragglers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Total execution attempts per task before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Base re-queue delay after attempt 0 fails; doubles per attempt
    /// (seconds in the threaded runtime, time units in the simulator).
    pub backoff_base: f64,
    /// Straggler re-issue threshold: an in-flight task older than
    /// `factor x` the mean completed-task duration is duplicated to an
    /// idle leader. `None` disables re-issue. **On by default** wherever the
    /// ledger runs: always in the threaded runtime, and in the simulator
    /// whenever the fault plan is active (`simulate` gates on
    /// [`FaultPlan::is_active`]).
    pub straggler_factor: Option<f64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, backoff_base: 1e-3, straggler_factor: Some(4.0) }
    }
}

impl RecoveryPolicy {
    /// Re-queue delay after attempt `attempt` failed: `base * 2^attempt`.
    pub fn backoff_after(&self, attempt: u32) -> f64 {
        self.backoff_base * f64::from(1u32 << attempt.min(16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::FragmentWorkItem;

    fn singleton_tasks(n: u32) -> Vec<Task> {
        (0..n).map(|i| Task { id: i, fragments: vec![FragmentWorkItem::new(i, 6)] }).collect()
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(!p.fragment_fails(0, 0));
        assert_eq!(p.latency_multiplier(0, 0, 0), 1.0);
        assert_eq!(p.death_after(3), None);
        let f = p.forecast(&singleton_tasks(10), &RecoveryPolicy::default());
        assert_eq!(f.retries, 0);
        assert!(f.quarantined_fragments.is_empty());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::with_failure_rate(7, 0.5);
        let b = FaultPlan::with_failure_rate(7, 0.5);
        let c = FaultPlan::with_failure_rate(8, 0.5);
        let same = (0..200u32).all(|f| a.fragment_fails(f, 0) == b.fragment_fails(f, 0));
        assert!(same, "same seed must give identical decisions");
        let diff = (0..200u32).any(|f| a.fragment_fails(f, 0) != c.fragment_fails(f, 0));
        assert!(diff, "different seeds must give different decisions");
    }

    #[test]
    fn failure_rate_is_roughly_respected() {
        let p = FaultPlan::with_failure_rate(3, 0.3);
        let n = 10_000u32;
        let fails = (0..n).filter(|&f| p.fragment_fails(f, 0)).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn attempts_are_independent_decisions() {
        let p = FaultPlan::with_failure_rate(5, 0.5);
        let varied = (0..100u32).any(|f| p.fragment_fails(f, 0) != p.fragment_fails(f, 1));
        assert!(varied, "attempt index must enter the decision");
    }

    #[test]
    fn permanent_failures_always_fail() {
        let p = FaultPlan::none().permanent([4, 9]);
        assert!(p.is_active());
        for a in 0..10 {
            assert!(p.fragment_fails(4, a));
            assert!(p.fragment_fails(9, a));
            assert!(!p.fragment_fails(5, a));
        }
    }

    #[test]
    fn forecast_matches_manual_walk() {
        let p = FaultPlan::with_failure_rate(11, 0.4).permanent([2]);
        let rec = RecoveryPolicy { max_attempts: 3, ..Default::default() };
        let tasks = singleton_tasks(50);
        let f = p.forecast(&tasks, &rec);
        let mut retries = 0;
        let mut quarantined = Vec::new();
        for t in &tasks {
            let mut a = 0;
            while a < 3 && p.task_fails(t, a) {
                a += 1;
            }
            if a == 3 {
                retries += 2;
                quarantined.push(t.id);
            } else {
                retries += a as usize;
            }
        }
        assert_eq!(f.retries, retries);
        assert_eq!(f.quarantined_fragments, quarantined);
        assert!(f.quarantined_fragments.contains(&2), "permanent failure must quarantine");
    }

    #[test]
    fn latency_copies_differ() {
        let p = FaultPlan::with_stragglers(1, 0.5, 10.0);
        let differs =
            (0..100u32).any(|t| p.latency_multiplier(t, 0, 0) != p.latency_multiplier(t, 0, 1));
        assert!(differs, "copy index must enter the latency decision");
        let hit = (0..100u32).filter(|&t| p.latency_multiplier(t, 0, 0) > 1.0).count();
        assert!((30..70).contains(&hit), "stretch rate wildly off: {hit}/100");
    }

    #[test]
    fn backoff_doubles() {
        let r = RecoveryPolicy { backoff_base: 0.5, ..Default::default() };
        assert_eq!(r.backoff_after(0), 0.5);
        assert_eq!(r.backoff_after(1), 1.0);
        assert_eq!(r.backoff_after(2), 2.0);
    }

    #[test]
    fn from_machine_pins_mtbf_conversion() {
        // ORISE: 6_000 nodes, MTBF 50_000 h. Over a 2 h run with 10_000
        // tasks the rate must equal
        // nodes * (1 - exp(-h/mtbf)) / n_tasks exactly.
        let m = crate::machine::MachineModel::orise();
        let p = FaultPlan::from_machine(&m, 2.0, 10_000, 42);
        let expect = 6_000.0 * (1.0 - (-2.0_f64 / 50_000.0).exp()) / 10_000.0;
        assert_eq!(p.failure_rate, expect);
        assert_eq!(p.seed, 42);
        assert!(p.is_active());
        // Sanity on magnitude: ~0.0024% per task attempt.
        assert!((expect - 2.4e-5).abs() < 1e-6, "rate {expect}");
        // A pathological run length cannot push the rate above 1.
        let extreme = FaultPlan::from_machine(&m, 1e9, 1, 0);
        assert!(extreme.failure_rate <= 1.0);
    }

    #[test]
    fn leader_death_schedule() {
        let p = FaultPlan::none().kill_leader_after(1, 3).kill_leader_after(0, 5);
        assert!(p.is_active());
        assert_eq!(p.death_after(0), Some(5));
        assert_eq!(p.death_after(1), Some(3));
        assert_eq!(p.death_after(2), None);
    }
}
