//! Scheduling policies, headed by the paper's system-size-sensitive load
//! balancer (Section V-B, Fig. 4).
//!
//! The policy interface is a pull model: leaders (real threads in
//! [`crate::runtime`], simulated nodes in [`crate::simulator`]) ask the
//! master for the next task; the policy decides what to hand out and at
//! what granularity. A policy hands every fragment out once; retries and
//! the paper's "processed for a long time but not yet completed" re-issue
//! are the [`ledger`](crate::ledger)'s queues, not the policy's.

use crate::task::{FragmentWorkItem, Task};

/// A task-dispensing policy (the master's brain).
pub trait Policy: Send {
    /// Next task, or `None` when the pool is drained.
    fn next_task(&mut self) -> Option<Task>;

    /// Fragments not yet handed out (excluding in-flight ones).
    fn remaining_fragments(&self) -> usize;
}

/// Configuration of the system-size-sensitive policy.
#[derive(Debug, Clone, Copy)]
pub struct SizeSensitiveConfig {
    /// Minimum task cost that amortizes one master round-trip. Fragments at
    /// or above it ship alone (the "large" phase); smaller ones are packed
    /// until a task reaches it (the "medium" phase). In
    /// [`cost_model`](crate::task::cost_model) units, 1000 ≈ a 28-atom
    /// fragment.
    pub min_task_cost: f64,
    /// The shrinking-granularity tail starts when this fraction of
    /// fragments remains.
    pub tail_fraction: f64,
    /// Tail pack size divisor: each tail task packs
    /// `ceil(remaining / divisor)` fragments (floor 1), so granularity
    /// shrinks as the pool drains.
    pub tail_divisor: usize,
}

impl Default for SizeSensitiveConfig {
    fn default() -> Self {
        Self { min_task_cost: 1000.0, tail_fraction: 0.15, tail_divisor: 24 }
    }
}

/// The paper's policy: sort by size; large fragments go alone, medium
/// fragments pack to a cost target, and the tail is served at shrinking
/// granularity so lightly- and heavily-loaded leaders converge (Fig. 4(c)).
#[derive(Debug)]
pub struct SizeSensitivePolicy {
    /// Remaining fragments, sorted ascending by cost (served from the back).
    pool: Vec<FragmentWorkItem>,
    cfg: SizeSensitiveConfig,
    initial_count: usize,
    next_id: u32,
}

impl SizeSensitivePolicy {
    /// Builds the policy over a fragment population.
    pub fn new(mut fragments: Vec<FragmentWorkItem>, cfg: SizeSensitiveConfig) -> Self {
        fragments.sort_by(|a, b| a.cost().total_cmp(&b.cost()).then(a.id.cmp(&b.id)));
        let initial_count = fragments.len();
        Self { pool: fragments, cfg, initial_count, next_id: 0 }
    }

    /// Default configuration constructor.
    pub fn with_defaults(fragments: Vec<FragmentWorkItem>) -> Self {
        Self::new(fragments, SizeSensitiveConfig::default())
    }

    fn make_task(&mut self, fragments: Vec<FragmentWorkItem>) -> Task {
        let id = self.next_id;
        self.next_id += 1;
        Task { id, fragments }
    }
}

impl Policy for SizeSensitivePolicy {
    fn next_task(&mut self) -> Option<Task> {
        self.pool.last()?;
        // Shrinking-granularity tail (Fig. 4(c)): once only a small share
        // of the pool remains, cap the pack size at `ceil(remaining /
        // divisor)` so granularity falls smoothly to single fragments and
        // all leaders drain together. The cap never *grows* tasks beyond
        // the medium pack target.
        let tail_cap =
            if self.pool.len() <= (self.cfg.tail_fraction * self.initial_count as f64) as usize {
                self.pool.len().div_ceil(self.cfg.tail_divisor).max(1)
            } else {
                usize::MAX
            };
        // Serve from the large end, packing until the master round-trip is
        // amortized. A fragment already at or above the target ships alone
        // (Fig. 4(b) "each large fragment as a task"); small ones pack.
        let mut fragments = Vec::new();
        let mut cost = 0.0;
        while cost < self.cfg.min_task_cost && fragments.len() < tail_cap {
            match self.pool.pop() {
                Some(f) => {
                    cost += f.cost();
                    fragments.push(f);
                }
                None => break,
            }
        }
        if fragments.is_empty() {
            None
        } else {
            Some(self.make_task(fragments))
        }
    }

    fn remaining_fragments(&self) -> usize {
        self.pool.len()
    }
}

/// Baseline: fragments chunked in arrival order into fixed-size tasks
/// (static round-robin-style distribution; no size awareness).
#[derive(Debug)]
pub struct RoundRobinPolicy {
    tasks: Vec<Task>,
}

impl RoundRobinPolicy {
    /// Chunks fragments in arrival order, `chunk` per task.
    pub fn new(fragments: Vec<FragmentWorkItem>, chunk: usize) -> Self {
        assert!(chunk > 0);
        let mut tasks: Vec<Task> = fragments
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| Task { id: i as u32, fragments: c.to_vec() })
            .collect();
        tasks.reverse(); // pop from the back = original order
        Self { tasks }
    }
}

impl Policy for RoundRobinPolicy {
    fn next_task(&mut self) -> Option<Task> {
        self.tasks.pop()
    }

    fn remaining_fragments(&self) -> usize {
        self.tasks.iter().map(|t| t.len()).sum()
    }
}

/// Baseline: size-sorted singletons (classic LPT under a pull model) — good
/// balance but one master round-trip per fragment, the communication cost
/// the paper's packing avoids.
#[derive(Debug)]
pub struct SortedSingletonPolicy {
    pool: Vec<FragmentWorkItem>,
    next_id: u32,
}

impl SortedSingletonPolicy {
    /// Builds the policy (largest served first).
    pub fn new(mut fragments: Vec<FragmentWorkItem>) -> Self {
        fragments.sort_by(|a, b| a.cost().total_cmp(&b.cost()).then(a.id.cmp(&b.id)));
        Self { pool: fragments, next_id: 0 }
    }
}

impl Policy for SortedSingletonPolicy {
    fn next_task(&mut self) -> Option<Task> {
        let f = self.pool.pop()?;
        let id = self.next_id;
        self.next_id += 1;
        Some(Task { id, fragments: vec![f] })
    }

    fn remaining_fragments(&self) -> usize {
        self.pool.len()
    }
}

/// Baseline: seeded random order, fixed chunking — the worst case for
/// size-induced imbalance.
#[derive(Debug)]
pub struct RandomPolicy {
    inner: RoundRobinPolicy,
}

impl RandomPolicy {
    /// Shuffles fragments with a deterministic LCG, then chunks.
    pub fn new(mut fragments: Vec<FragmentWorkItem>, chunk: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..fragments.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % (i + 1);
            fragments.swap(i, j);
        }
        Self { inner: RoundRobinPolicy::new(fragments, chunk) }
    }
}

impl Policy for RandomPolicy {
    fn next_task(&mut self) -> Option<Task> {
        self.inner.next_task()
    }

    fn remaining_fragments(&self) -> usize {
        self.inner.remaining_fragments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{protein_workload, water_dimer_workload};
    use std::collections::HashSet;

    fn drain(policy: &mut dyn Policy) -> Vec<Task> {
        let mut out = Vec::new();
        while let Some(t) = policy.next_task() {
            out.push(t);
        }
        out
    }

    fn assert_every_fragment_once(tasks: &[Task], n: usize) {
        let mut seen = HashSet::new();
        for t in tasks {
            for f in &t.fragments {
                assert!(seen.insert(f.id), "fragment {} scheduled twice", f.id);
            }
        }
        assert_eq!(seen.len(), n, "not every fragment scheduled");
    }

    #[test]
    fn size_sensitive_serves_every_fragment_once() {
        let frags = protein_workload(500, 1);
        let mut p = SizeSensitivePolicy::with_defaults(frags);
        let tasks = drain(&mut p);
        assert_every_fragment_once(&tasks, 500);
        assert_eq!(p.remaining_fragments(), 0);
    }

    #[test]
    fn large_fragments_ship_alone_and_first() {
        let frags = protein_workload(300, 2);
        let max_cost = frags.iter().map(|f| f.cost()).fold(0.0, f64::max);
        let mut p = SizeSensitivePolicy::with_defaults(frags);
        let tasks = drain(&mut p);
        // First tasks are singletons of the largest fragments.
        for t in tasks.iter().take(3) {
            assert_eq!(t.len(), 1, "large task must be singleton");
            assert!(t.cost() >= 0.5 * max_cost);
        }
        // Costs of the large singleton prefix are non-increasing.
        let singleton_costs: Vec<f64> = tasks
            .iter()
            .take_while(|t| t.len() == 1 && t.cost() >= 0.5 * max_cost)
            .map(|t| t.cost())
            .collect();
        assert!(singleton_costs.len() > 1);
        for w in singleton_costs.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn medium_tasks_are_packed() {
        let frags = water_dimer_workload(2000);
        let mut p = SizeSensitivePolicy::with_defaults(frags);
        let tasks = drain(&mut p);
        // Uniform small fragments: everything below large cutoff packs.
        let mid = &tasks[tasks.len() / 3];
        assert!(mid.len() > 1, "medium phase must pack fragments");
        assert_every_fragment_once(&tasks, 2000);
    }

    #[test]
    fn tail_granularity_shrinks_to_one() {
        let frags = water_dimer_workload(1000);
        let mut p = SizeSensitivePolicy::with_defaults(frags);
        let tasks = drain(&mut p);
        let last = tasks.last().unwrap();
        assert_eq!(last.len(), 1, "final task must be a single fragment");
        // Tail task sizes are non-increasing.
        let tail: Vec<usize> = tasks.iter().rev().take(10).map(|t| t.len()).collect();
        for w in tail.windows(2) {
            assert!(w[1] >= w[0], "tail granularity must shrink toward the end");
        }
    }

    #[test]
    fn round_robin_preserves_order() {
        let frags = protein_workload(10, 3);
        let ids: Vec<u32> = frags.iter().map(|f| f.id).collect();
        let mut p = RoundRobinPolicy::new(frags, 3);
        let tasks = drain(&mut p);
        assert_eq!(tasks.len(), 4);
        let served: Vec<u32> =
            tasks.iter().flat_map(|t| t.fragments.iter().map(|f| f.id)).collect();
        assert_eq!(served, ids);
    }

    #[test]
    fn sorted_singleton_is_lpt_order() {
        let frags = protein_workload(50, 4);
        let mut p = SortedSingletonPolicy::new(frags);
        let tasks = drain(&mut p);
        assert!(tasks.iter().all(|t| t.len() == 1));
        for w in tasks.windows(2) {
            assert!(w[0].cost() >= w[1].cost() - 1e-9);
        }
        assert_every_fragment_once(&tasks, 50);
    }

    #[test]
    fn random_policy_complete_and_deterministic() {
        let frags = protein_workload(100, 5);
        let t1 = drain(&mut RandomPolicy::new(frags.clone(), 4, 9));
        assert_every_fragment_once(&t1, 100);
        let t2 = drain(&mut RandomPolicy::new(frags.clone(), 4, 9));
        assert_eq!(t1.len(), t2.len());
        let t3 = drain(&mut RandomPolicy::new(frags, 4, 10));
        let same_order = t1
            .iter()
            .zip(&t3)
            .all(|(a, b)| a.fragments.iter().map(|f| f.id).eq(b.fragments.iter().map(|f| f.id)));
        assert!(!same_order, "different seeds should shuffle differently");
    }

    #[test]
    fn empty_pool_yields_none() {
        let mut p = SizeSensitivePolicy::with_defaults(vec![]);
        assert!(p.next_task().is_none());
        assert_eq!(p.remaining_fragments(), 0);
    }

    /// A non-finite measured cost (a hung timer, a 0/0 rate) must not
    /// panic the sort — `total_cmp` orders NaN after +inf, so the poisoned
    /// fragment simply sorts to the "largest" end and every fragment is
    /// still served exactly once.
    #[test]
    fn nan_cost_fragment_does_not_panic_policies() {
        let mut frags = water_dimer_workload(20);
        frags[7] = frags[7].with_cost_hint(f64::NAN);
        frags[3] = frags[3].with_cost_hint(f64::INFINITY);
        let tasks = drain(&mut SizeSensitivePolicy::with_defaults(frags.clone()));
        assert_every_fragment_once(&tasks, 20);
        // NaN sorts after +inf under total_cmp: the poisoned fragment is
        // served first, as its own task.
        assert_eq!(tasks[0].fragments[0].id, 7);
        assert!(tasks[0].fragments[0].cost().is_nan());
        let tasks = drain(&mut SortedSingletonPolicy::new(frags));
        assert_every_fragment_once(&tasks, 20);
        assert_eq!(tasks[0].fragments[0].id, 7);
    }
}
