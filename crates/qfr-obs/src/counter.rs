//! Global counter registry with a determinism contract.
//!
//! Counters are `static` atomics declared at their use site and registered
//! lazily on first increment, so the hot path is one relaxed `fetch_add`
//! plus one relaxed load. Each counter declares whether its value is a
//! pure function of the workload and seed ([`Determinism::Deterministic`])
//! or can vary run-to-run with thread/event timing
//! ([`Determinism::TimingSensitive`]). Only deterministic counters appear
//! in [`deterministic_report`], which is the byte-identical artifact the
//! CI metrics gate compares against `baselines/metrics.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Whether a counter's value is reproducible for a fixed workload + seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// Pure in the workload and seed: safe to pin in a CI baseline.
    Deterministic,
    /// Depends on scheduling races (straggler re-issue, duplicate
    /// suppression): reported, never gated on.
    TimingSensitive,
}

/// A named global counter. Declare as a `static` and bump with
/// [`Counter::add`] / [`Counter::incr`]:
///
/// ```
/// use qfr_obs::Counter;
/// static GEMM_CALLS: Counter = Counter::deterministic("doc.gemm.calls");
/// GEMM_CALLS.incr();
/// assert!(GEMM_CALLS.get() >= 1);
/// ```
pub struct Counter {
    name: &'static str,
    determinism: Determinism,
    value: AtomicU64,
    registered: AtomicBool,
}

static REGISTRY: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

impl Counter {
    /// A counter whose value is pure in the workload and seed.
    pub const fn deterministic(name: &'static str) -> Self {
        Self {
            name,
            determinism: Determinism::Deterministic,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// A counter whose value may vary with thread/event timing.
    pub const fn timing_sensitive(name: &'static str) -> Self {
        Self {
            name,
            determinism: Determinism::TimingSensitive,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n` to the counter (relaxed; registers on first use).
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// Increments the counter by one.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Raises the counter to `n` if `n` exceeds the current value
    /// (high-water gauges, e.g. peak concurrent service requests).
    pub fn record_max(&'static self, n: u64) {
        self.value.fetch_max(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The counter's determinism class.
    pub fn determinism(&self) -> Determinism {
        self.determinism
    }

    fn register(&'static self) {
        // The flag flips under the registry lock: a thread that sees it set
        // and then reads the registry (every reader locks it) finds the
        // counter already pushed.
        let mut registry = REGISTRY.lock().expect("counter registry poisoned");
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry.push(self);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("name", &self.name)
            .field("determinism", &self.determinism)
            .field("value", &self.get())
            .finish()
    }
}

/// One row of a [`snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterValue {
    /// Registry name (dotted path).
    pub name: &'static str,
    /// Determinism class.
    pub determinism: Determinism,
    /// Value at snapshot time.
    pub value: u64,
}

/// All registered counters, sorted by name (registration order is
/// timing-dependent; the sort restores determinism).
pub fn snapshot() -> Vec<CounterValue> {
    let reg = REGISTRY.lock().expect("counter registry poisoned");
    let mut out: Vec<CounterValue> = reg
        .iter()
        .map(|c| CounterValue { name: c.name, determinism: c.determinism, value: c.get() })
        .collect();
    out.sort_by_key(|c| c.name);
    out
}

/// Zeroes every registered counter (they stay registered).
pub fn reset() {
    let reg = REGISTRY.lock().expect("counter registry poisoned");
    for c in reg.iter() {
        c.value.store(0, Ordering::Relaxed);
    }
}

/// The value of a registered counter by name, if it has been touched.
pub fn value_of(name: &str) -> Option<u64> {
    let reg = REGISTRY.lock().expect("counter registry poisoned");
    reg.iter().find(|c| c.name == name).map(|c| c.get())
}

/// The byte-identical report of deterministic counters only: one
/// `name = value` line per counter, sorted by name. Two runs of the same
/// workload with the same seed produce the same bytes — this is what the
/// `qfr --metrics` flag prints and the CI metrics gate diffs.
pub fn deterministic_report() -> String {
    let mut out = String::new();
    for c in snapshot() {
        if c.determinism == Determinism::Deterministic {
            out.push_str(&format!("{} = {}\n", c.name, c.value));
        }
    }
    out
}

/// The full counter listing, timing-sensitive rows marked with `~`.
pub fn report() -> String {
    let mut out = String::from("-- counters (~ marks timing-sensitive) --\n");
    for c in snapshot() {
        let mark = if c.determinism == Determinism::TimingSensitive { "~" } else { " " };
        out.push_str(&format!("{mark} {} = {}\n", c.name, c.value));
    }
    out
}

/// Deterministic counters as a compact JSON object (sorted keys), for the
/// `baselines/metrics.json` gate and `BENCH_*.json` records.
pub fn deterministic_json() -> String {
    let mut out = String::from("{");
    let mut first = true;
    for c in snapshot() {
        if c.determinism == Determinism::Deterministic {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", c.name, c.value));
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    static A: Counter = Counter::deterministic("test.counter.a");
    static B: Counter = Counter::timing_sensitive("test.counter.b");

    #[test]
    fn add_and_snapshot() {
        A.add(3);
        B.incr();
        let snap = snapshot();
        let a = snap.iter().find(|c| c.name == "test.counter.a").expect("registered");
        assert!(a.value >= 3);
        assert_eq!(a.determinism, Determinism::Deterministic);
        let b = snap.iter().find(|c| c.name == "test.counter.b").expect("registered");
        assert_eq!(b.determinism, Determinism::TimingSensitive);
    }

    #[test]
    fn snapshot_is_sorted() {
        A.incr();
        B.incr();
        let snap = snapshot();
        for w in snap.windows(2) {
            assert!(w[0].name <= w[1].name, "{} > {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn deterministic_report_excludes_timing_sensitive() {
        A.incr();
        B.incr();
        let det = deterministic_report();
        assert!(det.contains("test.counter.a"));
        assert!(!det.contains("test.counter.b"));
        let full = report();
        assert!(full.contains("~ test.counter.b"));
    }

    #[test]
    fn deterministic_json_is_an_object() {
        A.incr();
        let json = deterministic_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"test.counter.a\":"));
        assert!(!json.contains("test.counter.b\":"));
    }

    #[test]
    fn record_max_is_a_high_water_mark() {
        static HW: Counter = Counter::timing_sensitive("test.counter.hw");
        HW.record_max(5);
        HW.record_max(3); // lower values never regress the gauge
        assert_eq!(HW.get(), 5);
        HW.record_max(9);
        assert_eq!(HW.get(), 9);
        assert!(value_of("test.counter.hw").is_some(), "record_max registers");
    }

    #[test]
    fn value_of_finds_touched_counters() {
        A.add(2);
        assert!(value_of("test.counter.a").expect("touched") >= 2);
        assert_eq!(value_of("test.counter.never-touched"), None);
    }
}
