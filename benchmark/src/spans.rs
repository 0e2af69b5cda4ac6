//! Benchmark-owned span recorder for the staged traced run.
//!
//! The benchmark calls each layer's public functions itself and records a
//! span around every call; nothing inside the program is instrumented.
//! Spans stay in memory until the run ends and are then written in Chrome
//! trace-event format together with their self times.

use crate::record::obj;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Collects the spans of one staged run (one workload id). The layer traits
/// the adapters implement require `Sync`, hence the mutex; the staged run
/// itself is single-threaded, so one open-span stack is the causal parent.
pub struct Recorder {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), inner: Mutex::new(Inner { spans: vec![], open: vec![] }) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let start_ns = self.now_ns();
            let mut g = self.inner.lock().expect("span recorder poisoned");
            let parent = g.open.last().copied();
            g.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
            let id = g.spans.len() - 1;
            g.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut g = self.inner.lock().expect("span recorder poisoned");
        g.spans[id].end_ns = end_ns;
        let top = g.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        out
    }

    pub fn finish(self) -> Vec<Span> {
        self.inner.into_inner().expect("span recorder poisoned").spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![vec![]; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Call count, total and self seconds per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += s.duration_ns() as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
    }
    out
}

/// Durations (seconds) of every span with this name, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-9).collect()
}

/// Chrome trace-event document (`chrome://tracing`, ui.perfetto.dev): one
/// complete ("X") event per span carrying parent, self time and workload id.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Value {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, own))| {
            let parent = s.parent.map_or(Value::Null, |p| Value::Int(p as i64));
            let args = obj(vec![
                ("id", Value::Int(id as i64)),
                ("parent", parent),
                ("self_us", Value::Float(own as f64 / 1e3)),
                ("workload", Value::String(workload.into())),
            ]);
            obj(vec![
                ("name", Value::String(s.name.into())),
                ("ph", Value::String("X".into())),
                ("pid", Value::Int(1)),
                ("tid", Value::Int(1)),
                ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                ("dur", Value::Float(s.duration_ns() as f64 / 1e3)),
                ("args", args),
            ])
        })
        .collect();
    obj(vec![
        ("displayTimeUnit", Value::String("ms".into())),
        ("traceEvents", Value::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 60, Some(0)), // overlaps a by 10
            sp("leaf", 12, 20, Some(1)),
        ];
        // root: 100 - union(10..60) = 50; a: 30 - 8; b and leaf have no children.
        assert_eq!(self_times(&spans), vec![50, 22, 30, 8]);
    }

    #[test]
    fn sequential_tree_self_times_sum_to_root() {
        let spans = vec![
            sp("root", 0, 1000, None),
            sp("x", 0, 400, Some(0)),
            sp("y", 400, 900, Some(0)),
            sp("z", 450, 500, Some(2)),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
        let t = totals_by_name(&spans);
        assert_eq!(t["y"].calls, 1);
        assert!((t["y"].self_s - 450e-9).abs() < 1e-15);
        assert!((t["root"].self_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let rec = Recorder::new();
        let v = rec.span("outer", || rec.span("inner", || 1) + rec.span("inner", || 2));
        assert_eq!(v, 3);
        let spans = rec.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans[0].end_ns >= spans[2].end_ns && spans[1].end_ns <= spans[2].start_ns);
        assert_eq!(durations_of(&spans, "inner").len(), 2);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![sp("root", 0, 2000, None), sp("kid", 500, 1500, Some(0))];
        let doc = chrome_trace(&spans, "w");
        let text = serde_json::to_string(&doc).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        let events = back["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["ph"], "X");
        assert_eq!(events[1]["args"]["parent"], 0);
        assert_eq!(events[0]["args"]["self_us"], 1.0);
        assert_eq!(events[1]["args"]["workload"], "w");
    }
}
