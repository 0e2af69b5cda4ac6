//! Printing: the human-readable report, the results file `--compare` reads,
//! and the one-line result of a contract run.

use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::record::obj;
use crate::runner::WorkloadResult;
use crate::stats::Summary;
use serde_json::Value;
use std::fmt::Write as _;

/// Every metric by name and unit, per workload.
pub fn render(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    for res in results {
        let _ = writeln!(out, "\n== {} ==", res.name);
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>13} {:>13} {:>13} {:>13} {:>13} {:>3}  bound",
            "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n"
        );
        for m in &END_TO_END {
            let Some(s) = res.e2e.get(m.name).and_then(|v| Summary::of(v)) else { continue };
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>3}  {:.0} % {}",
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n,
                m.bound * 100.0,
                m.better.as_str()
            );
        }
        if res.request_max_s > 0.0 {
            let _ = writeln!(out, "{:<16} {:>8} {:>13.6}", "request_max_s", "s", res.request_max_s);
        }
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>13.6}   ({} failed of {} attempted)",
            "failed_frac",
            "ratio",
            res.failed_frac(),
            res.failed,
            res.attempted
        );
        if !res.layers.is_empty() {
            let _ = writeln!(out, "{:<34} {:>16} {:<8} should move", "per-layer", "value", "unit");
            for m in &PER_LAYER {
                let _ = writeln!(
                    out,
                    "{:<34} {:>16.6} {:<8} {}",
                    m.name, res.layers[m.name], m.unit, m.moves
                );
            }
            let wall = res.spans.get("staged.wall_s").copied().unwrap_or(0.0);
            let _ = writeln!(out, "staged spans (wall {wall:.4} s): name calls total_s self_s");
            let names: Vec<&str> = res
                .spans
                .keys()
                .filter_map(|k| k.strip_prefix("span:")?.strip_suffix(":self_s"))
                .collect();
            let mut self_sum = 0.0;
            for name in names {
                let get = |what: &str| {
                    res.spans.get(&format!("span:{name}:{what}")).copied().unwrap_or(0.0)
                };
                self_sum += get("self_s");
                let _ = writeln!(
                    out,
                    "  {:<26} {:>8} {:>12.6} {:>12.6}",
                    name,
                    get("calls"),
                    get("total_s"),
                    get("self_s")
                );
            }
            let _ = writeln!(out, "  self times sum to {self_sum:.4} s of {wall:.4} s staged wall");
            let staged_stage = |key: &str| res.spans.get(key).copied().unwrap_or(0.0);
            for (stage, staged) in [
                ("core.stage_decompose_s", res.layers["fragment.decompose_s"]),
                ("core.stage_engine_s", staged_stage("staged.engine_stage_s")),
                (
                    "core.stage_assemble_s",
                    res.layers["fragment.assemble_s"] + res.layers["core.shard_open_s"],
                ),
                ("core.stage_solver_s", res.layers["solver.total_s"]),
            ] {
                // One staged pass covers all of a workload's requests; the
                // untraced stage times are per-request medians.
                let requests = staged_stage("span:core.request:calls").max(1.0);
                let _ = writeln!(
                    out,
                    "  {stage} untraced {:.6} s, staged {:.6} s per request",
                    res.layers[stage],
                    staged / requests
                );
            }
        }
        for f in &res.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
    }
    let _ = writeln!(out, "\nend-to-end metrics:");
    for m in &END_TO_END {
        let _ = writeln!(out, "  {:<14} {}", m.name, m.meaning);
    }
    out
}

/// The results document `--out` writes and `--compare` reads.
pub fn results_json(results: &[WorkloadResult], seed: u64) -> Value {
    let workloads = results
        .iter()
        .map(|res| {
            let e2e = END_TO_END
                .iter()
                .filter_map(|m| {
                    let samples = res.e2e.get(m.name)?;
                    let mut v = Summary::of(samples)?.to_json(samples);
                    if let Value::Object(fields) = &mut v {
                        fields.push(("unit".into(), Value::String(m.unit.into())));
                    }
                    Some((m.name.to_string(), v))
                })
                .collect();
            let layers = PER_LAYER
                .iter()
                .filter_map(|m| {
                    let value = Value::Float(*res.layers.get(m.name)?);
                    Some((
                        m.name.to_string(),
                        obj(vec![("value", value), ("unit", Value::String(m.unit.into()))]),
                    ))
                })
                .collect();
            let counters =
                res.counters.iter().map(|(k, v)| (k.clone(), Value::Int(*v as i64))).collect();
            let body = obj(vec![
                ("end_to_end", Value::Object(e2e)),
                ("per_layer", Value::Object(layers)),
                ("counters", Value::Object(counters)),
                ("attempted", Value::Int(res.attempted as i64)),
                ("failed", Value::Int(res.failed as i64)),
                (
                    "failures",
                    Value::Array(res.failures.iter().map(|f| Value::String(f.clone())).collect()),
                ),
            ]);
            (res.name.to_string(), body)
        })
        .collect();
    obj(vec![("seed", Value::Int(seed as i64)), ("workloads", Value::Object(workloads))])
}

/// The last stdout line of a contract run: the medians of every end-to-end
/// metric (`--trace 0`) or every per-layer metric (`--trace 1`).
pub fn contract_line(res: &WorkloadResult, trace: bool) -> Value {
    let metric = |value: f64, unit: &str| {
        obj(vec![("value", Value::Float(value)), ("unit", Value::String(unit.into()))])
    };
    let metrics: Vec<(String, Value)> = if trace {
        PER_LAYER.iter().map(|m| (m.name.to_string(), metric(res.layers[m.name], m.unit))).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let median =
                    res.e2e.get(m.name).and_then(|v| Summary::of(v)).map_or(0.0, |s| s.median);
                (m.name.to_string(), metric(median, m.unit))
            })
            .collect()
    };
    obj(vec![
        ("correct", Value::Bool(res.failed == 0 && res.failures.is_empty())),
        ("attempted", Value::Int(res.attempted.max(1) as i64)),
        ("failed", Value::Int(res.failed as i64)),
        ("metrics", Value::Object(metrics)),
    ])
}

/// Verdict on one end-to-end metric of one workload between two results
/// files, under the metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(base: Summary, new: Summary, better: Better, bound: f64) -> Verdict {
    if base.spread().max(new.spread()) > bound {
        return Verdict::Unresolved;
    }
    if base.median == 0.0 {
        return if new.median == 0.0 { Verdict::Same } else { Verdict::Unresolved };
    }
    let change = (new.median - base.median) / base.median.abs();
    let worsening = if better == Better::Lower { change } else { -change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary_of(v: &Value) -> Option<Summary> {
    let samples: Vec<f64> = v["samples"].as_array()?.iter().filter_map(Value::as_f64).collect();
    Summary::of(&samples)
}

/// Compares two results files; returns the report and whether anything got
/// worse (a `worse` verdict, a failure, or a deterministic counter that
/// differs).
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let Value::Object(workloads) = &a["workloads"] else {
        return ("first file has no workloads\n".into(), true);
    };
    let _ = writeln!(
        out,
        "{:<20} {:<14} {:>12} {:>22} {:>12} {:>22} {:>16}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A"
    );
    for (name, wa) in workloads {
        let wb = &b["workloads"][name.as_str()];
        if wb.is_null() {
            let _ = writeln!(out, "{name:<20} missing from the second file");
            bad = true;
            continue;
        }
        for m in &metrics::END_TO_END {
            let (Some(sa), Some(sb)) =
                (summary_of(&wa["end_to_end"][m.name]), summary_of(&wb["end_to_end"][m.name]))
            else {
                continue;
            };
            let v = verdict(sa, sb, m.better, m.bound);
            bad |= v == Verdict::Worse;
            let spread = if v == Verdict::Unresolved {
                format!(
                    " (spread A {:.1} %, B {:.1} %, bound {:.0} %)",
                    sa.spread() * 100.0,
                    sb.spread() * 100.0,
                    m.bound * 100.0
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{:<20} {:<14} {:>12.6} {:>22} {:>12.6} {:>22} {:>7.4} of {:<8.4}  {}{}",
                name,
                m.name,
                sa.median,
                format!("[{:.5}, {:.5}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.5}, {:.5}]", sb.q1, sb.q3),
                if sa.median != 0.0 { sb.median / sa.median } else { 0.0 },
                sa.median,
                v.as_str(),
                spread
            );
        }
        for (side, w) in [("A", wa), ("B", wb)] {
            if w["failed"].as_u64().unwrap_or(0) > 0 {
                let _ = writeln!(out, "{name:<20} {side} has failed runs or checks");
                bad = true;
            }
        }
        if wa["counters"] != wb["counters"] {
            let _ = writeln!(out, "{name:<20} deterministic counters differ between A and B");
            bad = true;
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Summary {
        Summary::of(samples).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = s(&[10.0, 10.1, 9.9, 10.0]);
        assert_eq!(verdict(base, s(&[10.5, 10.4, 10.6]), Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(base, s(&[11.5, 11.4, 11.6]), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(base, s(&[8.5, 8.4, 8.6]), Better::Lower, 0.10), Verdict::Better);
        // A throughput falls when it worsens.
        assert_eq!(verdict(base, s(&[8.5, 8.4, 8.6]), Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(base, s(&[11.5, 11.4, 11.6]), Better::Higher, 0.10), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let base = s(&[10.0, 10.1, 9.9, 10.0]);
        let noisy = s(&[8.0, 10.0, 12.0, 14.0]);
        assert_eq!(verdict(base, noisy, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(noisy, base, Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn compare_flags_worse_metrics_and_counter_drift() {
        let side = |wall: [f64; 3], flops: i64| {
            let samples = Value::Array(wall.iter().map(|&x| Value::Float(x)).collect());
            obj(vec![(
                "workloads",
                obj(vec![(
                    "w",
                    obj(vec![
                        ("end_to_end", obj(vec![("wall_s", obj(vec![("samples", samples)]))])),
                        ("counters", obj(vec![("linalg.flops", Value::Int(flops))])),
                        ("failed", Value::Int(0)),
                    ]),
                )]),
            )])
        };
        let base = side([1.0, 1.01, 0.99], 7);
        let (text, bad) = compare(&base, &side([1.02, 1.0, 1.01], 7));
        assert!(!bad && text.contains("same"), "{text}");
        let (text, bad) = compare(&base, &side([1.3, 1.31, 1.29], 7));
        assert!(bad && text.contains("worse"), "{text}");
        let (text, bad) = compare(&base, &side([1.0, 1.01, 0.99], 8));
        assert!(bad && text.contains("counters differ"), "{text}");
    }
}
