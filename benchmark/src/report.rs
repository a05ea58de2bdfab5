//! What leaves the benchmark: the one-line result a run prints, the table
//! beside it, `BENCHMARK.json` as the source of metric names, directions and
//! bounds, result sets, and the `diff` that compares two of them.

use std::io;
use std::path::Path;

use crate::json::{self, Value};
use crate::run::{Metric, Outcome};
use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, as far as the benchmark itself needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl BenchSpec {
    pub fn load(path: &Path) -> io::Result<BenchSpec> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        BenchSpec::parse(&text)
    }

    pub fn parse(text: &str) -> io::Result<BenchSpec> {
        let doc = json::parse(text).map_err(bad)?;
        let list = |key: &str| -> io::Result<&[Value]> {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| bad(format!("BENCHMARK.json: no {key}")))
        };
        let text_of = |v: &Value, key: &str| -> io::Result<String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("BENCHMARK.json: entry without {key}")))
        };
        let metrics = |key: &str| -> io::Result<Vec<MetricSpec>> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("BENCHMARK.json: no run_seconds"))?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<io::Result<_>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The last line of a run's standard output.
pub fn contract_line(outcome: &Outcome) -> String {
    let metrics = Value::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                let body =
                    Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]);
                (m.name.to_string(), body)
            })
            .collect(),
    );
    Value::obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ])
    .compact()
}

/// The table a person reads, for standard error.
pub fn table(workload: &str, outcome: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {workload} ==");
    for Metric { name, value, unit, samples } in &outcome.metrics {
        let n = samples.map_or(String::new(), |n| format!("  (n = {n})"));
        let _ = writeln!(out, "  {name:<46} {value:>16.4} {unit}{n}");
    }
    if let Some(ops) = outcome.detail.get("ops").and_then(Value::as_obj) {
        let parts: Vec<String> =
            ops.iter().map(|(k, v)| format!("{k} {}", v.as_f64().unwrap_or(0.0))).collect();
        let _ = writeln!(out, "  operations: {}", parts.join(", "));
    }
    let _ = writeln!(
        out,
        "  attempted {}, failed {}, correct {}, valid {}",
        outcome.attempted, outcome.failed, outcome.correct, outcome.valid
    );
    if let Some(complaints) = outcome.detail.get("complaints").and_then(Value::as_arr) {
        for c in complaints {
            let _ = writeln!(out, "  ! {}", c.as_str().unwrap_or(""));
        }
    }
    out
}

/// Median and quartile spread of one metric over a set's runs.
pub fn summarize(values: &[f64]) -> (f64, Option<f64>) {
    (stats::median(values), if values.len() >= 4 { stats::quartile_spread(values) } else { None })
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// A side's run-to-run spread exceeds the bound: no verdict either way.
    Unresolved,
    /// The metric or workload is missing on one side.
    Missing,
}

#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn set_metric<'a>(set: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    set.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)
}

/// Compare result set `new` against `base` under the bounds of `spec`.
pub fn diff(spec: &BenchSpec, base: &Value, new: &Value) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let (b, n) = (set_metric(base, workload, &m.name), set_metric(new, workload, &m.name));
            let value = |v: Option<&Value>| v?.get("value")?.as_f64();
            let spread = |v: Option<&Value>| v?.get("spread")?.as_f64();
            let mut row = DiffRow {
                workload: workload.clone(),
                metric: m.name.clone(),
                base: f64::NAN,
                new: f64::NAN,
                worse_by: f64::NAN,
                bound,
                verdict: Verdict::Missing,
            };
            if let (Some(bv), Some(nv)) = (value(b), value(n)) {
                let worse_by = if m.better == "higher" { (bv - nv) / bv } else { (nv - bv) / bv };
                let too_wide = |v| spread(v).is_some_and(|s| s > bound);
                row.verdict = if too_wide(b) || too_wide(n) {
                    Verdict::Unresolved
                } else if worse_by > bound {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                };
                (row.base, row.new, row.worse_by) = (bv, nv, worse_by);
            }
            rows.push(row);
        }
    }
    rows
}

pub fn diff_table(rows: &[DiffRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<32} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "MISSING",
        };
        let _ = writeln!(
            out,
            "{:<14} {:<32} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {verdict}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0
        );
    }
    out
}

/// Whether a diff lets the change through: nothing regressed, nothing missing.
pub fn passes(rows: &[DiffRow]) -> bool {
    rows.iter().all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "command": ["x"], "paths": ["benchmark"], "run_seconds": 22,
      "workloads": [{"name": "w", "why": "because"}],
      "end_to_end": [
        {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "cap", "unit": "1/s", "better": "higher", "bound": 0.1}],
      "per_layer": [{"name": "l.x", "unit": "ns", "better": "lower"}]
    }"#;

    fn set(lat: f64, cap: f64, spread: f64) -> Value {
        json::parse(&format!(
            r#"{{"workloads":{{"w":{{"end_to_end":{{
                "lat":{{"value":{lat},"spread":{spread}}},
                "cap":{{"value":{cap},"spread":0.01}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn spec_parses() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        assert_eq!(spec.run_seconds, 22.0);
        assert_eq!(spec.workloads, vec!["w"]);
        assert_eq!(spec.end_to_end[1].better, "higher");
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].bound, None);
        assert!(BenchSpec::parse("{}").is_err());
    }

    #[test]
    fn diff_applies_direction_and_bound() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        let verdicts = |new: &Value| -> Vec<Verdict> {
            diff(&spec, &set(100.0, 1000.0, 0.02), new).into_iter().map(|r| r.verdict).collect()
        };
        // inside the bound both ways
        assert_eq!(verdicts(&set(109.0, 950.0, 0.02)), vec![Verdict::Ok, Verdict::Ok]);
        // latency up 20 %: regression; capacity up: never a regression
        assert_eq!(verdicts(&set(120.0, 2000.0, 0.02)), vec![Verdict::Regression, Verdict::Ok]);
        // capacity down 20 %
        assert_eq!(verdicts(&set(80.0, 800.0, 0.02)), vec![Verdict::Ok, Verdict::Regression]);
        // a spread wider than the bound decides nothing
        assert_eq!(verdicts(&set(150.0, 1000.0, 0.3)), vec![Verdict::Unresolved, Verdict::Ok]);
        let rows = diff(&spec, &set(100.0, 1000.0, 0.02), &json::parse("{}").unwrap());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
        assert!(!passes(&rows));
        assert!(passes(&diff(&spec, &set(100.0, 1000.0, 0.02), &set(150.0, 1000.0, 0.3))));
        assert!(diff_table(&rows).contains("MISSING"));
    }

    #[test]
    fn summary_needs_four_runs_for_a_spread() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]), (2.0, None));
        let (m, s) = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, Some(1.0));
    }
}
