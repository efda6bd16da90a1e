//! `dsp-perf compare`: the parent-versus-change verdict for every
//! workload × metric, by the rule the benchmark's bounds are set for.
//!
//! Runs pair up by position (parent run *i* with change run *i*, which
//! the operator alternates). With at least [`MIN_PAIRS`] pairs:
//!
//! - **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ, in its favour, by
//!   more than the parent's interquartile range;
//! - **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound (per-layer metrics have none: worse is the
//!   mirror of improved);
//! - **unresolved** — the parent's own spread is wider than the bound,
//!   unless every change run beats every parent run; and every
//!   per-layer row that is neither improved nor worse;
//! - **no worse** — otherwise.

use std::collections::BTreeMap;

use dsp_driver::json::{self, Value};

use crate::metrics::{self, Better, RunResult};
use crate::stats;

/// Fewest alternating pairs a verdict may rest on.
pub const MIN_PAIRS: usize = 10;

/// A metric's comparison rule, read from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Largest tolerated worsening, as a share of the parent's median;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the nine-tenths-and-IQR rule.
    Improved,
    /// Within the bound.
    NoWorse,
    /// Worse than the bound allows.
    Worse,
    /// The runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Read every metric's rule from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Describes the first malformed entry.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let entries = doc
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{section}` array"))?;
        for e in entries {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("a `{section}` entry has no name"))?;
            let better = match e.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("`{name}` has no valid `better`")),
            };
            let bound = if bounded {
                Some(
                    e.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("`{name}` has no bound"))?,
                )
            } else {
                None
            };
            out.push(Rule {
                name: name.to_string(),
                better,
                bound,
            });
        }
    }
    Ok(out)
}

/// Judge one metric from its parent and change runs, paired by index.
#[must_use]
pub fn verdict(rule: &Rule, parent: &[f64], change: &[f64]) -> Verdict {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..n], &change[..n]);
    // Positive when the change reads better.
    let gain = |p: f64, c: f64| match rule.better {
        Better::Lower => p - c,
        Better::Higher => c - p,
    };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(**p, **c) > 0.0)
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(**p, **c) < 0.0)
        .count();
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let iqr = stats::quartiles(parent).map_or(0.0, |[q1, _, q3]| q3 - q1);
    if wins * 10 >= n * 9 && gain(mp, mc) > iqr {
        return Verdict::Improved;
    }
    let Some(bound) = rule.bound else {
        return if losses * 10 >= n * 9 && -gain(mp, mc) > iqr {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    };
    if -gain(mp, mc) > bound * mp.abs() {
        return Verdict::Worse;
    }
    let separated = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    if iqr > bound * mp.abs() && !separated {
        Verdict::Unresolved
    } else {
        Verdict::NoWorse
    }
}

/// Workload → metric → value of one `dsp-perf run --json` file: the
/// end-to-end results merged with the traced ones when present.
///
/// # Errors
///
/// Describes why the file is not a run file.
pub fn load_run(text: &str) -> Result<BTreeMap<String, RunResult>, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let mut out: BTreeMap<String, RunResult> = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(Value::Object(workloads)) = doc.get(section) else {
            continue;
        };
        for (name, v) in workloads {
            let result = metrics::from_value(v).map_err(|e| format!("{section}.{name}: {e}"))?;
            match out.get_mut(name) {
                Some(merged) => merged.metrics.extend(result.metrics),
                None => {
                    out.insert(name.clone(), result);
                }
            }
        }
    }
    if out.is_empty() {
        return Err("no workload results (expected `end_to_end` / `per_layer`)".to_string());
    }
    Ok(out)
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the parent runs.
    pub parent: f64,
    /// Median of the change runs.
    pub change: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare parent and change run files (already loaded), one row per
/// workload × metric that both sides report.
#[must_use]
pub fn compare(
    rules: &[Rule],
    parents: &[BTreeMap<String, RunResult>],
    changes: &[BTreeMap<String, RunResult>],
) -> Vec<Row> {
    let values = |runs: &[BTreeMap<String, RunResult>], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.get(w)?.metrics.get(m).copied())
            .collect()
    };
    let workloads: Vec<&String> = parents.iter().flat_map(BTreeMap::keys).collect();
    let mut seen = Vec::new();
    let mut rows = Vec::new();
    for w in workloads {
        if seen.contains(&w) {
            continue;
        }
        seen.push(w);
        for rule in rules {
            let (p, c) = (
                values(parents, w, &rule.name),
                values(changes, w, &rule.name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: w.clone(),
                metric: rule.name.clone(),
                parent: stats::median(&p),
                change: stats::median(&c),
                verdict: verdict(rule, &p, &c),
            });
        }
    }
    rows
}
