//! The metric catalogue and the one-line result every workload run
//! prints last.
//!
//! Every workload reports every metric of its kind: the end-to-end set
//! from an untraced run, the per-layer set from a traced one. A layer
//! that a workload does not exercise (the router on a batch workload)
//! reports 0, so rows line up across workloads and a drift test can
//! compare the catalogue against `BENCHMARK.json` in both directions.

use std::collections::BTreeMap;

use dsp_driver::json::{self, Value};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, from untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("latency_p50_ms", "ms", Lower),
    m("throughput_per_s", "1/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Metrics of single layers, from traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    m("frontend.parse_ms", "ms", Lower),
    m("opt.ms", "ms", Lower),
    m("sched.trial_compaction_ms", "ms", Lower),
    m("sched.final_pack_ms", "ms", Lower),
    m("bankalloc.partition_ms", "ms", Lower),
    m("bankalloc.partition_moves", "count", Lower),
    m("backend.regalloc_ms", "ms", Lower),
    m("backend.lower_ms", "ms", Lower),
    m("backend.link_ms", "ms", Lower),
    m("ir.profile_ms", "ms", Lower),
    m("ir.reference_ms", "ms", Lower),
    m("ir.verify_ms", "ms", Lower),
    m("sim.simulate_ms", "ms", Lower),
    m("sim.ns_per_cycle", "ns", Lower),
    m("sim.cycles", "count", Lower),
    m("driver.artifact_hits", "count", Higher),
    m("driver.artifact_misses", "count", Lower),
    m("driver.prepared_misses", "count", Lower),
    m("driver.disk_hits", "count", Higher),
    m("driver.store_open_ms", "ms", Lower),
    m("exec.idle_pct", "%", Lower),
    m("exec.wait_interactive_p99_ms", "ms", Lower),
    m("exec.wait_batch_p50_ms", "ms", Lower),
    m("serve.http_p50_ms", "ms", Lower),
    m("serve.http_self_ms", "ms", Lower),
    m("serve.rejected_503", "count", Lower),
    m("serve.deadline_504", "count", Lower),
    m("router.hop_p50_ms", "ms", Lower),
    m("router.hop_p99_ms", "ms", Lower),
    m("router.upstream_p50_ms", "ms", Lower),
    m("router.retries", "count", Lower),
    m("router.home_ratio", "ratio", Higher),
    m("client.compile_p50_ms", "ms", Lower),
    m("client.op_tail_ms", "ms", Lower),
    m("client.sweep_p50_ms", "ms", Lower),
    m("client.sweep_p90_ms", "ms", Lower),
    m("client.send_lag_p99_ms", "ms", Lower),
    m("trace.overhead_pct", "%", Lower),
];

/// The definition of metric `name`, from either catalogue.
#[must_use]
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The catalogue a run reports: per-layer when traced.
#[must_use]
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Every metric a run reports, each at 0 until the run fills it in.
#[must_use]
pub fn blank(traced: bool) -> BTreeMap<String, f64> {
    catalogue(traced)
        .iter()
        .map(|d| (d.name.to_string(), 0.0))
        .collect()
}

/// Set metric `name` in a map from [`blank`].
///
/// # Panics
///
/// Panics if `name` is not in the map — a misspelt metric is a bug in
/// this crate, caught by every run.
pub fn put(metrics: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    *metrics
        .get_mut(name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in this run's catalogue")) = value;
}

/// The outcome of one workload run: the line the benchmark prints last.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output checked equal to its expectation.
    pub correct: bool,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that errored, answered non-200, or mismatched.
    pub failed: u64,
    /// Metric name → value; units come from the catalogue.
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// The one-line JSON object: `correct`, `attempted`, `failed`, and
    /// `metrics` with each value at full precision beside its unit.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = def(name).map_or("", |d| d.unit);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::escape(name),
                    number(*v),
                    json::escape(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Parse a line written by [`RunResult::to_json_line`].
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        from_value(&json::parse(line).map_err(|e| format!("result is not JSON: {e}"))?)
    }
}

/// Read a [`RunResult`] out of an already-parsed JSON value.
///
/// # Errors
///
/// Describes the first missing or mistyped field.
pub fn from_value(v: &Value) -> Result<RunResult, String> {
    let int = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("result has no integer `{k}`"))
    };
    let Some(Value::Object(map)) = v.get("metrics") else {
        return Err("result has no `metrics` object".to_string());
    };
    let metrics = map
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct: v
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result has no boolean `correct`")?,
        attempted: int("attempted")?,
        failed: int("failed")?,
        metrics,
    })
}

/// A JSON number at full precision. A statistic of an empty sample (a
/// layer a short run never reached) or a failed run's infinite latency
/// renders as 0, so the line stays parseable JSON.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
