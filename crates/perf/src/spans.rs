//! Span arithmetic for the traced run: self time, and the Perfetto
//! nesting check every trace file must pass.

use dsp_driver::json::{self, Value};

/// A span's interval on its node's clock: start and duration in
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

impl Interval {
    fn end_us(self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// Self time: the parent's duration minus the part of its interval that
/// its children cover. Children may overlap one another (an executor's
/// `exec.run` and the `cell` it runs) or stick out of the parent
/// (clocks of backfilled spans); each covered microsecond counts once
/// and only inside the parent.
#[must_use]
pub fn self_time_us(parent: Interval, children: &[Interval]) -> u64 {
    let (lo, hi) = (parent.start_us, parent.end_us());
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(lo), c.end_us().min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    parent.dur_us - covered
}

/// The nesting check of `dualbank trace-validate`: `doc` is valid JSON
/// with a `traceEvents` array of complete (`"ph": "X"`) events with
/// `ts` and `dur`, and at least one event nests inside a longer one on
/// the same `pid`/`tid` lane — proof that parent/child structure
/// survived the export. Returns the number of complete events.
///
/// # Errors
///
/// Describes the first way the document falls short.
pub fn check_nesting(doc: &str) -> Result<usize, String> {
    let doc = json::parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("no traceEvents array")?;
    let mut lanes = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let num = |k: &str| e.get(k).and_then(Value::as_f64);
        let lane = (
            e.get("pid").and_then(Value::as_u64).unwrap_or(0),
            e.get("tid").and_then(Value::as_u64).unwrap_or(0),
        );
        let ts = num("ts").ok_or("a complete event has no ts")?;
        let dur = num("dur").ok_or("a complete event has no dur")?;
        lanes.push((lane, ts, dur));
    }
    if lanes.is_empty() {
        return Err("no complete (ph=X) events".to_string());
    }
    let nested = lanes.iter().any(|&(lb, tb, db)| {
        lanes
            .iter()
            .any(|&(la, ta, da)| la == lb && db < da && tb >= ta && tb + db <= ta + da)
    });
    if nested {
        Ok(lanes.len())
    } else {
        Err(format!(
            "{} complete events but none nest — span parenting is broken",
            lanes.len()
        ))
    }
}
