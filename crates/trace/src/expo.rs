//! Prometheus text exposition (format 0.0.4) — the one writer behind
//! every `/metrics` endpoint in the fleet.
//!
//! The writer owns the format, not the counters: callers keep their
//! atomics and hand values in at render time. It writes family headers
//! (`# HELP` / `# TYPE`), sample lines, and the cumulative series of a
//! [`HistogramSnapshot`]. Label values are escaped (`\`, `"`, newline),
//! so an identity announced from outside the process cannot corrupt a
//! scrape.

use std::fmt::{self, Display, Write as _};

use crate::{bucket_bound_seconds, HistogramSnapshot, Tracer};

/// A family's Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative `_bucket` / `_sum` / `_count` series.
    Histogram,
}

impl Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        })
    }
}

/// A text exposition under construction.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty exposition.
    #[must_use]
    pub fn new() -> Exposition {
        Exposition {
            out: String::with_capacity(4096),
        }
    }

    /// Open a family: its `# HELP` and `# TYPE` lines.
    pub fn family(&mut self, name: &str, kind: Kind, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    }

    /// One sample line, `name{labels} value`; braces are omitted when
    /// `labels` is empty.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            push_labels(&mut self.out, labels);
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// A family holding exactly one unlabeled sample.
    pub fn single(&mut self, name: &str, kind: Kind, help: &str, value: impl Display) {
        self.family(name, kind, help);
        self.sample(name, &[], value);
    }

    /// One histogram's series: a cumulative `_bucket` line per finite
    /// bound, `+Inf` (equal to the count), `_sum` in seconds, `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let mut head = format!("{name}_bucket{{");
        push_labels(&mut head, labels);
        if !labels.is_empty() {
            head.push(',');
        }
        let mut cum = 0u64;
        for (i, n) in snap.buckets.iter().enumerate() {
            cum += n;
            let _ = writeln!(self.out, "{head}le=\"{}\"}} {cum}", bucket_bound_seconds(i));
        }
        let _ = writeln!(self.out, "{head}le=\"+Inf\"}} {}", snap.count);
        self.sample(
            &format!("{name}_sum"),
            labels,
            format_args!("{:.6}", snap.sum_seconds()),
        );
        self.sample(&format!("{name}_count"), labels, snap.count);
    }

    /// A whole tracer histogram family as `name`, one histogram per
    /// label, or nothing when the family has no observations (which
    /// includes a disabled tracer). The tracer stores one flat label
    /// whose parts are joined by `|` (`"compile|200"`); they map onto
    /// `keys` in order, and a label with fewer parts omits the
    /// trailing keys (`"regalloc"` next to `"partition|fm"`).
    pub fn tracer_family(
        &mut self,
        tracer: &Tracer,
        family: &str,
        name: &str,
        help: &str,
        keys: &[&str],
    ) {
        let snaps = tracer.family_snapshot(family);
        if snaps.is_empty() {
            return;
        }
        self.family(name, Kind::Histogram, help);
        for (label, snap) in &snaps {
            let labels: Vec<(&str, &str)> = keys
                .iter()
                .copied()
                .zip(label.splitn(keys.len(), '|'))
                .collect();
            self.histogram(name, &labels, snap);
        }
    }

    /// The finished text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// `k="v",k="v"` with each value escaped.
fn push_labels(out: &mut String, labels: &[(&str, &str)]) {
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlabeled_histogram_renders_bare_series() {
        // Every caller labels its histograms (the golden expositions
        // pin those); this pins the label-free form and bucket placement.
        let t = Tracer::new(8);
        t.observe("f", "x", Duration::from_micros(3));
        t.observe("f", "x", Duration::from_micros(300));
        let snap = &t.family_snapshot("f")[0].1;
        let mut x = Exposition::new();
        x.histogram("h", &[], snap);
        let text = x.finish();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), crate::FINITE_BUCKETS + 3);
        assert_eq!(lines[0], "h_bucket{le=\"0.000001\"} 0");
        assert_eq!(lines[2], "h_bucket{le=\"0.000004\"} 1");
        assert_eq!(lines[9], "h_bucket{le=\"0.000512\"} 2");
        assert_eq!(lines[crate::FINITE_BUCKETS], "h_bucket{le=\"+Inf\"} 2");
        assert_eq!(lines[crate::FINITE_BUCKETS + 1], "h_sum 0.000303");
        assert_eq!(lines[crate::FINITE_BUCKETS + 2], "h_count 2");
    }
}
