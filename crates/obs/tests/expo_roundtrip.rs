//! The exposition writer and the fleet parser must agree: whatever
//! `dsp_trace::expo` renders, `dsp_obs::prom` reads back unchanged —
//! names, kinds, help, label sets, values, and every histogram's
//! buckets, sum, and count.

use std::time::Duration;

use dsp_obs::prom::{histogram_views, label_key, parse};
use dsp_trace::expo::{Exposition, Kind};
use dsp_trace::{bucket_bound_seconds, Tracer};

fn labels(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn counter_gauge_and_histogram_families_survive_a_round_trip() {
    let tracer = Tracer::new(16);
    for micros in [3, 40, 40, 900, 2_500_000] {
        tracer.observe("lat", "compile|200", Duration::from_micros(micros));
    }
    tracer.observe("lat", "sweep|503", Duration::from_millis(7));

    let mut x = Exposition::new();
    x.single("t_up", Kind::Gauge, "1 while up.", 1);
    x.family("t_requests_total", Kind::Counter, "Requests by endpoint.");
    x.sample(
        "t_requests_total",
        &[("endpoint", "compile"), ("status", "200")],
        5,
    );
    x.sample(
        "t_requests_total",
        &[("endpoint", "odd \"name\"\\\n"), ("status", "error")],
        2,
    );
    x.single(
        "t_tokens",
        Kind::Gauge,
        "Tokens left.",
        format_args!("{:.3}", 7.5),
    );
    x.tracer_family(
        &tracer,
        "lat",
        "t_latency_seconds",
        "Latency by endpoint and status.",
        &["endpoint", "status"],
    );
    let families = parse(&x.finish());

    let shape: Vec<(&str, &str, &str)> = families
        .iter()
        .map(|f| (f.name.as_str(), f.kind.as_str(), f.help.as_str()))
        .collect();
    assert_eq!(
        shape,
        [
            ("t_up", "gauge", "1 while up."),
            ("t_requests_total", "counter", "Requests by endpoint."),
            ("t_tokens", "gauge", "Tokens left."),
            (
                "t_latency_seconds",
                "histogram",
                "Latency by endpoint and status."
            ),
        ]
    );
    assert!(families[0].samples[0].labels.is_empty());
    assert_eq!(families[0].samples[0].value, 1.0);
    let requests: Vec<(Vec<(String, String)>, f64)> = families[1]
        .samples
        .iter()
        .map(|s| (s.labels.clone(), s.value))
        .collect();
    assert_eq!(
        requests,
        [
            (labels(&[("endpoint", "compile"), ("status", "200")]), 5.0),
            (
                labels(&[("endpoint", "odd \"name\"\\\n"), ("status", "error")]),
                2.0
            ),
        ]
    );
    assert_eq!(families[2].samples[0].value, 7.5);

    let views = histogram_views(&families[3]);
    let snaps = tracer.family_snapshot("lat");
    assert_eq!(views.len(), snaps.len());
    for (view, (label, snap)) in views.iter().zip(&snaps) {
        let (endpoint, status) = label.split_once('|').unwrap();
        assert_eq!(
            label_key(&view.labels),
            label_key(&labels(&[("endpoint", endpoint), ("status", status)]))
        );
        let mut cum = 0;
        let expected: Vec<(f64, u64)> = snap
            .buckets
            .iter()
            .enumerate()
            .map(|(i, n)| {
                cum += n;
                (bucket_bound_seconds(i), cum)
            })
            .collect();
        assert_eq!(view.buckets, expected, "{label}");
        assert_eq!(view.count, snap.count, "{label}");
        assert!(
            (view.sum_seconds - snap.sum_seconds()).abs() < 1e-9,
            "{label}"
        );
    }
    assert_eq!(views[0].count, 5);
    assert!((views[0].sum_seconds - 2.500_983).abs() < 1e-9);
}
