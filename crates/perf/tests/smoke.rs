//! The quick smoke run: all six workloads, untraced and traced, every
//! output checked — and the metrics they emit in sync with
//! `BENCHMARK.json` in both directions.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use dsp_driver::json::{self, Value};
use dsp_perf::Workload;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric in one section.
fn declared(doc: &Value, section: &str) -> BTreeSet<(String, String, String)> {
    doc.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    for (section, catalogue) in [
        ("end_to_end", dsp_perf::metrics::END_TO_END),
        ("per_layer", dsp_perf::metrics::PER_LAYER),
    ] {
        let ours: BTreeSet<(String, String, String)> = catalogue
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.label().to_string(),
                )
            })
            .collect();
        assert_eq!(ours, declared(&doc, section), "{section} drifted");
    }
    let workloads: BTreeSet<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(ours, workloads);
}

#[test]
fn quick_run_emits_every_declared_metric_and_fails_nothing() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dsp-perf-smoke");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_dsp-perf"))
        .args(["run", "--quick", "--seconds", "0.5", "--seed", "2"])
        .args(["--json", "run.json", "--trace-out", "traces"])
        .current_dir(&tmp)
        .output()
        .expect("dsp-perf runs");
    assert!(
        out.status.success(),
        "dsp-perf failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let run = json::parse(&std::fs::read_to_string(tmp.join("run.json")).expect("run.json"))
        .expect("run.json parses");
    let doc = benchmark_json();
    for section in ["end_to_end", "per_layer"] {
        let want: BTreeSet<String> = declared(&doc, section).into_iter().map(|d| d.0).collect();
        for w in Workload::ALL {
            let result = run
                .get(section)
                .and_then(|s| s.get(w.name()))
                .unwrap_or_else(|| panic!("no {section} result for {}", w.name()));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{} has no metrics", w.name());
            };
            let got: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(got, want, "{section} metrics of {}", w.name());
            for (name, m) in metrics {
                let v = m.get("value").and_then(Value::as_f64);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{}: {name} = {v:?}",
                    w.name()
                );
            }
        }
    }
    for w in Workload::ALL {
        let trace =
            std::fs::read_to_string(tmp.join("traces").join(format!("{}.trace.json", w.name())))
                .expect("one Perfetto file per workload");
        dsp_perf::spans::check_nesting(&trace).expect("trace nests");
    }
    assert!(tmp.join("traces/layers.json").exists());
    assert!(
        !tmp.join(".dsp-perf-work").exists(),
        "scratch space is removed"
    );
}
