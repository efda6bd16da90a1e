//! The perf ledger's work counters. Each `BENCH_<n>.json` at the
//! repository root records a parent and a change run of the repository
//! benchmark; wall times may differ between them, the work done may
//! not. The newest entry must show the suite's pinned cycle total on
//! both sides, the same gen-cold cycle total on each (so a changed
//! schedule of unseen programs fails), and the same partition moves
//! and cache misses on each.

use std::path::{Path, PathBuf};

use dsp_driver::json::{self, Value};

const FIXTURE: &str = include_str!("golden/sim_stats.txt");

/// The workloads that sweep the paper's 23 × 7 suite once per sweep.
const SUITE_WORKLOADS: [&str; 3] = ["suite-cold", "suite-warm", "suite-disk"];

/// Counters that measure work, not time: equal on both sides.
const WORK_COUNTERS: [&str; 3] = [
    "bankalloc.partition_moves",
    "driver.artifact_misses",
    "driver.prepared_misses",
];

fn newest_entry() -> (PathBuf, Value) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (_, path) = std::fs::read_dir(&root)
        .expect("repository root")
        .filter_map(|e| {
            let path = e.ok()?.path();
            let n = path
                .file_name()?
                .to_str()?
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u32>()
                .ok()?;
            Some((n, path))
        })
        .max()
        .expect("at least one BENCH_<n>.json ledger entry");
    let text = std::fs::read_to_string(&path).expect("readable ledger entry");
    let value = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (path, value)
}

/// The suite's cycle total: the sum of every cell's `cycles=` in the
/// golden fixture.
fn fixture_cycles() -> f64 {
    FIXTURE
        .split_whitespace()
        .filter_map(|field| field.strip_prefix("cycles="))
        .map(|c| c.parse::<u64>().expect("numeric cycles") as f64)
        .sum()
}

/// `per_layer[workload].metrics[metric].value` of one side's run.
fn metric(side: &Value, workload: &str, metric: &str) -> Option<f64> {
    side.get("result")?
        .get("per_layer")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

#[test]
fn newest_ledger_entry_shows_equal_work_on_both_sides() {
    let (path, entry) = newest_entry();
    let path = path.display();
    let runs = entry.get("runs").expect("a runs object");
    let sides = ["parent", "change"].map(|s| {
        (
            s,
            runs.get(s).unwrap_or_else(|| panic!("{path}: no {s} run")),
        )
    });
    let cycles = fixture_cycles();
    assert_eq!(cycles, 4_105_010.0, "the fixture's suite total");
    for (name, side) in sides {
        for w in SUITE_WORKLOADS {
            assert_eq!(
                metric(side, w, "sim.cycles"),
                Some(cycles),
                "{path}: {name} {w} sim.cycles"
            );
        }
    }
    let [parent, change] = sides.map(|(_, side)| metric(side, "gen-cold", "sim.cycles"));
    assert!(parent.is_some(), "{path}: parent gen-cold lacks sim.cycles");
    assert_eq!(parent, change, "{path}: gen-cold sim.cycles");
    let Some(Value::Object(workloads)) = sides[0].1.get("result").and_then(|r| r.get("per_layer"))
    else {
        panic!("{path}: the parent run has no per-layer results");
    };
    assert!(workloads.len() >= SUITE_WORKLOADS.len());
    for w in workloads.keys() {
        for counter in WORK_COUNTERS {
            let [parent, change] = sides.map(|(_, side)| metric(side, w, counter));
            assert!(parent.is_some(), "{path}: parent {w} lacks {counter}");
            assert_eq!(parent, change, "{path}: {w} {counter}");
        }
    }
}
