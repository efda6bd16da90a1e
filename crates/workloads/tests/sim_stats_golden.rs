//! Golden simulator statistics: every field of [`SimStats`] for every
//! cell of the 23-benchmark × 7-strategy matrix, pinned byte for byte.
//!
//! The cycle counts are pinned elsewhere too, but the per-unit operation
//! counts and the per-bank stack high-water marks appear in no other
//! fixture, so this file is what holds the simulator's bookkeeping
//! still when its inner loop changes. A deliberate change to a schedule
//! or to a benchmark changes these lines; the failure message prints
//! the complete new fixture.

use dsp_workloads::runner::measure_all;

const FIXTURE: &str = include_str!("golden/sim_stats.txt");

fn render() -> String {
    let mut out = String::new();
    for bench in dsp_workloads::all() {
        let ms = measure_all(&bench).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        for m in ms {
            let s = &m.stats;
            let units: Vec<String> = s.unit_ops.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{} {} cycles={} ops={} loads={} stores={} dual_mem={} bank_conflict={} \
                 stack_x={} stack_y={} unit_ops={}\n",
                bench.name,
                m.strategy,
                s.cycles,
                s.ops,
                s.loads,
                s.stores,
                s.dual_mem_cycles,
                s.bank_conflict_cycles,
                s.max_stack_x,
                s.max_stack_y,
                units.join(","),
            ));
        }
    }
    out
}

#[test]
fn sim_stats_match_the_golden_fixture() {
    let actual = render();
    assert_eq!(actual.lines().count(), 23 * 7, "the full matrix");
    if actual != FIXTURE {
        let first = actual
            .lines()
            .zip(FIXTURE.lines())
            .find(|(a, e)| a != e)
            .map_or_else(
                || "line counts differ".to_string(),
                |(a, e)| format!("expected `{e}`\n     got `{a}`"),
            );
        panic!(
            "simulator statistics drifted from tests/golden/sim_stats.txt\n{first}\n\
             --- complete actual fixture ---\n{actual}"
        );
    }
}
