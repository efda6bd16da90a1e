//! Golden interpreter statistics: for every suite program, on both the
//! front end's IR and the optimized IR, the reference interpreter's
//! operation counts and digests of its block counts and final globals,
//! pinned byte for byte.
//!
//! The block counts are the profile behind the `Pr` and `SelDup` edge
//! weights, and the final globals are what every strategy is verified
//! against, so this file holds the interpreter's observable behaviour
//! still when its inner loop changes. The failure message prints the
//! complete new fixture.

use dsp_ir::{BlockId, FuncId, Interpreter, Program};
use dsp_trace::{fnv1a, fnv1a_extend};
use dsp_workloads::all;

const FIXTURE: &str = include_str!("golden/interp_stats.txt");

/// One fixture line: the run's counters, then an FNV-1a digest of the
/// non-zero block counts in (function, block) order and one of every
/// global's final words.
fn stats_line(bench: &str, side: &str, program: &Program) -> String {
    let mut interp = Interpreter::new(program);
    let (_, stats) = interp
        .run()
        .unwrap_or_else(|e| panic!("{bench} {side}: {e}"));
    let mut blocks = fnv1a(b"");
    for (fi, f) in program.funcs.iter().enumerate() {
        for bi in 0..f.blocks.len() {
            let n = stats.block_count(FuncId(fi as u32), BlockId(bi as u32));
            if n != 0 {
                blocks = fnv1a_extend(blocks, format!("{fi}.{bi}={n};").as_bytes());
            }
        }
    }
    let mut globals = fnv1a(b"");
    for gi in 0..program.globals.len() {
        for w in interp.global_mem(dsp_ir::GlobalId(gi as u32)) {
            globals = fnv1a_extend(globals, &w.0.to_le_bytes());
        }
    }
    format!(
        "{bench} {side} ops={} loads={} stores={} calls={} blocks={blocks:016x} globals={globals:016x}\n",
        stats.ops_executed, stats.loads, stats.stores, stats.calls,
    )
}

#[test]
fn interpreter_stats_match_the_golden_fixture() {
    let mut actual = String::new();
    for bench in all() {
        let ir = dsp_frontend::compile_str(&bench.source).expect("suite program parses");
        let mut opt_ir = ir.clone();
        dsp_backend::opt::optimize(&mut opt_ir);
        actual.push_str(&stats_line(&bench.name, "ir", &ir));
        actual.push_str(&stats_line(&bench.name, "opt_ir", &opt_ir));
    }
    assert_eq!(actual.lines().count(), 23 * 2, "every suite program, twice");
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
            "interpreter statistics drifted from tests/golden/interp_stats.txt\n{first}\n\
             --- complete actual fixture ---\n{actual}"
        );
    }
}
