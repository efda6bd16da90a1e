//! What `dsp_sim::simulate` adds to a bare simulation: the copy of
//! every data symbol's final words into the `Outcome`.
//!
//! Compiles the suite's 23 benchmarks under all 7 strategies (161
//! programs), then times, in alternating rounds over all 161, the
//! whole `simulate` against `Simulator::new` + `Simulator::run` alone.
//! The difference is the outcome's share of a simulation; the minimum
//! and the median over rounds are printed for both sides.
//!
//! Run: `cargo bench -p dsp-bench --bench sim_outcome_copy`

use std::hint::black_box;
use std::time::{Duration, Instant};

use dsp_backend::Strategy;
use dsp_sim::{simulate, SimOptions, Simulator};

const ROUNDS: usize = 41;

fn main() {
    let cells: Vec<_> = dsp_workloads::all()
        .iter()
        .flat_map(|bench| {
            let ir = dsp_workloads::runner::frontend(bench).expect("frontend");
            Strategy::ALL.map(|strategy| {
                let program = dsp_backend::compile_ir(&ir, strategy)
                    .expect("compiles")
                    .program;
                let options = SimOptions {
                    dual_ported: strategy.dual_ported(),
                    ..SimOptions::default()
                };
                (program, options)
            })
        })
        .collect();
    let whole = || {
        for (program, options) in &cells {
            black_box(simulate(program, *options).outcome.expect("halts"));
        }
    };
    let bare = || {
        for (program, options) in &cells {
            let mut sim = Simulator::new(program, *options);
            black_box(sim.run().expect("halts"));
        }
    };
    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    let (mut with_copy, mut without) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        // Alternate which side runs first, so neither always finds the
        // caches the other left.
        if round % 2 == 0 {
            with_copy.push(time(&whole));
            without.push(time(&bare));
        } else {
            without.push(time(&bare));
            with_copy.push(time(&whole));
        }
    }
    let stats = |runs: &mut Vec<Duration>| {
        runs.sort();
        (runs[0], runs[runs.len() / 2])
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (copy_min, copy_med) = stats(&mut with_copy);
    let (bare_min, bare_med) = stats(&mut without);
    println!(
        "== simulate vs Simulator::new + run, {} programs, {ROUNDS} rounds ==",
        cells.len()
    );
    println!(
        "simulate          min {:7.3} ms  median {:7.3} ms",
        ms(copy_min),
        ms(copy_med)
    );
    println!(
        "new + run         min {:7.3} ms  median {:7.3} ms",
        ms(bare_min),
        ms(bare_med)
    );
    println!(
        "outcome copy      {:+.1} % of min, {:+.1} % of median",
        100.0 * (ms(copy_min) / ms(bare_min) - 1.0),
        100.0 * (ms(copy_med) / ms(bare_med) - 1.0)
    );
}
