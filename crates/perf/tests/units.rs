//! Unit tests of the benchmark's arithmetic: the percentile-support
//! rule, the seeded schedules, self time, the nesting check, and the
//! comparator's verdicts.

use std::time::Duration;

use dsp_perf::compare::{self, Rule, Verdict};
use dsp_perf::metrics::{Better, RunResult};
use dsp_perf::schedule::{self, Mix, Op, SWEEP_EVERY};
use dsp_perf::spans::{self, Interval};
use dsp_perf::stats;

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(stats::supported_tail(19), None);
    assert_eq!(stats::supported_tail(20), Some(50.0));
    assert_eq!(stats::supported_tail(99), Some(50.0));
    assert_eq!(stats::supported_tail(100), Some(90.0));
    assert_eq!(stats::supported_tail(999), Some(90.0));
    assert_eq!(stats::supported_tail(1000), Some(99.0));
    assert_eq!(stats::supported_tail(10_000), Some(99.9));
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::tail_value(&samples), 90.0);
    assert_eq!(stats::tail_value(&samples[..19]), 10.0);
    assert_eq!(stats::percentile(&samples, 50.0), 50.0);
    assert_eq!(stats::median(&samples), 50.5);
}

#[test]
fn quartiles_match_pythons_statistics_module() {
    // statistics.quantiles(data, n=4) for each input.
    let cases: [(&[f64], [f64; 3]); 3] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[5.0, 1.0, 3.0], [1.0, 3.0, 5.0]),
        (&[2.0, 4.0], [1.5, 3.0, 4.5]),
    ];
    for (data, want) in cases {
        let got = stats::quartiles(data).expect("two or more samples");
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{data:?}: {got:?} != {want:?}");
        }
    }
    assert_eq!(stats::quartiles(&[1.0]), None);
}

fn schedule(seed: u64) -> Vec<schedule::Arrival> {
    let mut mix = Mix::new(schedule::stream(seed, 1), 161, 23);
    schedule::poisson(
        &mut schedule::stream(seed, 2),
        100.0,
        Duration::from_secs(10),
        &mut mix,
    )
}

#[test]
fn poisson_schedules_are_byte_identical_for_one_seed() {
    let a = format!("{:?}", schedule(7));
    assert_eq!(a, format!("{:?}", schedule(7)));
    assert_ne!(a, format!("{:?}", schedule(8)));
    let arrivals = schedule(7);
    // About rate × duration arrivals, in due order, inside the phase.
    assert!((800..1200).contains(&arrivals.len()), "{}", arrivals.len());
    assert!(arrivals.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    assert!(arrivals.iter().all(|a| a.at_us < 10_000_000));
}

#[test]
fn the_mix_deals_every_cell_and_one_sweep_in_twenty() {
    let mut mix = Mix::new(schedule::stream(3, 0), 161, 23);
    let ops: Vec<Op> = (0..SWEEP_EVERY * 161).map(|_| mix.next_op()).collect();
    for block in ops.chunks(SWEEP_EVERY) {
        let sweeps = block.iter().filter(|o| matches!(o, Op::Sweep(_))).count();
        assert_eq!(sweeps, 1, "exactly one sweep per block of {SWEEP_EVERY}");
    }
    let mut compiles: Vec<usize> = ops
        .iter()
        .filter_map(|o| match o {
            Op::Compile(c) => Some(*c),
            Op::Sweep(_) => None,
        })
        .collect();
    compiles.sort_unstable();
    // 19 passes over the 161 cells: each cell exactly 19 times.
    let want: Vec<usize> = (0..161)
        .flat_map(|c| std::iter::repeat_n(c, SWEEP_EVERY - 1))
        .collect();
    assert_eq!(compiles, want);
}

fn iv(start_us: u64, dur_us: u64) -> Interval {
    Interval { start_us, dur_us }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let parent = iv(100, 100);
    assert_eq!(spans::self_time_us(parent, &[]), 100);
    // Two overlapping children cover 110..170: 60 µs, not 80.
    assert_eq!(spans::self_time_us(parent, &[iv(110, 40), iv(130, 40)]), 40);
    // A child nested in another adds nothing; one sticking out of the
    // parent counts only inside it.
    assert_eq!(
        spans::self_time_us(parent, &[iv(110, 50), iv(120, 10), iv(190, 50)]),
        40
    );
    // Children outside the parent entirely do not count.
    assert_eq!(spans::self_time_us(parent, &[iv(0, 50), iv(300, 5)]), 100);
}

#[test]
fn nesting_check_wants_one_event_inside_another_on_its_lane() {
    let event = |tid: u64, ts: u64, dur: u64| {
        format!("{{\"name\": \"s\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {ts}, \"dur\": {dur}}}")
    };
    let doc = |events: &[String]| format!("{{\"traceEvents\": [{}]}}", events.join(", "));
    assert_eq!(
        spans::check_nesting(&doc(&[event(1, 0, 100), event(1, 10, 20)])),
        Ok(2)
    );
    // Same interval on another thread lane is not nesting.
    assert!(spans::check_nesting(&doc(&[event(1, 0, 100), event(2, 10, 20)])).is_err());
    assert!(spans::check_nesting(&doc(&[])).is_err());
    assert!(spans::check_nesting("not json").is_err());
}

fn rule(better: Better, bound: Option<f64>) -> Rule {
    Rule {
        name: "m".to_string(),
        better,
        bound,
    }
}

#[test]
fn compare_applies_the_nine_tenths_rule_and_the_bound() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
    let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
    let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
    let same = parent.clone();
    let lower = rule(Better::Lower, Some(0.1));
    assert_eq!(
        compare::verdict(&lower, &parent, &faster),
        Verdict::Improved
    );
    assert_eq!(compare::verdict(&lower, &parent, &slower), Verdict::Worse);
    assert_eq!(compare::verdict(&lower, &parent, &same), Verdict::NoWorse);
    // Higher-is-better flips the sides.
    let higher = rule(Better::Higher, Some(0.1));
    assert_eq!(
        compare::verdict(&higher, &parent, &slower),
        Verdict::Improved
    );
    assert_eq!(compare::verdict(&higher, &parent, &faster), Verdict::Worse);
    // A win too small to clear the parent's IQR is no claim.
    let nudged: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
    assert_eq!(compare::verdict(&lower, &parent, &nudged), Verdict::NoWorse);
    // A parent spread wider than the bound leaves it unresolved.
    let wide: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * f64::from(i)).collect();
    assert_eq!(compare::verdict(&lower, &wide, &wide), Verdict::Unresolved);
    // Fewer than ten pairs never decide.
    assert_eq!(
        compare::verdict(&lower, &parent[..9], &faster[..9]),
        Verdict::Unresolved
    );
    // Per-layer metrics have no bound: only a clear move is reported.
    let layer = rule(Better::Lower, None);
    assert_eq!(compare::verdict(&layer, &parent, &slower), Verdict::Worse);
    assert_eq!(
        compare::verdict(&layer, &parent, &same),
        Verdict::Unresolved
    );
}

#[test]
fn result_lines_round_trip() {
    let line = RunResult {
        correct: true,
        attempted: 7,
        failed: 0,
        metrics: [("latency_p50_ms".to_string(), 1.234_567_89)].into(),
    }
    .to_json_line();
    assert!(!line.contains('\n'));
    assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.23456789, \"unit\": \"ms\"}"));
    let back = RunResult::parse(&line).expect("parses");
    assert_eq!(back.metrics["latency_p50_ms"], 1.234_567_89);
    assert_eq!(back.attempted, 7);
}
