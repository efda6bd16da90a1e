//! `dsp-perf` — run the repository benchmark, or compare two sets of
//! its results.
//!
//! ```text
//! dsp-perf run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//!              [--quick] [--json PATH] [--trace-out DIR]
//! dsp-perf compare --parent FILE... --change FILE... [--bench BENCHMARK.json]
//! ```
//!
//! With one `--workload` the run happens in this process and ends with
//! the workload's one-line JSON result. Otherwise every named workload
//! (all six by default) runs in its own child process — this binary
//! again — so each has its own peak memory.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use dsp_driver::json;
use dsp_perf::compare;
use dsp_perf::metrics::{self, RunResult};
use dsp_perf::{Options, Workload};

const USAGE: &str = "\
dsp-perf — the dualbank benchmark

USAGE:
  dsp-perf run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
               [--quick] [--json PATH] [--trace-out DIR]
      run the named workloads (default: all six), check every output,
      print every metric with its unit; exits nonzero on any failed
      operation. One --workload runs in this process and prints its
      result as one JSON line last; several run in child processes.
      --trace 1 reports per-layer instead of end-to-end metrics;
      --trace-out DIR adds a traced pass writing DIR/<workload>.trace.json
      (Perfetto) and DIR/layers.json. --quick: 1-second phases, one
      set-up.
  dsp-perf compare --parent FILE... --change FILE... [--bench B]
      apply BENCHMARK.json's bounds to run files written by --json:
      one row per workload x metric (improved, no worse, worse,
      unresolved); needs at least 10 alternating pairs.

WORKLOADS: suite-cold suite-warm suite-disk gen-cold serve-direct serve-routed";

/// Phase length when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Set-ups per untraced run; `setup_s` is their median. A set-up takes
/// 0.1–1 s, so one sample would carry the host's noise whole.
const SETUP_REPS: usize = 9;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `run` flags.
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads.push(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds expects a number, got `{v}`"))?;
                if !(0.1..=3600.0).contains(&s) {
                    return Err(format!("--seconds must be within 0.1..=3600, got {s}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                };
            }
            "--quick" => out.quick = true,
            "--json" => out.json = Some(PathBuf::from(value()?)),
            "--trace-out" => out.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<bool, String> {
    let a = parse_run(args)?;
    if let Some(dir) = &a.trace_out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    match a.workloads.as_slice() {
        [one] if a.json.is_none() => run_here(*one, &a),
        _ => run_children(&a, args),
    }
}

/// Run one workload in this process and print its result line last.
fn run_here(workload: Workload, a: &RunArgs) -> Result<bool, String> {
    let work_dir = PathBuf::from(".dsp-perf-work").join(std::process::id().to_string());
    let opts = Options {
        seed: a.seed,
        seconds: Duration::from_secs_f64(a.seconds.unwrap_or(if a.quick {
            1.0
        } else {
            DEFAULT_SECONDS
        })),
        traced: a.trace || a.trace_out.is_some(),
        trace_out: a.trace_out.clone(),
        work_dir: work_dir.clone(),
        setup_reps: if a.quick { 1 } else { SETUP_REPS },
    };
    let outcome = workload.run(&opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".dsp-perf-work");
    let result = outcome?;
    for (name, value) in &result.metrics {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        println!(
            "{:<14} {name:<30} {} {unit}",
            workload.name(),
            metrics::number(*value)
        );
    }
    println!("{}", result.to_json_line());
    Ok(result.correct)
}

/// Run each workload in a child process: first untraced; then traced
/// when `--trace-out` asks for per-layer numbers too.
fn run_children(a: &RunArgs, args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate dsp-perf: {e}"))?;
    let workloads = if a.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        a.workloads.clone()
    };
    // Everything but the flags this process handles is passed on.
    let mut shared = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" | "--json" | "--trace-out" | "--trace" => {
                it.next();
            }
            _ => shared.push(flag.clone()),
        }
    }
    let passes: &[bool] = if a.trace_out.is_some() {
        &[false, true]
    } else if a.trace {
        &[true]
    } else {
        &[false]
    };
    let mut all_ok = true;
    let mut sections: BTreeMap<&str, Vec<(Workload, RunResult)>> = BTreeMap::new();
    for &traced in passes {
        for &w in &workloads {
            let mut cmd = Command::new(&exe);
            cmd.arg("run")
                .args([
                    "--workload",
                    w.name(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .args(&shared);
            if let (true, Some(dir)) = (traced, &a.trace_out) {
                cmd.arg("--trace-out").arg(dir);
            }
            let out = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            match lines
                .split_last()
                .map(|(last, rest)| (RunResult::parse(last), rest))
            {
                Some((Ok(result), metric_lines)) => {
                    for line in metric_lines {
                        println!("{line}");
                    }
                    all_ok &= result.correct && out.status.success();
                    sections
                        .entry(if traced { "per_layer" } else { "end_to_end" })
                        .or_default()
                        .push((w, result));
                }
                _ => {
                    eprintln!("{}: no result ({})", w.name(), out.status);
                    all_ok = false;
                }
            }
        }
    }
    let render = |results: &[(Workload, RunResult)]| {
        let body = results
            .iter()
            .map(|(w, r)| format!("{}: {}", json::escape(w.name()), r.to_json_line()))
            .collect::<Vec<_>>()
            .join(",\n    ");
        format!("{{\n    {body}\n  }}")
    };
    if let (Some(dir), Some(layers)) = (&a.trace_out, sections.get("per_layer")) {
        let path = dir.join("layers.json");
        std::fs::write(&path, format!("{{\"per_layer\": {}}}\n", render(layers)))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    if let Some(path) = &a.json {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let mut doc = format!(
            "{{\n  \"schema\": \"dsp-perf-run/v1\",\n  \"seed\": {},\n  \"host\": {{\"nproc\": {nproc}, \"profile\": \"{profile}\"}}",
            a.seed
        );
        for (section, results) in &sections {
            doc.push_str(&format!(",\n  \"{section}\": {}", render(results)));
        }
        doc.push_str("\n}\n");
        std::fs::write(path, doc).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    println!(
        "dsp-perf: {} workload run(s), {}",
        sections.values().map(Vec::len).sum::<usize>(),
        if all_ok { "all correct" } else { "FAILED" }
    );
    Ok(all_ok)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let mut parents = Vec::new();
    let mut changes = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut side: Option<&mut Vec<PathBuf>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--parent" => side = Some(&mut parents),
            "--change" => side = Some(&mut changes),
            "--bench" => {
                bench = PathBuf::from(it.next().ok_or("--bench expects a path")?);
                side = None;
            }
            path => match side.as_deref_mut() {
                Some(files) => files.push(PathBuf::from(path)),
                None => return Err(format!("`{path}` follows neither --parent nor --change")),
            },
        }
    }
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read `{}`: {e}", p.display()))
    };
    let rules = compare::rules(&read(&bench)?)?;
    let load = |files: &[PathBuf]| -> Result<Vec<_>, String> {
        files
            .iter()
            .map(|f| compare::load_run(&read(f)?).map_err(|e| format!("{}: {e}", f.display())))
            .collect()
    };
    let (p, c) = (load(&parents)?, load(&changes)?);
    let pairs = p.len().min(c.len());
    if pairs < compare::MIN_PAIRS {
        eprintln!(
            "warning: {pairs} pair(s); a verdict needs {} — every row is unresolved",
            compare::MIN_PAIRS
        );
    }
    println!(
        "{:<14} {:<30} {:>14} {:>14}  verdict",
        "workload", "metric", "parent p50", "change p50"
    );
    for row in compare::compare(&rules, &p, &c) {
        println!(
            "{:<14} {:<30} {:>14.4} {:>14.4}  {}",
            row.workload,
            row.metric,
            row.parent,
            row.change,
            row.verdict.label()
        );
    }
    Ok(true)
}
