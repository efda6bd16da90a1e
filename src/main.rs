//! `dualbank` — command-line driver for the dual-bank DSP toolchain.
//!
//! ```text
//! dualbank run <file.c> [--strategy S] [--globals]
//! dualbank compile <file.c> [--strategy S] [--emit asm|ir|bin]
//! dualbank sweep <file.c> [--jobs N] [--json <path>]
//! dualbank bench <name|all> [--jobs N] [--json <path>] [--stages]
//! dualbank serve [--addr A] [--workers N] [--jobs N] [--queue N] [--deadline-ms N]
//! dualbank list
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dsp_serve::{Server, ServerConfig};
use dsp_trace::log as tracelog;
use dualbank::driver::json::Value;
use dualbank::driver::{
    check_flags, parse_byte_budget, parse_cache_dir, parse_entry_budget, parse_queue_capacity,
    parse_worker_count, Engine, EngineOptions, Tracer,
};
use dualbank::{backend, workloads, SimOptions, Strategy};

fn usage() -> &'static str {
    "dualbank — compiler & simulator for the dual-bank VLIW DSP\n\
     \n\
     USAGE:\n\
     \x20 dualbank run <file.c> [--strategy S] [--globals] [--fuel N]\n\
     \x20     compile and simulate; print cycles and memory cost\n\
     \x20 dualbank compile <file.c> [--strategy S] [--emit asm|ir|bin]\n\
     \x20     print the compiled program (default: asm disassembly)\n\
     \x20 dualbank sweep <file.c> [--jobs N] [--json <path>] [--cache-dir D] [--trace-out P]\n\
     \x20               [--partitioner P]\n\
     \x20     compare all compilation strategies\n\
     \x20 dualbank bench <name|all> [--jobs N] [--json <path>] [--stages] [--cache-dir D]\n\
     \x20               [--trace-out P] [--partitioner P]\n\
     \x20     run paper benchmark(s) across all strategies\n\
     \x20 dualbank fuzz [--seed N] [--count N] [--jobs N] [--corpus-dir D] [--json P]\n\
     \x20               [--mutate] [--mutants N] [--shrink-calls N] [--max-stmts N]\n\
     \x20               [--max-loop-depth N] [--max-arrays N] [--max-array-len N]\n\
     \x20               [--max-scalars N] [--max-funcs N] [--float-pct N] [--bias B]\n\
     \x20     differentially fuzz all strategies with generated DSP-C\n\
     \x20     programs (see docs/fuzzing.md); failures are shrunk to\n\
     \x20     minimal repros and archived in --corpus-dir; --mutate\n\
     \x20     byte-mutates sources through the front-end instead\n\
     \x20 dualbank serve [--addr A] [--workers N] [--jobs N] [--queue N]\n\
     \x20               [--deadline-ms N] [--read-deadline-ms N]\n\
     \x20               [--max-body-kb N] [--cache-capacity N]\n\
     \x20               [--cache-max-kb N] [--cache-dir D] [--cache-disk-max-kb N]\n\
     \x20               [--fuel N] [--no-trace]\n\
     \x20     serve compile/sweep over HTTP (`dualbank serve --help`\n\
     \x20     for flags; docs/serving.md);\n\
     \x20     --workers sizes the connection pool, --jobs the shared\n\
     \x20     compile/simulate executor (default: all cores);\n\
     \x20     --replica-id NAME tags responses/metrics, --drain-ms N\n\
     \x20     keeps serving in-flight work that long after a drain\n\
     \x20 dualbank router --replica HOST:PORT [...] [--addr A]\n\
     \x20     front a fleet of dsp-serve replicas with cache-affinity\n\
     \x20     routing and failover (`dualbank router --help` for flags)\n\
     \x20 dualbank chaos --upstream HOST:PORT [--scenario S] [--seed N]\n\
     \x20     deterministic fault-injection TCP proxy for the serving\n\
     \x20     tier (`dualbank chaos --help` for flags; docs/chaos.md)\n\
     \x20 dualbank obs <snapshot|export|watch> --target NAME=HOST:PORT [...]\n\
     \x20     fleet observability plane: aggregate /metrics, check SLO\n\
     \x20     burn rates, and stitch cross-process traces into one\n\
     \x20     Perfetto file (`dualbank obs --help`; docs/observability.md)\n\
     \x20 dualbank report-project [file.json]\n\
     \x20     reduce a run report (file or stdin) to its deterministic\n\
     \x20     projection — byte-comparable across nodes and runs\n\
     \x20 dualbank trace-validate <file.json>\n\
     \x20     sanity-check a --trace-out document (Perfetto-loadable,\n\
     \x20     complete events, nested spans)\n\
     \x20 dualbank list\n\
     \x20     list the paper's 23 benchmarks\n\
     \n\
     OPTIONS:\n\
     \x20 --jobs N    worker threads (default: all cores); results are\n\
     \x20             bit-identical for every N\n\
     \x20 --partitioner P  bank-partitioning algorithm: greedy (paper\n\
     \x20             \u{a7}3.1, default) or fm (incremental Fiduccia\u{2013}\n\
     \x20             Mattheyses; see docs/partitioning.md)\n\
     \x20 --bias B    (fuzz) generator bias: none (default) or\n\
     \x20             partition-stress (many arrays, dense same-\n\
     \x20             statement access pairs; stresses the partitioner)\n\
     \x20 --json P    also write the full run report (cycles, stage\n\
     \x20             times, cache stats) as JSON to P (`-` = stdout)\n\
     \x20 --deterministic  with --json, emit only the reproducible core\n\
     \x20             (no wall times or cache flags) — byte-identical\n\
     \x20             across runs, worker counts, and cache states\n\
     \x20 --stages    print the per-stage time and cache summary\n\
     \x20 --cache-dir D         persistent artifact store: warm-start\n\
     \x20             compiles from D, publish fresh ones back (crash-\n\
     \x20             safe; corrupt entries are quarantined, IO errors\n\
     \x20             degrade to in-memory operation)\n\
     \x20 --cache-disk-max-kb N bound the on-disk store (LRU by mtime;\n\
     \x20             0 = unbounded, like --cache-max-kb)\n\
     \x20 --trace-out P  record per-stage spans and write them as a\n\
     \x20             Chrome trace-event file (open in Perfetto); off\n\
     \x20             when the flag is absent, with zero overhead\n\
     \x20 --no-trace  (serve) disable request spans, X-Request-Id\n\
     \x20             minting, /debug/trace, and latency histograms\n\
     \n\
     ENVIRONMENT:\n\
     \x20 DSP_LOG=error|warn|info|debug   stderr log level (default warn;\n\
     \x20             info shows cache warm-start and boot banners)\n\
     \n\
     STRATEGIES: base cb pr dup seldup fulldup ideal (default: cb)"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        println!("{}", usage());
        return Ok(());
    };
    match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "compile" => cmd_compile(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "fuzz" => cmd_fuzz(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "router" => dsp_router::run_router(&args[1..]),
        "chaos" => dsp_chaos::run_chaos(&args[1..]),
        "obs" => dsp_obs::run_obs(&args[1..]),
        "report-project" => cmd_report_project(&args[1..]),
        "trace-validate" => cmd_trace_validate(&args[1..]),
        "list" => {
            for b in workloads::all() {
                println!(
                    "{:<14} {:>12}  {}",
                    b.name,
                    b.kind.to_string(),
                    b.description
                );
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

fn read_source(args: &[String]) -> Result<String, String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && flag_is_not_value(args, a))
        .ok_or("missing input file")?;
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// True if `candidate` is not the value of a `--flag value` pair.
fn flag_is_not_value(args: &[String], candidate: &String) -> bool {
    match args.iter().position(|a| a == candidate) {
        Some(i) if i > 0 => !args[i - 1].starts_with("--"),
        _ => true,
    }
}

fn strategy_of(args: &[String]) -> Result<Strategy, String> {
    match flag_value(args, "--strategy") {
        Some(s) => Strategy::parse(&s),
        None => Ok(Strategy::CbPartition),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let src = read_source(args)?;
    let strategy = strategy_of(args)?;
    let fuel: u64 = match flag_value(args, "--fuel") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--fuel expects a cycle count, got `{v}`"))?,
        None => 10_000_000,
    };
    let out = backend::compile_source(&src, strategy).map_err(|e| e.to_string())?;
    let options = SimOptions {
        dual_ported: strategy.dual_ported(),
        fuel,
    };
    let outcome = dsp_sim::simulate(&out.program, options)
        .outcome
        .map_err(|e| e.to_string())?;
    let result = dualbank::RunResult {
        cycles: outcome.stats.cycles,
        stats: outcome.stats,
        program: out.program,
        globals: outcome
            .symbols
            .into_iter()
            .map(|s| (s.name, s.words))
            .collect(),
    };
    println!("strategy:        {strategy}");
    println!("cycles:          {}", result.cycles);
    println!("instructions:    {}", result.program.inst_count());
    println!("dual-mem cycles: {}", result.stats.dual_mem_cycles);
    println!("ops/cycle:       {:.2}", result.stats.ops_per_cycle());
    println!("memory cost:     {} words (X+Y+2S+I)", result.memory_cost());
    if args.iter().any(|a| a == "--globals") {
        println!("\nglobals:");
        for (name, words) in &result.globals {
            let rendered: Vec<String> = words
                .iter()
                .take(16)
                .map(|w| format!("{:#x}", w.0))
                .collect();
            let ellipsis = if words.len() > 16 { " …" } else { "" };
            println!("  {name:<16} [{}{ellipsis}]", rendered.join(", "));
        }
    }
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let src = read_source(args)?;
    let strategy = strategy_of(args)?;
    let emit = flag_value(args, "--emit").unwrap_or_else(|| "asm".into());
    let out = backend::compile_source(&src, strategy).map_err(|e| e.to_string())?;
    match emit.as_str() {
        "asm" => print!("{}", out.program.disassemble()),
        "ir" => print!("{}", out.ir.dump()),
        "bin" => {
            let words = dualbank::machine::encode_stream(&out.program.insts);
            println!(
                "; {} instructions, {} encoded words",
                out.program.inst_count(),
                words.len()
            );
            for chunk in words.chunks(8) {
                let hex: Vec<String> = chunk.iter().map(|w| format!("{w:08x}")).collect();
                println!("{}", hex.join(" "));
            }
        }
        other => return Err(format!("unknown --emit `{other}` (asm|ir|bin)")),
    }
    Ok(())
}

/// The tracer for a batch command: enabled (and destined for `path`)
/// only when `--trace-out <path>` was given, else the no-op recorder.
fn tracer_of(args: &[String]) -> (Arc<Tracer>, Option<String>) {
    match flag_value(args, "--trace-out") {
        Some(path) => (Tracer::new(65536), Some(path)),
        None => (Tracer::disabled(), None),
    }
}

/// Honor `--trace-out <path>`: write the run's spans as a Chrome
/// trace-event document (load it in Perfetto or `chrome://tracing`).
fn write_trace(tracer: &Tracer, path: Option<&str>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, tracer.export_chrome()).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// Build an engine from the shared `--jobs` / `--partitioner` /
/// `--cache-dir` / `--cache-disk-max-kb` flags.
fn engine_of(args: &[String], tracer: Arc<Tracer>) -> Result<Engine, String> {
    let jobs = match flag_value(args, "--jobs") {
        Some(v) => parse_worker_count("--jobs", &v)?,
        None => 0,
    };
    let partitioner = match flag_value(args, "--partitioner") {
        Some(v) => backend::PartitionerKind::parse(&v)?,
        None => backend::PartitionerKind::default(),
    };
    let cache_dir = match flag_value(args, "--cache-dir") {
        Some(v) => Some(parse_cache_dir("--cache-dir", &v)?),
        None => None,
    };
    let cache_disk_max_bytes = match flag_value(args, "--cache-disk-max-kb") {
        Some(v) => parse_byte_budget("--cache-disk-max-kb", &v)?,
        None => None,
    };
    tracelog::route_events_to(&tracer);
    let engine = Engine::new(EngineOptions {
        jobs,
        config: backend::CompileConfig {
            partitioner,
            ..backend::CompileConfig::default()
        },
        cache_dir,
        cache_disk_max_bytes,
        tracer,
        ..EngineOptions::default()
    });
    if let Some(store) = engine.cache().store() {
        let sweep = store.sweep();
        if let Some(err) = &sweep.error {
            tracelog::warn(
                "dualbank",
                &format!("cache dir unusable, running in-memory only: {err}"),
            );
        } else {
            tracelog::info(
                "dualbank",
                &format!(
                    "cache: {} — {} artifact(s) recovered ({} KiB), {} quarantined, {} tmp cleaned",
                    store.dir().display(),
                    sweep.recovered,
                    sweep.bytes / 1024,
                    sweep.quarantined,
                    sweep.tmp_cleaned,
                ),
            );
        }
    }
    Ok(engine)
}

/// Honor `--json <path>` (`-` writes to stdout). With `--deterministic`
/// the report is projected down to its machine-reproducible core —
/// byte-identical across runs, worker counts, and cache temperature —
/// so crash-recovery checks can compare documents with a plain `diff`.
fn emit_json(args: &[String], report: &dualbank::driver::RunReport) -> Result<(), String> {
    let Some(path) = flag_value(args, "--json") else {
        return Ok(());
    };
    let json = if args.iter().any(|a| a == "--deterministic") {
        report.deterministic_json()
    } else {
        report.to_json()
    };
    if path == "-" {
        print!("{json}");
        Ok(())
    } else {
        std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let src = read_source(args)?;
    let name = args
        .iter()
        .find(|a| !a.starts_with("--") && flag_is_not_value(args, a))
        .map_or_else(|| "sweep".to_string(), |p| p.clone());
    // Wrap the input file as an ad-hoc benchmark. No checked globals:
    // there is no ground truth for arbitrary user code, so the engine
    // skips the reference-interpreter verification.
    let bench = workloads::Benchmark {
        name,
        kind: workloads::Kind::Application,
        description: String::new(),
        source: src,
        check_globals: Vec::new(),
    };
    let (tracer, trace_out) = tracer_of(args);
    let engine = engine_of(args, Arc::clone(&tracer))?;
    let report = engine
        .run_matrix(std::slice::from_ref(&bench), &Strategy::ALL)
        .map_err(|e| e.to_string())?;
    write_trace(&tracer, trace_out.as_deref())?;
    println!(
        "{:<8} {:>10} {:>8} {:>10} {:>10}",
        "strategy", "cycles", "gain %", "insts", "mem words"
    );
    let base = report
        .job(&bench.name, Strategy::Baseline)
        .map_or(0, |j| j.measurement.cycles);
    for &strategy in &report.strategies {
        let Some(job) = report.job(&bench.name, strategy) else {
            continue;
        };
        let m = &job.measurement;
        let gain = (base as f64 / m.cycles as f64 - 1.0) * 100.0;
        println!(
            "{:<8} {:>10} {:>8.1} {:>10} {:>10}",
            strategy.label(),
            m.cycles,
            gain,
            m.inst_words,
            m.memory_cost
        );
    }
    emit_json(args, &report)
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing benchmark name (or `all`)")?;
    let benches = if name == "all" {
        workloads::all()
    } else {
        vec![workloads::by_name(name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `dualbank list`)"))?]
    };
    let (tracer, trace_out) = tracer_of(args);
    let engine = engine_of(args, Arc::clone(&tracer))?;
    let report = engine
        .run_matrix(&benches, &Strategy::ALL)
        .map_err(|e| e.to_string())?;
    write_trace(&tracer, trace_out.as_deref())?;
    print!("{:<14}", "benchmark");
    for s in &report.strategies {
        print!(" {:>9}", s.label());
    }
    println!();
    for bench in &benches {
        print!("{:<14}", bench.name);
        for &s in &report.strategies {
            match report.job(&bench.name, s) {
                Some(j) => print!(" {:>9}", j.measurement.cycles),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    if args.iter().any(|a| a == "--stages") {
        println!();
        print!("{}", report.stage_table());
    }
    emit_json(args, &report)
}

/// Parse an optional numeric flag with a default.
fn num_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a number, got `{v}`")),
        None => Ok(default),
    }
}

/// `dualbank fuzz` — differential fuzzing of all strategies against the
/// reference interpreter (or, with `--mutate`, byte-level mutation of
/// generated sources through the front-end). See docs/fuzzing.md.
fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    use dualbank::gen::{fuzz, GenConfig};

    let seed = num_flag(args, "--seed", 1u64)?;
    let count = num_flag(args, "--count", 100usize)?;
    let config = GenConfig {
        max_stmts: num_flag(args, "--max-stmts", GenConfig::default().max_stmts)?,
        max_loop_depth: num_flag(
            args,
            "--max-loop-depth",
            GenConfig::default().max_loop_depth,
        )?,
        max_arrays: num_flag(args, "--max-arrays", GenConfig::default().max_arrays)?,
        max_array_len: num_flag(args, "--max-array-len", GenConfig::default().max_array_len)?,
        max_scalars: num_flag(args, "--max-scalars", GenConfig::default().max_scalars)?,
        max_funcs: num_flag(args, "--max-funcs", GenConfig::default().max_funcs)?,
        float_pct: num_flag(args, "--float-pct", GenConfig::default().float_pct)?,
        bias: match flag_value(args, "--bias") {
            Some(v) => dualbank::gen::Bias::parse(&v)?,
            None => dualbank::gen::Bias::default(),
        },
    };

    let json_out = flag_value(args, "--json");
    let emit = |json: String| -> Result<(), String> {
        match json_out.as_deref() {
            None => Ok(()),
            Some("-") => {
                print!("{json}");
                Ok(())
            }
            Some(path) => {
                std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))
            }
        }
    };

    if args.iter().any(|a| a == "--mutate") {
        let opts = fuzz::MutateOptions {
            seed,
            count,
            mutants_per_program: num_flag(args, "--mutants", 40usize)?,
            config,
        };
        let report = dualbank::gen::run_mutation_campaign(&opts);
        println!(
            "mutation campaign: seed {seed}, {} mutants — {} accepted, {} rejected, {} panic(s)",
            report.mutants,
            report.accepted,
            report.rejected,
            report.panics.len()
        );
        for p in &report.panics {
            println!("  PANIC (base program {}): {}", p.index, p.message);
        }
        emit(report.to_json())?;
        if report.panics.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "front-end panicked on {} mutated input(s)",
                report.panics.len()
            ))
        }
    } else {
        let opts = fuzz::FuzzOptions {
            seed,
            count,
            config,
            corpus_dir: flag_value(args, "--corpus-dir").map(std::path::PathBuf::from),
            diff: dualbank::gen::DiffOptions {
                // Undocumented test hook: force a synthetic mismatch on
                // programs containing the given substring, to exercise
                // the shrink + corpus pipeline end to end.
                inject_when_contains: flag_value(args, "--inject-mismatch"),
                ..dualbank::gen::DiffOptions::default()
            },
            max_shrink_calls: num_flag(args, "--shrink-calls", 1500usize)?,
            jobs: num_flag(args, "--jobs", 0usize)?,
        };
        let report = dualbank::gen::run_campaign(&opts).map_err(|e| e.to_string())?;
        println!(
            "fuzz campaign: seed {seed}, {} programs × {} strategies — {} passed, {} failed",
            report.count,
            Strategy::ALL.len(),
            report.passed,
            report.failed
        );
        println!(
            "  {} source bytes generated, cycle digest {:#018x}",
            report.total_source_bytes, report.cycles_digest
        );
        for s in &report.strategies {
            println!(
                "  {:<8} total {:>12} cycles  (min {:>6}, max {:>8})",
                s.strategy.label(),
                s.total_cycles,
                s.min_cycles,
                s.max_cycles
            );
        }
        for f in &report.failures {
            println!(
                "  FAIL program {} (seed {:#018x}): {} — {} -> {} bytes{}",
                f.index,
                f.program_seed,
                f.kind.label(),
                f.original_bytes,
                f.shrunk_bytes,
                f.corpus_file
                    .as_ref()
                    .map_or(String::new(), |n| format!(" [corpus: {n}]"))
            );
        }
        if !report.aggregate_ideal_ok {
            println!("  AGGREGATE FAIL: a strategy's summed cycles beat Ideal's");
        }
        emit(report.to_json())?;
        if report.failed > 0 {
            Err(format!("{} program(s) diverged", report.failed))
        } else if !report.aggregate_ideal_ok {
            Err("aggregate cycle invariant violated: a strategy's total beats Ideal's".to_string())
        } else {
            Ok(())
        }
    }
}

/// The flag reference `dualbank serve --help` prints: every flag
/// `cmd_serve` accepts, with its default.
fn serve_usage() -> &'static str {
    "dualbank serve — compile/sweep over HTTP (docs/serving.md)

USAGE:
    dualbank serve [flags]

FLAGS:
    --addr HOST:PORT          bind address (default 127.0.0.1:0)
    --workers N               connection workers (default: CPU count)
    --jobs N                  compile/simulate executor workers
                              (default: CPU count)
    --queue N                 accept-queue capacity (default 64)
    --deadline-ms MS          per-request wall-clock budget (default 10000)
    --read-deadline-ms MS     whole-request read budget (default 15000;
                              0 disables)
    --max-body-kb N           request-body cap in KiB (default 1024)
    --cache-capacity N        entries per cache layer (default 256;
                              0 = unbounded)
    --cache-max-kb N          bytes per cache layer in KiB (default
                              unbounded; 0 = unbounded)
    --cache-dir DIR           persistent on-disk artifact store
    --cache-disk-max-kb N     on-disk store budget in KiB (default
                              unbounded; 0 = unbounded)
    --fuel N                  simulator cycle budget per job
                              (default 200000000)
    --replica-id NAME         tag responses and /metrics with NAME
    --drain-ms MS             keep serving this long after
                              /admin/shutdown withdraws readiness
                              (default 0)
    --no-trace                disable spans and latency histograms

ENDPOINTS:
    POST /compile        compile and simulate one strategy
    POST /sweep          stream a benchmark x strategy matrix
    GET  /healthz        liveness
    GET  /readyz         200 until a drain begins
    GET  /metrics        dsp_serve_* Prometheus families
    GET  /debug/trace    recent spans
    POST /admin/shutdown graceful drain"
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", serve_usage());
        return Ok(());
    }
    check_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--jobs",
            "--queue",
            "--deadline-ms",
            "--read-deadline-ms",
            "--max-body-kb",
            "--cache-capacity",
            "--cache-max-kb",
            "--cache-dir",
            "--cache-disk-max-kb",
            "--fuel",
            "--replica-id",
            "--drain-ms",
        ],
        &["--no-trace"],
    )?;
    let mut config = ServerConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr;
    }
    if let Some(v) = flag_value(args, "--workers") {
        config.workers = parse_worker_count("--workers", &v)?;
    }
    if let Some(v) = flag_value(args, "--jobs") {
        config.jobs = parse_worker_count("--jobs", &v)?;
    }
    if let Some(v) = flag_value(args, "--queue") {
        let default = ServerConfig::default().queue_capacity;
        config.queue_capacity = parse_queue_capacity("--queue", &v, default)?;
    }
    if let Some(v) = flag_value(args, "--deadline-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--deadline-ms expects milliseconds, got `{v}`"))?;
        config.deadline = Duration::from_millis(ms);
    }
    if let Some(v) = flag_value(args, "--read-deadline-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--read-deadline-ms expects milliseconds, got `{v}`"))?;
        config.read_deadline = Duration::from_millis(ms); // 0 disables
    }
    if let Some(v) = flag_value(args, "--max-body-kb") {
        let kb: usize = v
            .parse()
            .map_err(|_| format!("--max-body-kb expects a size, got `{v}`"))?;
        config.max_body = kb * 1024;
    }
    if let Some(v) = flag_value(args, "--cache-capacity") {
        config.cache_capacity = parse_entry_budget("--cache-capacity", &v)?; // 0 = unbounded
    }
    if let Some(v) = flag_value(args, "--cache-max-kb") {
        config.cache_max_bytes = parse_byte_budget("--cache-max-kb", &v)?; // 0 = unbounded
    }
    if let Some(v) = flag_value(args, "--cache-dir") {
        config.cache_dir = Some(parse_cache_dir("--cache-dir", &v)?);
    }
    if let Some(v) = flag_value(args, "--cache-disk-max-kb") {
        config.cache_disk_max_bytes = parse_byte_budget("--cache-disk-max-kb", &v)?;
        // 0 = unbounded
    }
    if let Some(v) = flag_value(args, "--fuel") {
        config.fuel = v
            .parse()
            .map_err(|_| format!("--fuel expects a cycle count, got `{v}`"))?;
    }
    if let Some(id) = flag_value(args, "--replica-id") {
        config.replica_id = Some(id);
    }
    if let Some(v) = flag_value(args, "--drain-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--drain-ms expects milliseconds, got `{v}`"))?;
        config.drain_grace = Duration::from_millis(ms);
    }
    config.trace = !args.iter().any(|a| a == "--no-trace");
    let server = Server::bind(config.clone()).map_err(|e| format!("cannot bind: {e}"))?;
    println!("dsp-serve listening on http://{}", server.local_addr());
    println!(
        "  queue {} · deadline {}ms · max body {} KiB · cache capacity {} · cache bytes {}",
        config.queue_capacity,
        config.deadline.as_millis(),
        config.max_body / 1024,
        config
            .cache_capacity
            .map_or("unbounded".to_string(), |c| c.to_string()),
        config
            .cache_max_bytes
            .map_or("unbounded".to_string(), |b| format!("{} KiB", b / 1024)),
    );
    println!(
        "  executor: {} job worker(s) shared by /compile (interactive) and /sweep (batch)",
        server.executor_workers()
    );
    if let Some(sweep) = server.disk_sweep() {
        match &sweep.error {
            Some(err) => println!("  cache dir unusable, in-memory only: {err}"),
            None => println!(
                "  warm start: {} artifact(s) recovered ({} KiB), {} quarantined, {} tmp cleaned",
                sweep.recovered,
                sweep.bytes / 1024,
                sweep.quarantined,
                sweep.tmp_cleaned,
            ),
        }
    }
    println!("  endpoints: POST /compile · POST /sweep · GET /healthz · GET /metrics");
    println!("  graceful shutdown: POST /admin/shutdown (drains in-flight requests)");
    if config.trace {
        println!("  tracing: on — X-Request-Id echo, GET /debug/trace, latency histograms");
    } else {
        println!("  tracing: off (--no-trace)");
    }
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// `dualbank report-project [file.json]` — reduce a full
/// `dualbank-run-report/v1` document (from a file, or stdin when the
/// path is absent or `-`) to its deterministic projection: the exact
/// bytes `--json --deterministic` emits. This is how multi-node sweep
/// output is compared against a single node's — wall times and cache
/// telemetry differ, the projection must not.
fn cmd_report_project(args: &[String]) -> Result<(), String> {
    let doc = match args.first().map(String::as_str) {
        None | Some("-") => {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
        }
    };
    let projected = dualbank::driver::project_deterministic_json(&doc)?;
    print!("{projected}");
    Ok(())
}

/// A complete (`"ph": "X"`) trace event's time lane: thread, start,
/// duration, all in microseconds as Chrome's trace format specifies.
struct CompleteEvent {
    tid: u64,
    ts: f64,
    dur: f64,
}

/// `dualbank trace-validate <file.json>` — assert a `--trace-out`
/// document is what Perfetto expects: valid JSON with a `traceEvents`
/// array of complete events, at least one of which nests inside
/// another on the same thread lane (proof the parent/child structure
/// survived export).
fn cmd_trace_validate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing trace file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = dualbank::driver::json::parse(&text)
        .map_err(|e| format!("`{path}` is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{path}` has no traceEvents array"))?;
    let complete: Vec<CompleteEvent> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(Value::as_f64);
            Ok(CompleteEvent {
                tid: e.get("tid").and_then(Value::as_u64).unwrap_or(0),
                ts: num("ts").ok_or_else(|| format!("a complete event in `{path}` has no ts"))?,
                dur: num("dur")
                    .ok_or_else(|| format!("a complete event in `{path}` has no dur"))?,
            })
        })
        .collect::<Result<_, String>>()?;
    if complete.is_empty() {
        return Err(format!("`{path}` contains no complete (ph=X) events"));
    }
    // A child nests when its [ts, ts+dur] interval sits inside a
    // longer event's interval on the same thread lane.
    let nested = complete
        .iter()
        .filter(|b| {
            complete.iter().any(|a| {
                a.tid == b.tid && b.dur < a.dur && b.ts >= a.ts && b.ts + b.dur <= a.ts + a.dur
            })
        })
        .count();
    if nested == 0 {
        return Err(format!(
            "`{path}` has {} complete events but none nest — span parenting is broken",
            complete.len()
        ));
    }
    println!(
        "{path}: ok — {} events, {} complete, {nested} nested",
        events.len(),
        complete.len()
    );
    Ok(())
}
