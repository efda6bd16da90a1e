//! Differential fuzzing campaigns over the batch engine.
//!
//! [`run_campaign`] generates `count` programs from a master seed,
//! submits the full programs × [`Strategy::ALL`] matrix to a
//! [`dsp_driver::Engine`] (so the campaign exercises the same cache,
//! executor, and verification path production sweeps use), judges each
//! row with [`differ::judge`] — the oracle [`differ::diff_source`] uses
//! too, so the shrinker sees exactly the failure the campaign found —
//! shrinks each failing program to a minimal reproducer, writes
//! reproducers to a persistent corpus directory, and returns a
//! [`FuzzReport`].
//!
//! Reports are **byte-deterministic per `(seed, options)`**: they carry
//! no wall times, no absolute paths, and iterate everything in
//! bench-major matrix order, so two identical invocations must produce
//! identical JSON — `scripts/check.sh` diffs them as a smoke test.
//!
//! [`run_mutation_campaign`] is the parser-hardening mode: it
//! byte-mutates pretty-printed programs and feeds the garbage to the
//! front-end inside `catch_unwind`, reporting any panic as a finding
//! (the front-end's contract is to *reject* hostile input, never to
//! abort the process that embeds it — `dsp-serve` parses request
//! bodies on its worker threads).

use std::path::{Path, PathBuf};

use dsp_backend::Strategy;
use dsp_driver::json::ObjectWriter;
use dsp_driver::{Engine, EngineOptions};
use dsp_exec::{CancelToken, Priority};
use dsp_trace::SpanCtx;
use dsp_workloads::{corpus, Benchmark};

use crate::differ::{self, DiffOptions, Failure, FailureKind, Verdict};
use crate::generate::{generate, GenConfig};
use crate::rng::Rng;
use crate::shrink::{shrink, ShrinkOptions};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; program `i` uses the `i`-th draw of this stream.
    pub seed: u64,
    /// Number of programs to generate and differentially test.
    pub count: usize,
    /// Generator size knobs.
    pub config: GenConfig,
    /// Where minimized reproducers are written; `None` disables corpus
    /// output.
    pub corpus_dir: Option<PathBuf>,
    /// Oracle fuel limits and the test-only miscompile injection hook.
    pub diff: DiffOptions,
    /// Oracle-call budget per shrink.
    pub max_shrink_calls: usize,
    /// Engine worker threads (`0` = all cores).
    pub jobs: usize,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 1,
            count: 100,
            config: GenConfig::default(),
            corpus_dir: None,
            diff: DiffOptions::default(),
            max_shrink_calls: 1500,
            jobs: 0,
        }
    }
}

/// Per-strategy cycle aggregates over the passing programs.
#[derive(Debug, Clone)]
pub struct StrategySummary {
    /// The strategy.
    pub strategy: Strategy,
    /// Sum of cycles over all passing programs.
    pub total_cycles: u64,
    /// Fastest single program.
    pub min_cycles: u64,
    /// Slowest single program.
    pub max_cycles: u64,
}

/// One failing program, minimized.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Campaign index of the program.
    pub index: usize,
    /// The program's own generator seed (regenerates it exactly).
    pub program_seed: u64,
    /// Classified failure.
    pub kind: FailureKind,
    /// First-divergence detail from the oracle.
    pub detail: String,
    /// Source bytes before shrinking.
    pub original_bytes: usize,
    /// Source bytes after shrinking.
    pub shrunk_bytes: usize,
    /// Oracle calls the shrink spent.
    pub shrink_oracle_calls: usize,
    /// Edits the shrink accepted.
    pub shrink_edits: usize,
    /// The minimized reproducer source.
    pub repro: String,
    /// Corpus file name (not path), when a corpus directory was given.
    pub corpus_file: Option<String>,
}

/// The campaign's deterministic result.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Master seed.
    pub seed: u64,
    /// Programs tested.
    pub count: usize,
    /// Programs where all strategies agreed with the reference.
    pub passed: usize,
    /// Programs with a divergence.
    pub failed: usize,
    /// Total generated source bytes.
    pub total_source_bytes: u64,
    /// FNV-1a digest over every (program, strategy) cycle count in
    /// matrix order — a compact fingerprint of the whole campaign that
    /// makes report comparisons sensitive to any behavioral change.
    pub cycles_digest: u64,
    /// Whether `Ideal`'s *summed* cycles over all passing programs are
    /// ≤ every other strategy's sum. Per-program the check forgives
    /// greedy-scheduler noise ([`differ::ideal_slack`]); in aggregate
    /// the noise washes out and dominance must hold outright.
    pub aggregate_ideal_ok: bool,
    /// Per-strategy aggregates (in [`Strategy::ALL`] order).
    pub strategies: Vec<StrategySummary>,
    /// Failures, in campaign order.
    pub failures: Vec<FailureRecord>,
}

impl FuzzReport {
    /// Serialize as deterministic JSON (no wall times, no paths, fixed
    /// key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("tool", "dsp-gen");
        w.num("seed", self.seed);
        w.num("count", self.count as u64);
        w.num("passed", self.passed as u64);
        w.num("failed", self.failed as u64);
        w.num("total_source_bytes", self.total_source_bytes);
        w.num("cycles_digest", self.cycles_digest);
        w.bool("aggregate_ideal_ok", self.aggregate_ideal_ok);

        let mut cols = String::from("[");
        for (i, s) in self.strategies.iter().enumerate() {
            if i > 0 {
                cols.push_str(", ");
            }
            let mut sw = ObjectWriter::new();
            sw.str("strategy", s.strategy.label());
            sw.num("total_cycles", s.total_cycles);
            sw.num("min_cycles", s.min_cycles);
            sw.num("max_cycles", s.max_cycles);
            cols.push_str(&sw.finish().replace('\n', " "));
        }
        cols.push(']');
        w.raw("strategies", &cols);

        let mut fails = String::from("[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                fails.push_str(", ");
            }
            let mut fw = ObjectWriter::new();
            fw.num("index", f.index as u64);
            fw.str("program_seed", &format!("{:#018x}", f.program_seed));
            fw.str("kind", &f.kind.label());
            fw.str("detail", &f.detail);
            fw.num("original_bytes", f.original_bytes as u64);
            fw.num("shrunk_bytes", f.shrunk_bytes as u64);
            fw.num("shrink_oracle_calls", f.shrink_oracle_calls as u64);
            fw.num("shrink_edits", f.shrink_edits as u64);
            fw.str("repro", &f.repro);
            match &f.corpus_file {
                Some(name) => fw.str("corpus_file", name),
                None => fw.raw("corpus_file", "null"),
            }
            fails.push_str(&fw.finish().replace('\n', " "));
        }
        fails.push(']');
        w.raw("failures", &fails);
        w.finish()
    }
}

/// File name for a corpus entry: seed plus failure label, both
/// deterministic, so re-running the same campaign overwrites rather
/// than accumulates.
fn corpus_file_name(program_seed: u64, kind: &FailureKind) -> String {
    let label: String = kind
        .label()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!("s{program_seed:016x}-{label}.dsp")
}

/// Run a full differential campaign.
///
/// # Errors
///
/// Returns an IO error only for corpus-directory writes; oracle
/// failures are findings, not errors.
pub fn run_campaign(opts: &FuzzOptions) -> std::io::Result<FuzzReport> {
    let mut master = Rng::new(opts.seed);
    let seeds: Vec<u64> = (0..opts.count).map(|_| master.next_u64()).collect();

    struct Prog {
        seed: u64,
        ast: dsp_frontend::ast::Ast,
        source: String,
    }
    let programs: Vec<Prog> = seeds
        .iter()
        .map(|&seed| {
            let ast = generate(seed, &opts.config);
            let source = dsp_frontend::print_ast(&ast);
            Prog { seed, ast, source }
        })
        .collect();
    let total_source_bytes: u64 = programs.iter().map(|p| p.source.len() as u64).sum();

    // One engine matrix for every program; `differ::judge` turns each
    // row into a verdict, injection hook included.
    let engine = Engine::new(EngineOptions {
        jobs: opts.jobs,
        fuel: opts.diff.fuel,
        ..EngineOptions::default()
    });
    let benches: Vec<Benchmark> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let name = format!("fuzz-{i:05}");
            corpus::benchmark_from_source(&name, &p.source, Path::new(&name))
                .expect("a printed generated AST parses")
        })
        .collect();
    let run = engine.submit_matrix(
        &benches,
        &Strategy::ALL,
        Priority::Batch,
        CancelToken::new(),
        SpanCtx::NONE,
    );

    // Per-program verdicts, campaign order.
    let n_strats = Strategy::ALL.len();
    let mut failures: Vec<(usize, Failure)> = Vec::new();
    let mut summaries: Vec<StrategySummary> = Strategy::ALL
        .iter()
        .map(|&s| StrategySummary {
            strategy: s,
            total_cycles: 0,
            min_cycles: u64::MAX,
            max_cycles: 0,
        })
        .collect();
    let mut digest = dsp_trace::fnv1a(&[]);
    let mut passed = 0usize;
    for (i, prog) in programs.iter().enumerate() {
        let row = (0..n_strats).map(|j| {
            run.wait_job(i * n_strats + j)
                .expect("fuzz matrix is never cancelled")
        });
        match differ::judge(&prog.source, &opts.diff, row) {
            Verdict::Pass { cycles } => {
                passed += 1;
                for (summary, &(_, c)) in summaries.iter_mut().zip(&cycles) {
                    summary.total_cycles += c;
                    summary.min_cycles = summary.min_cycles.min(c);
                    summary.max_cycles = summary.max_cycles.max(c);
                    digest = dsp_trace::fnv1a_extend(digest, &c.to_le_bytes());
                }
            }
            Verdict::Fail(f) => failures.push((i, f)),
        }
    }
    for s in &mut summaries {
        if s.min_cycles == u64::MAX {
            s.min_cycles = 0;
        }
    }

    // Shrink and archive each failure.
    let shrink_opts = ShrinkOptions {
        max_oracle_calls: opts.max_shrink_calls,
        diff: opts.diff.clone(),
    };
    let mut records = Vec::with_capacity(failures.len());
    for (i, failure) in failures {
        let prog = &programs[i];
        let shrunk = shrink(&prog.ast, &failure.kind, &shrink_opts);

        let corpus_file = if let Some(dir) = &opts.corpus_dir {
            let name = corpus_file_name(prog.seed, &failure.kind);
            std::fs::create_dir_all(dir)?;
            let header = format!(
                "// dsp-gen reproducer (minimized {} -> {} bytes in {} edits, {} oracle calls)\n\
                 // campaign seed: {:#018x}  program {} seed: {:#018x}\n\
                 // failure: {}\n\
                 // detail: {}\n",
                prog.source.len(),
                shrunk.shrunk_bytes,
                shrunk.edits_applied,
                shrunk.oracle_calls,
                opts.seed,
                i,
                prog.seed,
                failure.kind.label(),
                failure.detail.replace('\n', " "),
            );
            std::fs::write(dir.join(&name), format!("{header}{}", shrunk.source))?;
            Some(name)
        } else {
            None
        };

        records.push(FailureRecord {
            index: i,
            program_seed: prog.seed,
            kind: failure.kind,
            detail: failure.detail,
            original_bytes: prog.source.len(),
            shrunk_bytes: shrunk.shrunk_bytes,
            shrink_oracle_calls: shrunk.oracle_calls,
            shrink_edits: shrunk.edits_applied,
            repro: shrunk.source,
            corpus_file,
        });
    }

    let ideal_total = summaries
        .iter()
        .find(|s| s.strategy == Strategy::Ideal)
        .map_or(0, |s| s.total_cycles);
    let aggregate_ideal_ok = passed == 0 || summaries.iter().all(|s| ideal_total <= s.total_cycles);

    Ok(FuzzReport {
        seed: opts.seed,
        count: opts.count,
        passed,
        failed: records.len(),
        total_source_bytes,
        cycles_digest: digest,
        aggregate_ideal_ok,
        strategies: summaries,
        failures: records,
    })
}

/// Mutation-campaign configuration.
#[derive(Debug, Clone)]
pub struct MutateOptions {
    /// Master seed.
    pub seed: u64,
    /// Base programs to generate.
    pub count: usize,
    /// Mutants per base program.
    pub mutants_per_program: usize,
    /// Generator knobs for the base programs.
    pub config: GenConfig,
}

impl Default for MutateOptions {
    fn default() -> MutateOptions {
        MutateOptions {
            seed: 1,
            count: 50,
            mutants_per_program: 40,
            config: GenConfig::default(),
        }
    }
}

/// One front-end panic found by mutation (a real bug: the front-end
/// must reject, not abort).
#[derive(Debug, Clone)]
pub struct PanicRecord {
    /// Base program index.
    pub index: usize,
    /// The mutated source that triggered the panic.
    pub source: String,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// Results of a mutation campaign.
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// Master seed.
    pub seed: u64,
    /// Mutants fed to the front-end.
    pub mutants: usize,
    /// Mutants the front-end accepted.
    pub accepted: usize,
    /// Mutants the front-end rejected with a proper error.
    pub rejected: usize,
    /// Mutants that made the front-end panic.
    pub panics: Vec<PanicRecord>,
}

impl MutationReport {
    /// Deterministic JSON projection.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str("tool", "dsp-gen-mutate");
        w.num("seed", self.seed);
        w.num("mutants", self.mutants as u64);
        w.num("accepted", self.accepted as u64);
        w.num("rejected", self.rejected as u64);
        w.num("panics", self.panics.len() as u64);
        let mut arr = String::from("[");
        for (i, p) in self.panics.iter().enumerate() {
            if i > 0 {
                arr.push_str(", ");
            }
            let mut pw = ObjectWriter::new();
            pw.num("index", p.index as u64);
            pw.str("message", &p.message);
            pw.str("source", &p.source);
            arr.push_str(&pw.finish().replace('\n', " "));
        }
        arr.push(']');
        w.raw("panic_records", &arr);
        w.finish()
    }
}

/// Apply one random byte-level mutation: flip a byte, delete a span,
/// insert a structural character, or duplicate a span. Exposed so
/// property tests can drive the same mutator the campaign uses.
pub fn mutate_bytes(rng: &mut Rng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(b'{');
        return;
    }
    match rng.below(4) {
        // Flip a byte to an arbitrary value.
        0 => {
            let i = rng.below(bytes.len());
            bytes[i] = (rng.next_u64() & 0xff) as u8;
        }
        // Delete a short span.
        1 => {
            let i = rng.below(bytes.len());
            let n = rng.range(1, 8).min(bytes.len() - i);
            bytes.drain(i..i + n);
        }
        // Insert structural characters (the ones that stress the
        // parser's recursion and recovery).
        2 => {
            let i = rng.below(bytes.len() + 1);
            let c = *rng.pick(b"(){}[];,!*-+/<>=&|^%\"0123456789abefiltwhr. \n");
            bytes.insert(i, c);
        }
        // Duplicate a span elsewhere (builds deep nesting fast).
        _ => {
            let i = rng.below(bytes.len());
            let n = rng.range(1, 16).min(bytes.len() - i);
            let span: Vec<u8> = bytes[i..i + n].to_vec();
            let j = rng.below(bytes.len() + 1);
            bytes.splice(j..j, span);
        }
    }
}

/// Run a mutation campaign against the front-end.
#[must_use]
pub fn run_mutation_campaign(opts: &MutateOptions) -> MutationReport {
    let mut master = Rng::new(opts.seed);
    let mut report = MutationReport {
        seed: opts.seed,
        mutants: 0,
        accepted: 0,
        rejected: 0,
        panics: Vec::new(),
    };
    for i in 0..opts.count {
        let seed = master.next_u64();
        let base = crate::generate::generate_source(seed, &opts.config);
        let mut rng = Rng::new(seed ^ 0x6d75_7461_7465_2121);
        let mut bytes = base.clone().into_bytes();
        for _ in 0..opts.mutants_per_program {
            // Mutations accumulate: early mutants are near-valid
            // programs, late ones drift toward line noise.
            mutate_bytes(&mut rng, &mut bytes);
            if bytes.len() > 1 << 16 {
                bytes.truncate(1 << 16);
            }
            let source = String::from_utf8_lossy(&bytes).into_owned();
            report.mutants += 1;
            let outcome = std::panic::catch_unwind(|| dsp_frontend::compile_str(&source).is_ok());
            match outcome {
                Ok(true) => report.accepted += 1,
                Ok(false) => report.rejected += 1,
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    report.panics.push(PanicRecord {
                        index: i,
                        source,
                        message,
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_digest_is_pinned() {
        let opts = FuzzOptions {
            seed: 7,
            count: 5,
            ..FuzzOptions::default()
        };
        let report = run_campaign(&opts).unwrap();
        // Absolute, so a changed hash or generator shows here.
        assert_eq!(report.cycles_digest, 0x922c_da66_789a_4c21);
    }

    #[test]
    fn clean_campaign_passes_and_is_deterministic() {
        let opts = FuzzOptions {
            seed: 7,
            count: 20,
            ..FuzzOptions::default()
        };
        let a = run_campaign(&opts).unwrap();
        assert_eq!(a.passed, 20, "failures: {:#?}", a.failures);
        assert_eq!(a.failed, 0);
        assert!(a.cycles_digest != 0);
        let b = run_campaign(&opts).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "report must be byte-stable");
    }

    #[test]
    fn report_json_parses_and_echoes_counts() {
        let opts = FuzzOptions {
            seed: 3,
            count: 5,
            ..FuzzOptions::default()
        };
        let report = run_campaign(&opts).unwrap();
        let v = dsp_driver::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(v.get("count").and_then(|x| x.as_u64()), Some(5));
        assert_eq!(
            v.get("strategies")
                .and_then(|x| x.as_array())
                .map(<[_]>::len),
            Some(Strategy::ALL.len())
        );
    }

    #[test]
    fn injected_miscompile_is_found_shrunk_and_archived() {
        let dir = std::env::temp_dir().join(format!("dsp-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FuzzOptions {
            seed: 11,
            count: 15,
            corpus_dir: Some(dir.clone()),
            diff: DiffOptions {
                // Every generated program declares g0, so the hook
                // fires on every program.
                inject_when_contains: Some("g0".into()),
                ..DiffOptions::default()
            },
            ..FuzzOptions::default()
        };
        let report = run_campaign(&opts).unwrap();
        assert!(report.failed > 0);
        let f = &report.failures[0];
        assert_eq!(
            f.kind,
            FailureKind::Mismatch(Strategy::CbPartition),
            "{f:?}"
        );
        assert!(f.shrunk_bytes < f.original_bytes, "{f:?}");
        assert!(f.repro.contains("g0"));
        let name = f.corpus_file.as_ref().expect("archived");
        let on_disk = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(on_disk.contains("// dsp-gen reproducer"));
        assert!(on_disk.ends_with(&f.repro));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutation_campaign_finds_no_panics() {
        let opts = MutateOptions {
            seed: 5,
            count: 8,
            mutants_per_program: 25,
            ..MutateOptions::default()
        };
        let report = run_mutation_campaign(&opts);
        assert_eq!(report.mutants, 8 * 25);
        assert!(
            report.panics.is_empty(),
            "front-end panicked on: {:#?}",
            report.panics
        );
        assert!(report.rejected > 0, "mutations should break some programs");
        let again = run_mutation_campaign(&opts);
        assert_eq!(report.to_json(), again.to_json());
    }
}
