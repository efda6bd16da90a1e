//! Structured run reports: per-job measurements and stage times,
//! rendered as JSON (schema `dualbank-run-report/v1`, documented in
//! `docs/run_report_schema.md`) or as human-readable tables.

use std::time::Duration;

use dsp_backend::Strategy;
use dsp_trace::fnv1a;
use dsp_workloads::runner::Measurement;
use dsp_workloads::Kind;

use crate::cache::CacheStats;
use crate::json::{escape as json_string, number as json_f64, Value};

/// Which cache layers served this job (`None` = layer not consulted).
/// Schedule-dependent under parallelism — the per-layer totals in
/// [`CacheStats`] are the deterministic view.
#[derive(Debug, Clone, Copy)]
pub struct CacheFlags {
    /// Parse+optimize served from cache.
    pub prepared: bool,
    /// Profiling run served from cache (profile-driven strategies only).
    pub profile: Option<bool>,
    /// Reference run served from cache (verifying jobs only).
    pub reference: Option<bool>,
    /// Compiled artifact served from cache.
    pub artifact: bool,
    /// Disk tier's verdict on an in-memory artifact miss: `None` when
    /// no disk store is configured or the memory layer hit (disk not
    /// consulted), `Some(true)` when the artifact was rehydrated from
    /// disk, `Some(false)` when disk missed and the job compiled.
    pub artifact_disk: Option<bool>,
    /// Simulation outcome served from the memo (another job ran it).
    pub sim: bool,
}

/// Wall time of every pipeline stage for one job. Stages shared across
/// strategies (`parse`, `opt`, `profile`, `reference`, and `simulate`
/// among cells that run one program) report the time recorded when the
/// shared work was done, so jobs of one source repeat the same value —
/// sum them once per computation ([`RunReport::stage_totals`]), not
/// per job.
#[derive(Debug, Clone)]
pub struct StageTimes {
    /// Front end (lex, parse, IR construction).
    pub parse: Duration,
    /// Machine-independent optimization pipeline.
    pub opt: Duration,
    /// Per-pass breakdown of `opt`, in first-run order.
    pub opt_passes: Vec<(String, Duration)>,
    /// Profiling interpreter run (profile-driven strategies only).
    pub profile: Duration,
    /// Interference-graph construction via trial compaction.
    pub trial_compaction: Duration,
    /// X/Y graph partitioning.
    pub partition: Duration,
    /// Register allocation.
    pub regalloc: Duration,
    /// LIR lowering.
    pub lower: Duration,
    /// Final VLIW compaction.
    pub final_pack: Duration,
    /// Link and layout.
    pub link: Duration,
    /// Reference interpreter run (verification baseline).
    pub reference: Duration,
    /// Cycle-accurate simulation: decode and execute of the run whose
    /// outcome this job used.
    pub simulate: Duration,
    /// Word-for-word comparison against the reference.
    pub verify: Duration,
}

/// The outcome of one (benchmark, strategy) job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Benchmark name.
    pub bench: String,
    /// Kernel or application.
    pub kind: Kind,
    /// Strategy used.
    pub strategy: Strategy,
    /// Cycles, memory cost, and simulator statistics.
    pub measurement: Measurement,
    /// The partitioner's objective value (estimated serialized accesses).
    pub partition_cost: u64,
    /// Data words spent on duplicated copies.
    pub duplicated_words: u64,
    /// Partitioning algorithm label (`"greedy"`, `"fm"`).
    pub partitioner: &'static str,
    /// Partitioner passes run when the artifact was built.
    pub partition_passes: u64,
    /// Partitioner moves retained in the final bank assignment.
    pub partition_moves: u64,
    /// Which cache layers served this job.
    pub cached: CacheFlags,
    /// Per-stage wall times.
    pub stages: StageTimes,
}

/// The full result of an [`Engine::run_matrix`](crate::Engine::run_matrix)
/// call.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategies swept, in column order.
    pub strategies: Vec<Strategy>,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall time of the matrix.
    pub wall_time: Duration,
    /// Cache counters at completion (cumulative over the engine's life).
    pub cache: CacheStats,
    /// Per-job reports, bench-major in matrix order.
    pub jobs: Vec<JobReport>,
}

impl RunReport {
    /// The report for one (benchmark, strategy) pair.
    #[must_use]
    pub fn job(&self, bench: &str, strategy: Strategy) -> Option<&JobReport> {
        self.jobs
            .iter()
            .find(|j| j.bench == bench && j.strategy == strategy)
    }

    /// Benchmark names in first-appearance order.
    #[must_use]
    pub fn bench_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for j in &self.jobs {
            if names.last() != Some(&j.bench.as_str()) && !names.contains(&j.bench.as_str()) {
                names.push(&j.bench);
            }
        }
        names
    }

    /// Cycle counts as a benchmark × strategy table.
    #[must_use]
    pub fn cycles_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<14} {:>12}", "benchmark", "kind"));
        for s in &self.strategies {
            out.push_str(&format!(" {:>9}", s.label()));
        }
        out.push('\n');
        for name in self.bench_names() {
            let kind = self
                .jobs
                .iter()
                .find(|j| j.bench == name)
                .map_or(String::new(), |j| j.kind.to_string());
            out.push_str(&format!("{name:<14} {kind:>12}"));
            for &s in &self.strategies {
                match self.job(name, s) {
                    Some(j) => out.push_str(&format!(" {:>9}", j.measurement.cycles)),
                    None => out.push_str(&format!(" {:>9}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Aggregate per-stage wall times over the whole matrix, counting
    /// shared stages once per source rather than once per job.
    #[must_use]
    pub fn stage_totals(&self) -> Vec<(&'static str, Duration)> {
        let mut totals: Vec<(&'static str, Duration)> = vec![
            ("parse", Duration::ZERO),
            ("opt", Duration::ZERO),
            ("profile", Duration::ZERO),
            ("trial_compaction", Duration::ZERO),
            ("partition", Duration::ZERO),
            ("regalloc", Duration::ZERO),
            ("lower", Duration::ZERO),
            ("final_pack", Duration::ZERO),
            ("link", Duration::ZERO),
            ("reference", Duration::ZERO),
            ("simulate", Duration::ZERO),
            ("verify", Duration::ZERO),
        ];
        let mut add = |name: &str, d: Duration| {
            if let Some(t) = totals.iter_mut().find(|(n, _)| *n == name) {
                t.1 += d;
            }
        };
        for j in &self.jobs {
            // Shared stages: count only for the job that paid them.
            if !j.cached.prepared {
                add("parse", j.stages.parse);
                add("opt", j.stages.opt);
            }
            if j.cached.profile == Some(false) {
                add("profile", j.stages.profile);
            }
            if j.cached.reference == Some(false) {
                add("reference", j.stages.reference);
            }
            if !j.cached.artifact {
                add("trial_compaction", j.stages.trial_compaction);
                add("partition", j.stages.partition);
                add("regalloc", j.stages.regalloc);
                add("lower", j.stages.lower);
                add("final_pack", j.stages.final_pack);
                add("link", j.stages.link);
            }
            if !j.cached.sim {
                add("simulate", j.stages.simulate);
            }
            // The comparison is per job and always counts.
            add("verify", j.stages.verify);
        }
        totals
    }

    /// Human-readable stage summary (aggregate times + cache line).
    #[must_use]
    pub fn stage_table(&self) -> String {
        let totals = self.stage_totals();
        let grand: Duration = totals.iter().map(|(_, d)| *d).sum();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>7}\n",
            "stage", "total ms", "share"
        ));
        for (name, d) in &totals {
            let share = if grand.is_zero() {
                0.0
            } else {
                d.as_secs_f64() / grand.as_secs_f64() * 100.0
            };
            out.push_str(&format!(
                "{:<18} {:>10.3} {:>6.1}%\n",
                name,
                d.as_secs_f64() * 1e3,
                share
            ));
        }
        out.push_str(&format!(
            "\njobs: {}   workers: {}   wall: {:.3}s   cpu (staged): {:.3}s\n",
            self.jobs.len(),
            self.workers,
            self.wall_time.as_secs_f64(),
            grand.as_secs_f64(),
        ));
        let c = &self.cache;
        out.push_str(&format!(
            "cache: {} hits / {} misses ({:.0}% hit rate; prepared {}/{}, profile {}/{}, reference {}/{}, artifact {}/{}, sim {}/{})\n",
            c.hits(),
            c.misses(),
            c.hit_rate() * 100.0,
            c.prepared_hits,
            c.prepared_hits + c.prepared_misses,
            c.profile_hits,
            c.profile_hits + c.profile_misses,
            c.reference_hits,
            c.reference_hits + c.reference_misses,
            c.artifact_hits,
            c.artifact_hits + c.artifact_misses,
            c.sim_hits,
            c.sim_hits + c.sim_misses,
        ));
        out
    }

    /// Serialize to JSON (schema `dualbank-run-report/v1`).
    ///
    /// Assembled from exactly the pieces a streamed response is made
    /// of — [`sweep_json_prefix`], one [`JobReport::to_json`] chunk per
    /// job, [`sweep_json_tail`] — so a chunked `/sweep` stream
    /// reassembles byte-identically to this buffered form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let jobs: Vec<String> = self.jobs.iter().map(JobReport::to_json).collect();
        format!(
            "{}{}{}",
            sweep_json_prefix(self.workers, &self.strategies),
            jobs.join(",\n"),
            sweep_json_tail(self.wall_time, &self.cache, false),
        )
    }

    /// The report's **deterministic projection**: every per-job result
    /// field (cycles, memory cost, partition cost, simulator counters)
    /// with all schedule- and environment-dependent fields removed —
    /// wall times, stage times, worker count, cache flags and
    /// counters. Two runs of the same matrix — cold, warmed from disk,
    /// or degraded by injected disk faults — must produce
    /// byte-identical projections; the crash-safety and
    /// fault-injection suites assert exactly that.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let strats = self
            .strategies
            .iter()
            .map(|s| json_string(s.label()))
            .collect::<Vec<_>>()
            .join(", ");
        let jobs: Vec<String> = self.jobs.iter().map(job_core_json).collect();
        format!(
            "{{\n  \"schema\": \"dualbank-run-report-deterministic/v1\",\n  \
             \"strategies\": [{strats}],\n  \"jobs\": [\n{}\n  ]\n}}\n",
            jobs.join(",\n"),
        )
    }
}

/// Rebuild the deterministic projection from a serialized
/// `dualbank-run-report/v1` document — byte-identical to what
/// [`RunReport::deterministic_json`] would emit for the run that
/// produced it. Possible because every field of the projection is an
/// integer or a string: nothing is lost or reformatted by the JSON
/// round-trip. This is how a routed multi-replica sweep is compared
/// against a single-node `--deterministic` report.
///
/// # Errors
///
/// Returns a description of the first structural problem: not a
/// run-report document, or a job object missing/mistyping a
/// deterministic field.
pub fn project_deterministic_json(doc: &str) -> Result<String, String> {
    let value = crate::json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = value.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != "dualbank-run-report/v1" {
        return Err(format!(
            "expected a dualbank-run-report/v1 document, got schema {schema:?}"
        ));
    }
    let strategies = value
        .get("strategies")
        .and_then(Value::as_array)
        .ok_or("document has no `strategies` array")?;
    let strats = strategies
        .iter()
        .map(|s| {
            s.as_str()
                .map(json_string)
                .ok_or("`strategies` must contain only strings")
        })
        .collect::<Result<Vec<_>, _>>()?
        .join(", ");
    let jobs = value
        .get("jobs")
        .and_then(Value::as_array)
        .ok_or("document has no `jobs` array")?;
    let cores = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| job_core_from_value(j).map_err(|e| format!("job {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(format!(
        "{{\n  \"schema\": \"dualbank-run-report-deterministic/v1\",\n  \
         \"strategies\": [{strats}],\n  \"jobs\": [\n{}\n  ]\n}}\n",
        cores.join(",\n"),
    ))
}

/// One parsed job object re-rendered as its [`job_core_json`] line.
fn job_core_from_value(j: &Value) -> Result<String, String> {
    let string = |k: &str| {
        j.get(k)
            .and_then(Value::as_str)
            .map(json_string)
            .ok_or_else(|| format!("missing string field `{k}`"))
    };
    let int = |k: &str| {
        j.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing integer field `{k}`"))
    };
    let nested = |outer: &str, k: &str| {
        j.get(outer)
            .and_then(|o| o.get(k))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing integer field `{outer}.{k}`"))
    };
    Ok(format!(
        "    {{\"benchmark\": {}, \"kind\": {}, \"strategy\": {}, \
         \"cycles\": {}, \"memory_cost\": {}, \
         \"static_words\": {{\"x\": {}, \"y\": {}}}, \"stack_words\": {}, \"inst_words\": {}, \
         \"partition_cost\": {}, \"duplicated_vars\": {}, \"duplicated_words\": {}, \
         \"sim\": {{\"ops\": {}, \"loads\": {}, \"stores\": {}, \"dual_mem_cycles\": {}, \"bank_conflict_cycles\": {}}}}}",
        string("benchmark")?,
        string("kind")?,
        string("strategy")?,
        int("cycles")?,
        int("memory_cost")?,
        nested("static_words", "x")?,
        nested("static_words", "y")?,
        int("stack_words")?,
        int("inst_words")?,
        int("partition_cost")?,
        int("duplicated_vars")?,
        int("duplicated_words")?,
        nested("sim", "ops")?,
        nested("sim", "loads")?,
        nested("sim", "stores")?,
        nested("sim", "dual_mem_cycles")?,
        nested("sim", "bank_conflict_cycles")?,
    ))
}

/// The head of a `dualbank-run-report/v1` document: everything known
/// at submission time (schema, workers, strategies) up to and
/// including the opening of the `jobs` array. A streamed `/sweep`
/// response sends this as its first chunk.
#[must_use]
pub fn sweep_json_prefix(workers: usize, strategies: &[Strategy]) -> String {
    let strats = strategies
        .iter()
        .map(|s| json_string(s.label()))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"schema\": \"dualbank-run-report/v1\",\n  \"workers\": {workers},\n  \
         \"strategies\": [{strats}],\n  \"jobs\": [\n"
    )
}

/// The tail of a `dualbank-run-report/v1` document: everything only
/// known at completion time (wall time, cache counters, whether the
/// job list was truncated by a deadline). A streamed `/sweep` response
/// sends this as its final chunk.
#[must_use]
pub fn sweep_json_tail(wall_time: Duration, cache: &CacheStats, truncated: bool) -> String {
    format!(
        "\n  ],\n  \"wall_time_ms\": {},\n  \"cache\": {},\n  \"truncated\": {truncated}\n}}\n",
        json_f64(ms(wall_time)),
        cache_json(cache),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Append the end-to-end `"digest"` checksum field to a serialized
/// job object: FNV-1a over the object's own bytes (surrounding
/// whitespace trimmed, the digest field itself excluded), rendered as
/// 16-digit hex. Appended after every serving-layer field; the
/// deterministic projection selects result fields only, so it is
/// unaffected.
///
/// # Panics
///
/// Panics if `job` is not a serialized JSON object (no trailing `}`).
#[must_use]
pub fn with_job_digest(job: &str) -> String {
    let digest = fnv1a(job.trim().as_bytes());
    format!(
        "{}, \"digest\": \"{digest:016x}\"}}",
        job.strip_suffix('}').expect("job json is an object"),
    )
}

/// Verify a wire job object's `"digest"` field: recompute FNV-1a over
/// the object with the digest field removed and compare. A job with a
/// missing or malformed digest is an error too — every streamed sweep
/// job carries one, so its absence means the bytes were damaged.
///
/// # Errors
///
/// Describes the first problem found (missing field, malformed hex,
/// or checksum mismatch).
pub fn verify_job_digest(job: &str) -> Result<(), String> {
    let job = job.trim();
    const MARKER: &str = ", \"digest\": \"";
    let at = job
        .rfind(MARKER)
        .ok_or_else(|| "job carries no digest field".to_string())?;
    let hex = job[at + MARKER.len()..]
        .strip_suffix("\"}")
        .ok_or_else(|| "digest is not the final field of the job object".to_string())?;
    let claimed = (hex.len() == 16)
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
        .ok_or_else(|| "digest is not 16-digit hex".to_string())?;
    let payload = format!("{}}}", &job[..at]);
    let actual = fnv1a(payload.as_bytes());
    if actual == claimed {
        Ok(())
    } else {
        Err(format!(
            "digest mismatch: job claims {claimed:016x}, payload hashes to {actual:016x}"
        ))
    }
}

/// Verify the `"digest"` of every job in a serialized
/// `dualbank-run-report/v1` document (one job object per line, as the
/// server and the router write them); returns how many were checked.
///
/// # Errors
///
/// Names the first job whose digest is missing, malformed or wrong.
pub fn verify_report_digests(doc: &str) -> Result<usize, String> {
    let lines = doc.lines().map(|l| l.trim().trim_end_matches(','));
    let jobs: Vec<&str> = lines.filter(|l| l.starts_with("{\"")).collect();
    for (i, job) in jobs.iter().enumerate() {
        verify_job_digest(job).map_err(|e| format!("job {i}: {e}"))?;
    }
    Ok(jobs.len())
}

fn cache_json(c: &CacheStats) -> String {
    let layer = |h: u64, m: u64| format!("{{\"hits\": {h}, \"misses\": {m}}}");
    let evicting = |h: u64, m: u64, e: u64, b: u64, eb: u64| {
        format!(
            "{{\"hits\": {h}, \"misses\": {m}, \"evictions\": {e}, \
             \"bytes\": {b}, \"evicted_bytes\": {eb}}}"
        )
    };
    let disk = match &c.disk {
        None => "null".to_string(),
        Some(d) => format!(
            "{{\"hits\": {}, \"misses\": {}, \"errors\": {}, \"quarantined\": {}, \
             \"evictions\": {}, \"evicted_bytes\": {}, \"bytes\": {}, \"entries\": {}}}",
            d.hits,
            d.misses,
            d.errors,
            d.quarantined,
            d.evictions,
            d.evicted_bytes,
            d.bytes,
            d.entries
        ),
    };
    format!(
        "{{\"prepared\": {}, \"profile\": {}, \"reference\": {}, \"artifact\": {}, \"sim\": {}, \"disk\": {disk}, \"hit_rate\": {}}}",
        evicting(
            c.prepared_hits,
            c.prepared_misses,
            c.prepared_evictions,
            c.prepared_bytes,
            c.prepared_evicted_bytes
        ),
        layer(c.profile_hits, c.profile_misses),
        layer(c.reference_hits, c.reference_misses),
        evicting(
            c.artifact_hits,
            c.artifact_misses,
            c.artifact_evictions,
            c.artifact_bytes,
            c.artifact_evicted_bytes
        ),
        layer(c.sim_hits, c.sim_misses),
        json_f64(c.hit_rate()),
    )
}

impl JobReport {
    /// Serialize this job as one JSON object (the element shape of the
    /// `jobs` array in `dualbank-run-report/v1`; also the core of the
    /// `dsp-serve` `/compile` response).
    #[must_use]
    pub fn to_json(&self) -> String {
        job_json(self)
    }

    /// [`JobReport::to_json`] with a serving-layer `"request_id"`
    /// field appended (after the schedule-dependent `cached` block, so
    /// deterministic-projection consumers that cut the line at
    /// `"cached"` are unaffected). `None` renders identically to
    /// [`JobReport::to_json`].
    #[must_use]
    pub fn to_json_tagged(&self, request_id: Option<&str>) -> String {
        let json = self.to_json();
        match request_id {
            None => json,
            Some(id) => format!(
                "{}, \"request_id\": {}}}",
                json.strip_suffix('}').expect("job json is an object"),
                json_string(id)
            ),
        }
    }

    /// [`JobReport::to_json_tagged`] plus the trailing end-to-end
    /// `"digest"` checksum ([`with_job_digest`]) — the form `/sweep`
    /// streams, so a flipped byte anywhere between a replica's
    /// serializer and a reader is detectable.
    #[must_use]
    pub fn to_json_digested(&self, request_id: Option<&str>) -> String {
        with_job_digest(&self.to_json_tagged(request_id))
    }
}

fn job_json(j: &JobReport) -> String {
    let s = &j.stages;
    let stage_fields = [
        ("parse", s.parse),
        ("opt", s.opt),
        ("profile", s.profile),
        ("trial_compaction", s.trial_compaction),
        ("partition", s.partition),
        ("regalloc", s.regalloc),
        ("lower", s.lower),
        ("final_pack", s.final_pack),
        ("link", s.link),
        ("reference", s.reference),
        ("simulate", s.simulate),
        ("verify", s.verify),
    ];
    let stages = stage_fields
        .iter()
        .map(|(n, d)| format!("{}: {}", json_string(n), json_f64(ms(*d))))
        .collect::<Vec<_>>()
        .join(", ");
    let passes = s
        .opt_passes
        .iter()
        .map(|(n, d)| format!("{}: {}", json_string(n), json_f64(ms(*d))))
        .collect::<Vec<_>>()
        .join(", ");
    let opt_bool = |b: Option<bool>| match b {
        None => "null".to_string(),
        Some(v) => v.to_string(),
    };
    // The partitioner block rides in the schedule-dependent tail (after
    // `cached`), not the deterministic core: pass counts differ between
    // algorithms, and the deterministic projection must stay
    // byte-comparable across partitioners when the results agree.
    format!(
        "{}, \
         \"cached\": {{\"prepared\": {}, \"profile\": {}, \"reference\": {}, \"artifact\": {}, \"artifact_disk\": {}, \"sim\": {}}}, \
         \"stage_ms\": {{{stages}}}, \"opt_pass_ms\": {{{passes}}}, \
         \"partitioner\": {{\"algorithm\": {}, \"passes\": {}, \"moves\": {}}}}}",
        job_core_json(j).strip_suffix('}').expect("core is an object"),
        j.cached.prepared,
        opt_bool(j.cached.profile),
        opt_bool(j.cached.reference),
        j.cached.artifact,
        opt_bool(j.cached.artifact_disk),
        j.cached.sim,
        json_string(j.partitioner),
        j.partition_passes,
        j.partition_moves,
    )
}

/// The deterministic core of one job's JSON object: every result field,
/// none of the schedule-dependent ones. [`job_json`] extends this with
/// `cached`/`stage_ms`/`opt_pass_ms`;
/// [`RunReport::deterministic_json`] emits it verbatim.
fn job_core_json(j: &JobReport) -> String {
    let m = &j.measurement;
    format!(
        "    {{\"benchmark\": {}, \"kind\": {}, \"strategy\": {}, \
         \"cycles\": {}, \"memory_cost\": {}, \
         \"static_words\": {{\"x\": {}, \"y\": {}}}, \"stack_words\": {}, \"inst_words\": {}, \
         \"partition_cost\": {}, \"duplicated_vars\": {}, \"duplicated_words\": {}, \
         \"sim\": {{\"ops\": {}, \"loads\": {}, \"stores\": {}, \"dual_mem_cycles\": {}, \"bank_conflict_cycles\": {}}}}}",
        json_string(&j.bench),
        json_string(&j.kind.to_string()),
        json_string(j.strategy.label()),
        m.cycles,
        m.memory_cost,
        m.static_words.0,
        m.static_words.1,
        m.stack_words,
        m.inst_words,
        j.partition_cost,
        m.duplicated_vars,
        j.duplicated_words,
        m.stats.ops,
        m.stats.loads,
        m.stats.stores,
        m.stats.dual_mem_cycles,
        m.stats.bank_conflict_cycles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_report() -> RunReport {
        let engine = crate::Engine::new(crate::EngineOptions {
            jobs: 1,
            ..crate::EngineOptions::default()
        });
        let bench = dsp_workloads::kernels::fir(8, 4);
        engine
            .run_matrix(&[bench], &[Strategy::Baseline, Strategy::CbPartition])
            .expect("fir sweep")
    }

    #[test]
    fn cell_digest_is_pinned() {
        // The router verifies this digest from another process: the
        // absolute value is wire format, not an implementation detail.
        let job = "{\"bench\": \"fir_8_4\", \"strategy\": \"cb\", \"cycles\": 42}";
        assert_eq!(
            with_job_digest(job),
            "{\"bench\": \"fir_8_4\", \"strategy\": \"cb\", \"cycles\": 42, \"digest\": \"08fb8aa4bd0e5d21\"}"
        );
    }

    #[test]
    fn tagged_job_json_appends_request_id_after_cached() {
        let report = sample_report();
        let job = &report.jobs[0];
        assert_eq!(job.to_json_tagged(None), job.to_json());
        let tagged = job.to_json_tagged(Some("req-42"));
        let doc = json::parse(&tagged).expect("tagged job JSON parses");
        assert_eq!(
            doc.get("request_id").and_then(|v| v.as_str()),
            Some("req-42")
        );
        // The tag lands after the schedule-dependent block, so a job
        // line cut at `"cached"` keeps an unchanged prefix.
        assert_eq!(
            tagged.split(", \"cached\": ").next(),
            job.to_json().split(", \"cached\": ").next(),
        );
        // Quotes in a hostile client-supplied ID stay escaped.
        assert!(job
            .to_json_tagged(Some("a\"b"))
            .contains("\"request_id\": \"a\\\"b\""));
    }

    #[test]
    fn projection_from_json_matches_deterministic_json() {
        // The property the routed sweep comparison rests on: a
        // run-report document round-tripped through JSON text projects
        // to the byte-identical deterministic report, request-id tags
        // and all schedule-dependent fields dropped on the floor.
        let report = sample_report();
        let projected =
            project_deterministic_json(&report.to_json()).expect("report JSON projects");
        assert_eq!(projected, report.deterministic_json());
        // Tagged job objects (what a routed sweep carries) project the
        // same: the extra `request_id` field is simply not selected.
        let tagged = format!(
            "{}{}{}",
            sweep_json_prefix(report.workers, &report.strategies),
            report
                .jobs
                .iter()
                .map(|j| j.to_json_tagged(Some("via-router")))
                .collect::<Vec<_>>()
                .join(",\n"),
            sweep_json_tail(report.wall_time, &report.cache, true),
        );
        assert_eq!(
            project_deterministic_json(&tagged).expect("tagged JSON projects"),
            report.deterministic_json()
        );
    }

    #[test]
    fn projection_rejects_foreign_documents() {
        assert!(project_deterministic_json("not json").is_err());
        assert!(project_deterministic_json("{\"schema\": \"other/v1\"}").is_err());
        let missing_field = "{\"schema\": \"dualbank-run-report/v1\", \"strategies\": [\"cb\"], \
                             \"jobs\": [{\"benchmark\": \"x\"}]}";
        let err = project_deterministic_json(missing_field).unwrap_err();
        assert!(err.contains("job 0"), "{err}");
    }

    #[test]
    fn buffered_json_is_prefix_plus_jobs_plus_tail() {
        // The invariant the chunked /sweep stream rests on: the
        // buffered document is literally the concatenation of the
        // pieces the server streams.
        let report = sample_report();
        let mut assembled = sweep_json_prefix(report.workers, &report.strategies);
        for (i, job) in report.jobs.iter().enumerate() {
            if i > 0 {
                assembled.push_str(",\n");
            }
            assembled.push_str(&job.to_json());
        }
        assembled.push_str(&sweep_json_tail(report.wall_time, &report.cache, false));
        assert_eq!(report.to_json(), assembled);
    }

    #[test]
    fn report_json_parses_and_carries_the_new_fields() {
        let report = sample_report();
        let doc = json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("dualbank-run-report/v1")
        );
        assert_eq!(
            doc.get("truncated").and_then(json::Value::as_bool),
            Some(false)
        );
        let cache = doc.get("cache").expect("cache object");
        for layer in ["prepared", "artifact"] {
            let l = cache.get(layer).expect("bounded layer");
            assert!(l.get("bytes").and_then(json::Value::as_u64).is_some());
            assert!(l
                .get("evicted_bytes")
                .and_then(json::Value::as_u64)
                .is_some());
        }
        assert_eq!(
            doc.get("jobs")
                .and_then(json::Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn truncated_tail_marks_the_document() {
        let tail = sweep_json_tail(Duration::from_millis(5), &CacheStats::default(), true);
        assert!(tail.contains("\"truncated\": true"));
        assert!(tail.ends_with("}\n"));
    }

    #[test]
    fn job_digest_round_trips_and_catches_a_flipped_byte() {
        let report = sample_report();
        let wire = report.jobs[0].to_json_digested(Some("req-1"));
        assert!(wire.contains(", \"digest\": \""), "{wire}");
        verify_job_digest(&wire).expect("fresh digest verifies");
        // The digest rides after `cached`, so the deterministic
        // projection is unaffected by its presence.
        let doc = format!(
            "{}{}{}",
            sweep_json_prefix(report.workers, &report.strategies),
            wire,
            sweep_json_tail(report.wall_time, &report.cache, false),
        );
        assert!(project_deterministic_json(&doc).is_ok());
        // Any single flipped payload byte is caught — the chaos
        // proxy's corrupt fault XORs 0x20 into one byte.
        let mut bytes = wire.clone().into_bytes();
        let at = wire.find("\"cycles\"").expect("payload field") + 2;
        bytes[at] ^= 0x20;
        let corrupt = String::from_utf8(bytes).expect("still UTF-8");
        assert!(verify_job_digest(&corrupt).is_err());
        // The same check over a whole document, job by job.
        assert_eq!(verify_report_digests(&doc), Ok(1));
        let damaged = doc.replace(&wire, &corrupt);
        assert!(verify_report_digests(&damaged)
            .unwrap_err()
            .starts_with("job 0: digest mismatch"));
    }

    #[test]
    fn digest_verification_rejects_missing_and_malformed_fields() {
        let report = sample_report();
        let undigested = report.jobs[0].to_json_tagged(None);
        assert!(verify_job_digest(&undigested)
            .unwrap_err()
            .contains("no digest"));
        let wire = report.jobs[0].to_json_digested(None);
        // Damage inside the digest hex itself is also caught.
        let short = wire.replace(", \"digest\": \"", ", \"digest\": \"ff");
        assert!(verify_job_digest(&short).is_err());
        // Leading indentation (how jobs sit inside a document) and a
        // surrounding newline do not perturb verification.
        verify_job_digest(&format!("  {wire}\n")).expect("trim-insensitive");
    }
}
