//! `dsp-router` — a cache-affinity scale-out tier in front of a fleet
//! of `dsp-serve` replicas.
//!
//! A single `dsp-serve` node keeps a hot artifact cache: compiling
//! the same (source, strategy) pair twice hits memory instead of the
//! partitioner. Scaling out naïvely — round-robin across N replicas —
//! dilutes that cache N ways. This crate scales out without the
//! dilution:
//!
//! * **[`ring`]** — a consistent-hash ring (FNV-1a, 64 virtual nodes
//!   per replica) keyed on the artifact-cache key, so each (source,
//!   strategy) pair has one home replica, and removing a replica
//!   remaps only that replica's shard.
//! * **[`replica`]** — the health-checked replica set: hysteretic
//!   eject/readmit driven by `/readyz` probes and request outcomes,
//!   bounded per-replica connection pools, and the shared token-bucket
//!   retry budget.
//! * **[`server`]** — the router itself: `/compile` proxying with
//!   replay-safe retries (never double-sends after the first response
//!   byte), `/sweep` fan-out/fan-in that reassembles a matrix-order
//!   document wire-compatible with a single node's, and the
//!   observability surface (`/healthz`, `/readyz`, `/metrics`,
//!   `/replicas`), behind the HTTP front-end it shares with
//!   `dsp-serve` (`dsp_serve::front`).
//! * **[`metrics`]** — the `dsp_router_*` Prometheus families.
//!
//! The router holds no compute and no cache of its own; it is pure
//! routing policy, deliberately thin enough that killing it loses
//! nothing but in-flight connections.

pub mod metrics;
pub mod replica;
pub mod ring;
pub mod server;

pub use metrics::RouterMetrics;
pub use replica::{BreakerState, PooledConn, ReplicaSet, RetryBudget, Transition, UpstreamPolicy};
pub use ring::{shard_key, Ring};
pub use server::{Router, RouterConfig, RouterHandle};

use std::time::Duration;

use dsp_driver::{check_flags, parse_queue_capacity, parse_worker_count};

/// Build a [`RouterConfig`] from CLI-style arguments. Shared by the
/// `dsp-router` binary and the `dualbank router` subcommand so both
/// accept the same flags.
///
/// # Errors
///
/// Returns a usage message when a flag is unknown, its value does not
/// parse, or no replica was given.
pub fn config_from_args(args: &[String]) -> Result<RouterConfig, String> {
    check_flags(
        args,
        &[
            "--addr",
            "--replica",
            "--replicas",
            "--workers",
            "--queue",
            "--pool",
            "--fanout",
            "--retries",
            "--retry-budget",
            "--retry-backoff-ms",
            "--fail-after",
            "--readmit-after",
            "--probe-ms",
            "--upstream-timeout-ms",
            "--connect-timeout-ms",
            "--first-byte-timeout-ms",
            "--idle-timeout-ms",
            "--pool-idle-ms",
            "--read-deadline-ms",
            "--breaker-threshold",
            "--breaker-cooldown-ms",
        ],
        &["--no-trace"],
    )?;
    let mut config = RouterConfig::default();
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_usize = |name: &str| -> Result<Option<usize>, String> {
        flag_value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} expects a count, got `{v}`"))
            })
            .transpose()
    };
    let parse_ms = |name: &str| -> Result<Option<Duration>, String> {
        flag_value(name)
            .map(|v| {
                v.parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| format!("{name} expects milliseconds, got `{v}`"))
            })
            .transpose()
    };

    if let Some(addr) = flag_value("--addr") {
        config.addr = addr;
    }
    // Replicas arrive either as repeated `--replica host:port` or as
    // one comma-separated `--replicas a,b,c`; both may be mixed.
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--replica" {
            if let Some(addr) = args.get(i + 1) {
                config.replicas.push(addr.clone());
                i += 1;
            }
        } else if args[i] == "--replicas" {
            if let Some(list) = args.get(i + 1) {
                config.replicas.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string),
                );
                i += 1;
            }
        }
        i += 1;
    }
    if config.replicas.is_empty() {
        return Err("a router needs at least one --replica host:port".to_string());
    }
    // Zero is a usage error on these counts, as on `dualbank serve`:
    // "all cores" and the defaults are spelled by omitting the flag.
    if let Some(v) = flag_value("--workers") {
        config.workers = parse_worker_count("--workers", &v)?;
    }
    let defaults = RouterConfig::default();
    for (name, field, default) in [
        (
            "--queue",
            &mut config.queue_capacity,
            defaults.queue_capacity,
        ),
        (
            "--pool",
            &mut config.pool_per_replica,
            defaults.pool_per_replica,
        ),
        ("--fanout", &mut config.fanout, defaults.fanout),
    ] {
        if let Some(v) = flag_value(name) {
            *field = parse_queue_capacity(name, &v, default)?;
        }
    }
    if let Some(v) = parse_usize("--retries")? {
        config.retries = u32::try_from(v).unwrap_or(u32::MAX);
    }
    if let Some(v) = parse_usize("--fail-after")? {
        config.fail_after = u32::try_from(v.max(1)).unwrap_or(u32::MAX);
    }
    if let Some(v) = parse_usize("--readmit-after")? {
        config.readmit_after = u32::try_from(v.max(1)).unwrap_or(u32::MAX);
    }
    if let Some(v) = parse_ms("--probe-ms")? {
        config.probe_interval = v;
    }
    if let Some(v) = parse_ms("--upstream-timeout-ms")? {
        config.upstream_timeout = v;
    }
    if let Some(v) = parse_ms("--connect-timeout-ms")? {
        config.connect_timeout = v;
    }
    if let Some(v) = parse_ms("--first-byte-timeout-ms")? {
        config.first_byte_timeout = v;
    }
    if let Some(v) = parse_ms("--idle-timeout-ms")? {
        config.idle_timeout = v;
    }
    if let Some(v) = parse_ms("--pool-idle-ms")? {
        config.pool_idle = v; // 0 disables reaping
    }
    if let Some(v) = parse_ms("--read-deadline-ms")? {
        config.read_deadline = v; // 0 disables
    }
    if let Some(v) = parse_usize("--breaker-threshold")? {
        config.breaker_threshold = u32::try_from(v.max(1)).unwrap_or(u32::MAX);
    }
    if let Some(v) = parse_ms("--breaker-cooldown-ms")? {
        config.breaker_cooldown = v;
    }
    if let Some(v) = parse_ms("--retry-backoff-ms")? {
        config.retry_backoff = v;
    }
    if let Some(v) = flag_value("--retry-budget") {
        config.retry_budget = v
            .parse()
            .map_err(|_| format!("--retry-budget expects a token count, got `{v}`"))?;
    }
    config.trace = !args.iter().any(|a| a == "--no-trace");
    Ok(config)
}

/// The flag reference both front-ends print for `--help`.
#[must_use]
pub fn usage() -> &'static str {
    "dsp-router — cache-affinity front tier for dsp-serve replicas

USAGE:
    dsp-router --replica HOST:PORT [--replica HOST:PORT ...] [flags]

FLAGS:
    --addr HOST:PORT           bind address (default 127.0.0.1:0)
    --replica HOST:PORT        add an upstream replica (repeatable)
    --replicas A,B,C           add several upstream replicas at once
    --workers N                connection workers (default: CPU count)
    --queue N                  accept-queue capacity (default 64)
    --pool N                   connections pooled per replica (default 4)
    --fanout N                 concurrent sweep-cell fetches (default 4)
    --retries N                extra attempts per request (default 2)
    --retry-budget TOKENS      retry token-bucket cap (default 16)
    --retry-backoff-ms MS      first-retry backoff, doubles (default 10)
    --fail-after N             consecutive failures that eject (default 2)
    --readmit-after N          consecutive probe passes that readmit (default 2)
    --probe-ms MS              readiness probe interval (default 500)
    --upstream-timeout-ms MS   per-attempt upstream timeout (default 30000)
    --connect-timeout-ms MS    upstream TCP connect budget (default 1000)
    --first-byte-timeout-ms MS upstream budget to first response byte
                               (default 10000)
    --idle-timeout-ms MS       longest silent gap between upstream
                               response bytes (default 10000)
    --pool-idle-ms MS          reap pooled keep-alives idle this long
                               (default 30000; 0 disables)
    --read-deadline-ms MS      whole-request read budget for client
                               requests (default 15000; 0 disables)
    --breaker-threshold N      consecutive transport errors that open a
                               replica's circuit breaker (default 4)
    --breaker-cooldown-ms MS   open-breaker cooldown before the
                               half-open probe (default 1000)
    --no-trace                 disable spans and latency histograms

ENDPOINTS:
    POST /compile        proxied with cache-affinity routing + retries
    POST /sweep          fanned out across replicas, matrix-order fan-in
    GET  /healthz        router liveness
    GET  /readyz         200 iff at least one replica is ready
    GET  /metrics        dsp_router_* Prometheus families
    GET  /replicas       the fleet as the router sees it
    GET  /debug/trace    recent router spans
    POST /admin/shutdown graceful drain"
}

/// Bind and run a router from CLI arguments, printing the banner the
/// tooling greps for. Blocks until shutdown.
///
/// # Errors
///
/// Returns a message on flag, bind, or accept-loop failure.
pub fn run_router(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let config = config_from_args(args)?;
    let router = Router::bind(config.clone()).map_err(|e| format!("cannot bind: {e}"))?;
    println!("dsp-router listening on http://{}", router.local_addr());
    println!(
        "  {} replica(s) · pool {}/replica · retries {} (budget {}) · fanout {}",
        config.replicas.len(),
        config.pool_per_replica,
        config.retries,
        config.retry_budget,
        config.fanout,
    );
    for r in &config.replicas {
        println!("  upstream {r}");
    }
    router.run().map_err(|e| format!("router failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn args_round_trip_into_a_config() {
        let config = config_from_args(&args(&[
            "--addr",
            "127.0.0.1:8300",
            "--replica",
            "127.0.0.1:8301",
            "--replicas",
            "127.0.0.1:8302, 127.0.0.1:8303",
            "--retries",
            "3",
            "--pool",
            "2",
            "--probe-ms",
            "100",
            "--connect-timeout-ms",
            "250",
            "--first-byte-timeout-ms",
            "750",
            "--idle-timeout-ms",
            "500",
            "--pool-idle-ms",
            "4000",
            "--read-deadline-ms",
            "6000",
            "--breaker-threshold",
            "7",
            "--breaker-cooldown-ms",
            "300",
            "--no-trace",
        ]))
        .expect("valid flags");
        assert_eq!(config.addr, "127.0.0.1:8300");
        assert_eq!(
            config.replicas,
            vec!["127.0.0.1:8301", "127.0.0.1:8302", "127.0.0.1:8303"]
        );
        assert_eq!(config.retries, 3);
        assert_eq!(config.pool_per_replica, 2);
        assert_eq!(config.probe_interval, Duration::from_millis(100));
        assert_eq!(config.connect_timeout, Duration::from_millis(250));
        assert_eq!(config.first_byte_timeout, Duration::from_millis(750));
        assert_eq!(config.idle_timeout, Duration::from_millis(500));
        assert_eq!(config.pool_idle, Duration::from_millis(4000));
        assert_eq!(config.read_deadline, Duration::from_millis(6000));
        assert_eq!(config.breaker_threshold, 7);
        assert_eq!(config.breaker_cooldown, Duration::from_millis(300));
        assert!(!config.trace);
    }

    #[test]
    fn missing_replicas_is_a_usage_error() {
        let err = config_from_args(&args(&["--addr", "127.0.0.1:0"])).expect_err("no replicas");
        assert!(err.contains("--replica"));
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        let err = config_from_args(&args(&["--replica", "a:1", "--queu", "0"]));
        assert_eq!(err.unwrap_err(), "unknown flag `--queu`");
        let err = config_from_args(&args(&["--replica", "a:1", "--retries"]));
        assert_eq!(err.unwrap_err(), "--retries expects a value");
    }

    #[test]
    fn zero_counts_are_usage_errors_naming_the_default() {
        let with =
            |flag: &str, value: &str| config_from_args(&args(&["--replica", "a:1", flag, value]));
        assert_eq!(
            with("--workers", "0").unwrap_err(),
            "--workers must be at least 1 (omit the flag to use all cores)"
        );
        assert_eq!(
            with("--queue", "0").unwrap_err(),
            "--queue must be at least 1 (omit the flag for the default of 64)"
        );
        assert_eq!(
            with("--pool", "0").unwrap_err(),
            "--pool must be at least 1 (omit the flag for the default of 4)"
        );
        assert_eq!(
            with("--fanout", "0").unwrap_err(),
            "--fanout must be at least 1 (omit the flag for the default of 4)"
        );
        let config = config_from_args(&args(&[
            "--replica",
            "a:1",
            "--workers",
            "3",
            "--queue",
            "5",
            "--pool",
            "2",
            "--fanout",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            (
                config.workers,
                config.queue_capacity,
                config.pool_per_replica,
                config.fanout
            ),
            (3, 5, 2, 7)
        );
    }

    #[test]
    fn bad_flag_values_name_the_flag() {
        let err = config_from_args(&args(&["--replica", "a:1", "--retries", "many"]))
            .expect_err("bad count");
        assert!(err.contains("--retries"));
    }
}
