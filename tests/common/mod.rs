//! Process-test harness shared by the suites that drive the real
//! `dualbank` binary: spawn a subcommand, read its listen address from
//! the startup banner, talk to it with `dsp_serve::client`, and kill it
//! when the handle drops. Each suite uses a different subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dsp_serve::client::ClientConn;

pub fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dualbank")
}

/// A child process serving on a port parsed from its startup banner.
pub struct Node {
    pub child: Child,
    pub addr: String,
}

impl Node {
    pub fn spawn(args: &[&str], banner: &str) -> Node {
        let mut child = Command::new(bin())
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn node");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("banner before EOF")
                .expect("read banner");
            if let Some(rest) = line.strip_prefix(banner) {
                break rest.trim().to_string();
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Node { child, addr }
    }

    pub fn connect(&self) -> ClientConn {
        ClientConn::connect(&self.addr, Duration::from_secs(120)).expect("connect node")
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn spawn_replica(id: &str) -> Node {
    Node::spawn(
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "1",
            // Connection workers must cover the router's pooled
            // keep-alive connections PLUS its readiness probes: a
            // probe starved behind idle pooled connections looks like
            // a dead replica and gets a healthy node ejected.
            "--workers",
            "6",
            "--replica-id",
            id,
        ],
        "dsp-serve listening on http://",
    )
}

pub fn spawn_router(replicas: &[&str], extra: &[&str]) -> Node {
    let list = replicas.join(",");
    let mut args = vec!["router", "--addr", "127.0.0.1:0", "--replicas", &list];
    args.extend_from_slice(extra);
    Node::spawn(&args, "dsp-router listening on http://")
}

/// A chaos proxy child plus its admin (`/metrics`) address, both
/// parsed from the two-line banner.
pub struct ChaosNode {
    pub node: Node,
    pub admin: String,
}

pub fn spawn_chaos(upstream: &str, scenario: &str, seed: u64, fault_pct: u32) -> ChaosNode {
    spawn_chaos_with(upstream, scenario, seed, fault_pct, &[])
}

pub fn spawn_chaos_with(
    upstream: &str,
    scenario: &str,
    seed: u64,
    fault_pct: u32,
    extra: &[&str],
) -> ChaosNode {
    let seed = seed.to_string();
    let pct = fault_pct.to_string();
    let mut args = vec![
        "chaos",
        "--listen",
        "127.0.0.1:0",
        "--admin",
        "127.0.0.1:0",
        "--upstream",
        upstream,
        "--scenario",
        scenario,
        "--seed",
        &seed,
        "--fault-pct",
        &pct,
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dsp-chaos");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let (mut data, mut admin) = (None, None);
    while data.is_none() || admin.is_none() {
        let line = lines
            .next()
            .expect("both banner lines before EOF")
            .expect("read banner");
        if let Some(rest) = line.strip_prefix("dsp-chaos listening on http://") {
            data = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("dsp-chaos admin on http://") {
            admin = Some(rest.trim().to_string());
        }
    }
    std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
    ChaosNode {
        node: Node {
            child,
            addr: data.expect("data addr"),
        },
        admin: admin.expect("admin addr"),
    }
}

/// One `GET /metrics`, which must answer 200.
pub fn scrape(addr: &str) -> String {
    let resp = ClientConn::connect(addr, Duration::from_secs(10))
        .expect("connect for metrics")
        .request("GET", "/metrics", None)
        .expect("scrape metrics");
    assert_eq!(resp.status, 200, "metrics endpoint must answer 200");
    resp.text()
}
