//! The interception proxy: accept, draw a fault for this connection
//! index from the schedule, then either sabotage the connection
//! directly (refuse / reset / blackhole) or splice it to the upstream
//! with the response stream shaped (delay / trickle / truncate /
//! corrupt) on the way back.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dsp_trace::expo::{Exposition, Kind};

use crate::scenario::{Fault, Schedule, FAULT_KINDS};

/// How long a pump read may block before re-checking for shutdown; also
/// the hard bound on how long a dead peer can pin a pump thread.
const PUMP_READ_TIMEOUT: Duration = Duration::from_secs(120);
const UPSTREAM_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Listen address for intercepted traffic (port 0 picks a free one).
    pub listen: String,
    /// Where clean and shaped connections are forwarded.
    pub upstream: String,
    /// Admin address serving `/metrics`; `None` disables the listener.
    pub admin: Option<String>,
    pub schedule: Schedule,
}

/// Per-fault counters, exposed on the admin `/metrics` endpoint. All
/// counters count faults *scheduled* for a connection; a corrupt offset
/// past the end of a short response still counts as injected.
#[derive(Debug, Default)]
pub struct Counters {
    pub connections: AtomicU64,
    pub faults: [AtomicU64; FAULT_KINDS.len()],
    pub upstream_connect_failures: AtomicU64,
    pub forwarded_bytes: AtomicU64,
}

impl Counters {
    pub fn faults_injected(&self) -> u64 {
        self.faults
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 0)
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }
}

struct Shared {
    config: ChaosConfig,
    counters: Counters,
    conn_seq: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
}

/// Cloneable handle for shutdown and counter inspection (the in-process
/// embedding the tests use).
#[derive(Clone)]
pub struct ChaosHandle {
    shared: Arc<Shared>,
    local: SocketAddr,
    admin: Option<SocketAddr>,
}

impl ChaosHandle {
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loops with throwaway connections.
        let _ = TcpStream::connect(self.local);
        if let Some(admin) = self.admin {
            let _ = TcpStream::connect(admin);
        }
    }

    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }
}

pub struct ChaosProxy {
    listener: TcpListener,
    admin_listener: Option<TcpListener>,
    local: SocketAddr,
    admin: Option<SocketAddr>,
    shared: Arc<Shared>,
}

impl ChaosProxy {
    pub fn bind(config: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(&config.listen)?;
        let local = listener.local_addr()?;
        let admin_listener = match &config.admin {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let admin = match &admin_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let shared = Arc::new(Shared {
            config,
            counters: Counters::default(),
            conn_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });
        Ok(ChaosProxy {
            listener,
            admin_listener,
            local,
            admin,
            shared,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin
    }

    pub fn handle(&self) -> ChaosHandle {
        ChaosHandle {
            shared: Arc::clone(&self.shared),
            local: self.local,
            admin: self.admin,
        }
    }

    /// Accept until [`ChaosHandle::shutdown`]. Spawns one thread per
    /// connection plus one for the admin listener.
    pub fn run(self) -> io::Result<()> {
        if let Some(admin) = self.admin_listener {
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || admin_loop(&admin, &shared));
        }
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(client) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            let index = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
            thread::spawn(move || handle_client(&shared, client, index));
        }
        Ok(())
    }
}

fn handle_client(shared: &Shared, client: TcpStream, index: u64) {
    let (fault, onset) = shared.config.schedule.plan_for(index);
    shared.counters.connections.fetch_add(1, Ordering::Relaxed);
    shared.counters.faults[fault.kind_index()].fetch_add(1, Ordering::Relaxed);
    let _ = client.set_nodelay(true);
    match fault {
        Fault::RefuseConnect => drop(client),
        // With an onset, reset and blackhole become mid-stream faults:
        // they splice to the upstream, forward a healthy response
        // prefix, and only then strike. Without one they stay
        // connection-level, exactly as before.
        Fault::AcceptThenReset if onset == 0 => {
            // Read a little so the client believes the connection is
            // live, then drop while more request bytes are likely
            // unread: Linux answers further traffic with RST.
            let _ = client.set_read_timeout(Some(Duration::from_millis(100)));
            let mut buf = [0u8; 64];
            let _ = (&client).read(&mut buf);
            drop(client);
        }
        Fault::Blackhole(hold) if onset == 0 => {
            // Swallow request bytes silently until the hold expires,
            // then close without ever writing a response byte.
            let deadline = Instant::now() + hold;
            let mut buf = [0u8; 4096];
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                let _ = client.set_read_timeout(Some(left));
                match (&client).read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            drop(client);
        }
        fault => splice(shared, client, fault, onset),
    }
}

/// Forward client↔upstream, shaping only the response direction.
fn splice(shared: &Shared, client: TcpStream, fault: Fault, onset: u64) {
    let upstream = match connect_upstream(&shared.config.upstream) {
        Ok(s) => s,
        Err(_) => {
            shared
                .counters
                .upstream_connect_failures
                .fetch_add(1, Ordering::Relaxed);
            drop(client);
            return;
        }
    };
    let _ = upstream.set_nodelay(true);
    let (Ok(client_r), Ok(upstream_w)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    // Request direction: verbatim, in a side thread.
    thread::spawn(move || pump_verbatim(client_r, upstream_w));
    // Response direction: shaped, on this thread.
    pump_shaped(shared, upstream, client, fault, onset);
}

fn connect_upstream(addr: &str) -> io::Result<TcpStream> {
    let mut last = io::Error::new(io::ErrorKind::NotFound, "upstream did not resolve");
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, UPSTREAM_CONNECT_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn pump_verbatim(from: TcpStream, to: TcpStream) {
    let _ = from.set_read_timeout(Some(PUMP_READ_TIMEOUT));
    let mut buf = [0u8; 4096];
    loop {
        match (&from).read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if (&to).write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

fn pump_shaped(shared: &Shared, upstream: TcpStream, client: TcpStream, fault: Fault, onset: u64) {
    let _ = upstream.set_read_timeout(Some(PUMP_READ_TIMEOUT));
    let mut buf = [0u8; 4096];
    let mut sent: u64 = 0; // response bytes already forwarded
    let mut first = true;
    'outer: loop {
        let n = match (&upstream).read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if first {
            if let Fault::DelayFirstByte(d) = fault {
                thread::sleep(d);
            }
            first = false;
        }
        // Healthy prefix: the first `onset` response bytes pass
        // through verbatim before the fault engages, so a connection
        // can fail mid-stream rather than only at its very start.
        let mut start = 0usize;
        if sent < onset {
            let healthy = ((onset - sent) as usize).min(n);
            if (&client).write_all(&buf[..healthy]).is_err() {
                break;
            }
            sent += healthy as u64;
            shared
                .counters
                .forwarded_bytes
                .fetch_add(healthy as u64, Ordering::Relaxed);
            if healthy == n {
                continue;
            }
            start = healthy;
        }
        match fault {
            // Onset reached: the response stops dead mid-body and both
            // sides close — the client sees a truncated transfer.
            Fault::AcceptThenReset => break 'outer,
            // Onset reached: go dark. Swallow the rest of the response
            // for the hold, then close without another byte.
            Fault::Blackhole(hold) => {
                drain_for(&upstream, hold);
                break 'outer;
            }
            _ => {}
        }
        if let Fault::CorruptByteAt(k) = fault {
            if k >= sent && k < sent + (n - start) as u64 {
                buf[start + (k - sent) as usize] ^= 0x20;
            }
        }
        let mut len = n - start;
        let mut closing = false;
        if let Fault::TruncateAfter(k) = fault {
            if sent + len as u64 >= k {
                len = (k - sent) as usize;
                closing = true;
            }
        }
        let chunk = &buf[start..start + len];
        let wrote = match fault {
            Fault::Trickle { bytes, interval } => {
                let step = bytes.max(1);
                let mut ok = true;
                for (i, piece) in chunk.chunks(step).enumerate() {
                    if i > 0 {
                        thread::sleep(interval);
                    }
                    if (&client).write_all(piece).is_err() {
                        ok = false;
                        break;
                    }
                }
                ok
            }
            _ => (&client).write_all(chunk).is_ok(),
        };
        sent += chunk.len() as u64;
        shared
            .counters
            .forwarded_bytes
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        if !wrote || closing {
            break 'outer;
        }
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = upstream.shutdown(Shutdown::Both);
}

/// Read and discard upstream bytes until `hold` expires — keeps the
/// upstream from blocking on a full send buffer while a mid-stream
/// blackhole holds the client in silence.
fn drain_for(upstream: &TcpStream, hold: Duration) {
    let deadline = Instant::now() + hold;
    let mut buf = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let _ = upstream.set_read_timeout(Some(left));
        match (&*upstream).read(&mut buf) {
            Ok(_n @ 1..) => {}
            // Upstream finished early: keep the client hanging in
            // silence for the rest of the hold anyway.
            Ok(0) | Err(_) => {
                thread::sleep(deadline.saturating_duration_since(Instant::now()));
                break;
            }
        }
    }
}

/// Tiny single-purpose HTTP listener for `/metrics` and `/healthz`;
/// hand-rolled so the crate stays free of serve-tier dependencies.
fn admin_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut conn) = stream else { continue };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
        let mut head = Vec::new();
        let mut buf = [0u8; 512];
        while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 4096 {
            match conn.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => head.extend_from_slice(&buf[..n]),
            }
        }
        let line = String::from_utf8_lossy(&head);
        let path = line.split_whitespace().nth(1).unwrap_or("");
        let (status, body) = match path {
            "/metrics" => ("200 OK", render_metrics(shared)),
            "/healthz" => ("200 OK", "ok\n".to_string()),
            _ => ("404 Not Found", "not found\n".to_string()),
        };
        let _ = write!(
            conn,
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = conn.shutdown(Shutdown::Both);
    }
}

fn render_metrics(shared: &Shared) -> String {
    use Kind::{Counter, Gauge};
    let c = &shared.counters;
    let sched = &shared.config.schedule;
    let mut x = Exposition::new();
    x.single(
        "dsp_chaos_up",
        Gauge,
        "Whether the chaos proxy is running.",
        1,
    );
    x.single(
        "dsp_chaos_uptime_seconds",
        Gauge,
        "Seconds since the proxy started.",
        shared.started.elapsed().as_secs(),
    );
    let name = "dsp_chaos_info";
    x.family(
        name,
        Gauge,
        "Scenario, seed, and fault rate of the schedule.",
    );
    x.sample(
        name,
        &[
            ("scenario", sched.scenario().label()),
            ("seed", &sched.seed().to_string()),
            ("fault_pct", &sched.fault_pct().to_string()),
            ("upstream", &shared.config.upstream),
        ],
        1,
    );
    x.single(
        "dsp_chaos_connections_total",
        Counter,
        "Client connections accepted.",
        c.connections.load(Ordering::Relaxed),
    );
    let name = "dsp_chaos_faults_total";
    x.family(
        name,
        Counter,
        "Faults scheduled, by kind (kind=\"none\" counts clean pass-throughs).",
    );
    for (kind, counter) in FAULT_KINDS.iter().zip(&c.faults) {
        x.sample(name, &[("kind", kind)], counter.load(Ordering::Relaxed));
    }
    x.single(
        "dsp_chaos_upstream_connect_failures_total",
        Counter,
        "Dials to the upstream that failed.",
        c.upstream_connect_failures.load(Ordering::Relaxed),
    );
    x.single(
        "dsp_chaos_forwarded_bytes_total",
        Counter,
        "Response bytes forwarded to clients.",
        c.forwarded_bytes.load(Ordering::Relaxed),
    );
    x.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// Every family with fixed counters, pinned byte for byte. The
    /// uptime sample is wall-clock, so it is masked.
    #[test]
    fn exposition_matches_the_golden_file() {
        let shared = Shared {
            config: ChaosConfig {
                listen: "127.0.0.1:0".into(),
                upstream: "127.0.0.1:9201".into(),
                admin: None,
                schedule: Schedule::new(Scenario::Mixed, 7, 50),
            },
            counters: Counters::default(),
            conn_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        };
        let c = &shared.counters;
        c.connections.store(12, Ordering::Relaxed);
        for (i, counter) in c.faults.iter().enumerate() {
            counter.store(i as u64 + 1, Ordering::Relaxed);
        }
        c.upstream_connect_failures.store(2, Ordering::Relaxed);
        c.forwarded_bytes.store(4096, Ordering::Relaxed);
        let masked: String = render_metrics(&shared)
            .lines()
            .map(|l| match l.strip_prefix("dsp_chaos_uptime_seconds ") {
                Some(_) => "dsp_chaos_uptime_seconds <uptime>\n".to_string(),
                None => format!("{l}\n"),
            })
            .collect();
        assert_eq!(masked, include_str!("../tests/golden/metrics.prom"));
    }
}
