//! The replica table: per-upstream health state, the live hash ring
//! over the ready members, and a bounded keep-alive connection pool
//! per replica.
//!
//! Health is hysteretic: a replica is ejected from the ring after
//! `fail_after` consecutive failed observations (probes or request
//! attempts) and readmitted after `readmit_after` consecutive
//! successes, so one dropped packet neither ejects a healthy replica
//! nor readmits a flapping one. Every membership change rebuilds the
//! ring — cheap, `replicas × VNODES` points — and bumps the
//! `hash_moves` counter that `dsp_router_hash_moves_total` exposes.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use dsp_serve::client::{ClientConn, PhaseTimeouts};

use crate::ring::Ring;

/// Everything that governs how the router talks to one upstream:
/// pool size and idle lifetime, health hysteresis, the per-phase and
/// whole-request timeouts, and the circuit-breaker thresholds.
#[derive(Debug, Clone)]
pub struct UpstreamPolicy {
    /// Keep-alive connections per replica (idle + checked out).
    pub pool_cap: usize,
    /// Consecutive failed observations before ring ejection.
    pub fail_after: u32,
    /// Consecutive successes before readmission.
    pub readmit_after: u32,
    /// Whole-request deadline per upstream exchange.
    pub upstream_timeout: Duration,
    /// TCP connect budget (a fraction of `upstream_timeout`).
    pub connect_timeout: Duration,
    /// Budget from request written to first response byte.
    pub first_byte_timeout: Duration,
    /// Longest allowed silent gap between response bytes.
    pub idle_timeout: Duration,
    /// Pooled connections idle longer than this are reaped rather
    /// than handed out (they are usually half-dead: the upstream's
    /// keep-alive timer runs at the same scale).
    pub pool_idle: Duration,
    /// Consecutive transport errors before the breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before letting one half-open
    /// probe request through.
    pub breaker_cooldown: Duration,
}

impl Default for UpstreamPolicy {
    fn default() -> UpstreamPolicy {
        UpstreamPolicy {
            pool_cap: 4,
            fail_after: 2,
            readmit_after: 2,
            upstream_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(1),
            first_byte_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(10),
            pool_idle: Duration::from_secs(30),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_secs(1),
        }
    }
}

/// Circuit-breaker state for one replica. Distinct from ring health:
/// the prober ejects replicas on *probe* evidence every `--probe-ms`,
/// while the breaker reacts to *request* outcomes immediately and
/// fast-fails attempts without burning a timeout on each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive errors are counted.
    Closed,
    /// Cooling down after the error threshold; attempts fast-fail.
    Open,
    /// Cooldown elapsed; exactly one probe request is in flight.
    HalfOpen,
}

impl BreakerState {
    /// Encoding of the `dsp_router_breaker_state` gauge.
    #[must_use]
    pub fn gauge(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }

    /// Stable label for the transition counter.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Open => "open",
        }
    }
}

struct Breaker {
    state: BreakerState,
    consecutive_fail: u32,
    opened_at: Option<Instant>,
    /// True while the single half-open probe request is in flight.
    probing: bool,
    /// Transitions into (open, half-open, closed), for `/metrics`.
    transitions: [u64; 3],
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_fail: 0,
            opened_at: None,
            probing: false,
            transitions: [0; 3],
        }
    }

    fn transition(&mut self, to: BreakerState) {
        self.state = to;
        match to {
            BreakerState::Open => {
                self.opened_at = Some(Instant::now());
                self.transitions[0] += 1;
            }
            BreakerState::HalfOpen => self.transitions[1] += 1,
            BreakerState::Closed => self.transitions[2] += 1,
        }
    }
}

/// How one health observation changed the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The replica crossed the failure threshold and left the ring.
    Ejected,
    /// The replica crossed the success threshold and rejoined.
    Readmitted,
}

/// Mutable health fields, guarded together so threshold crossings and
/// ring rebuilds are atomic with respect to each other.
struct Health {
    up: bool,
    consecutive_ok: u32,
    consecutive_fail: u32,
    /// The replica id the upstream announced via `X-Dsp-Replica`
    /// (empty until first seen).
    announced_id: Option<String>,
}

/// An idle pooled connection, stamped with when it was checked in so
/// the reaper can retire sockets that sat unused too long.
struct IdleConn {
    conn: ClientConn,
    since: Instant,
}

/// One replica's connection pool: at most `cap` connections exist at
/// a time (idle + checked out); checkouts beyond that wait.
struct Pool {
    idle: Vec<IdleConn>,
    outstanding: usize,
}

struct Replica {
    addr: String,
    health: Mutex<Health>,
    pool: Mutex<Pool>,
    pool_ready: Condvar,
    breaker: Mutex<Breaker>,
}

/// The set of upstream replicas plus the consistent-hash ring over the
/// ready ones.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    labels: Vec<String>,
    ring: Mutex<Ring>,
    policy: UpstreamPolicy,
    /// Ring membership transitions (ejections + readmissions). Each
    /// transition remaps exactly the moving replica's shard.
    pub hash_moves_total: AtomicU64,
    /// Probe outcomes, for `/metrics`.
    pub probes_ok_total: AtomicU64,
    /// Probe failures, for `/metrics`.
    pub probes_failed_total: AtomicU64,
    /// Pooled keep-alive sockets retired for sitting idle past
    /// `pool_idle`, for `/metrics`.
    pub pool_reaped_total: AtomicU64,
}

/// A checked-out upstream connection. Call [`PooledConn::succeed`] to
/// return it for reuse; dropping it without that discards the socket
/// and frees the pool slot (the right thing after any IO error).
pub struct PooledConn<'a> {
    set: &'a ReplicaSet,
    idx: usize,
    conn: Option<ClientConn>,
    reused: bool,
}

impl PooledConn<'_> {
    /// The live connection.
    pub fn conn(&mut self) -> &mut ClientConn {
        self.conn.as_mut().expect("connection present until drop")
    }

    /// True when this is a reused idle keep-alive socket rather than a
    /// fresh dial. A transport failure before any response byte on a
    /// reused socket usually means the replica closed it while idle
    /// (stale keep-alive) — the caller should discard and redial the
    /// *same* replica, not fail over.
    #[must_use]
    pub fn was_reused(&self) -> bool {
        self.reused
    }

    /// Return the connection to the idle pool for keep-alive reuse.
    pub fn succeed(mut self) {
        if let Some(conn) = self.conn.take() {
            self.set.checkin(self.idx, conn);
        }
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        if self.conn.take().is_some() {
            // Discarded (error path): the socket dies, the slot frees.
            self.set.release_slot(self.idx);
        }
    }
}

impl ReplicaSet {
    /// A set over `addrs`, all initially ready (optimistic start: the
    /// first failed observations eject the truly-dead ones within
    /// `fail_after` probes).
    #[must_use]
    pub fn new(addrs: Vec<String>, mut policy: UpstreamPolicy) -> ReplicaSet {
        policy.pool_cap = policy.pool_cap.max(1);
        policy.fail_after = policy.fail_after.max(1);
        policy.readmit_after = policy.readmit_after.max(1);
        policy.breaker_threshold = policy.breaker_threshold.max(1);
        let replicas: Vec<Replica> = addrs
            .iter()
            .map(|addr| Replica {
                addr: addr.clone(),
                health: Mutex::new(Health {
                    up: true,
                    consecutive_ok: 0,
                    consecutive_fail: 0,
                    announced_id: None,
                }),
                pool: Mutex::new(Pool {
                    idle: Vec::new(),
                    outstanding: 0,
                }),
                pool_ready: Condvar::new(),
                breaker: Mutex::new(Breaker::new()),
            })
            .collect();
        let members: Vec<usize> = (0..replicas.len()).collect();
        let ring = Ring::build(&addrs, &members);
        ReplicaSet {
            replicas,
            labels: addrs,
            ring: Mutex::new(ring),
            policy,
            hash_moves_total: AtomicU64::new(0),
            probes_ok_total: AtomicU64::new(0),
            probes_failed_total: AtomicU64::new(0),
            pool_reaped_total: AtomicU64::new(0),
        }
    }

    /// The policy this set was built with.
    #[must_use]
    pub fn policy(&self) -> &UpstreamPolicy {
        &self.policy
    }

    /// Number of configured replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True when no replicas are configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica's address (its stable metrics label and ring
    /// identity).
    #[must_use]
    pub fn addr(&self, idx: usize) -> &str {
        &self.replicas[idx].addr
    }

    /// Is the replica currently in the ring?
    ///
    /// # Panics
    ///
    /// Panics if the health mutex is poisoned.
    #[must_use]
    pub fn is_up(&self, idx: usize) -> bool {
        self.replicas[idx].health.lock().expect("health mutex").up
    }

    /// Replicas currently in the ring.
    #[must_use]
    pub fn ready_count(&self) -> usize {
        (0..self.replicas.len()).filter(|&i| self.is_up(i)).count()
    }

    /// The replica id the upstream announced, when known.
    ///
    /// # Panics
    ///
    /// Panics if the health mutex is poisoned.
    #[must_use]
    pub fn announced_id(&self, idx: usize) -> Option<String> {
        self.replicas[idx]
            .health
            .lock()
            .expect("health mutex")
            .announced_id
            .clone()
    }

    /// Record the replica id seen in an upstream `X-Dsp-Replica`
    /// header.
    ///
    /// # Panics
    ///
    /// Panics if the health mutex is poisoned.
    pub fn set_announced_id(&self, idx: usize, id: &str) {
        let mut h = self.replicas[idx].health.lock().expect("health mutex");
        if h.announced_id.as_deref() != Some(id) {
            h.announced_id = Some(id.to_string());
        }
    }

    /// A snapshot of the current ring.
    ///
    /// # Panics
    ///
    /// Panics if the ring mutex is poisoned.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.ring.lock().expect("ring mutex").clone()
    }

    /// Record one health observation (a probe result or a request
    /// attempt's connect-level outcome) and rebuild the ring if the
    /// replica crossed a threshold.
    ///
    /// # Panics
    ///
    /// Panics if the health mutex is poisoned.
    pub fn observe(&self, idx: usize, ok: bool) -> Option<Transition> {
        let transition = {
            let mut h = self.replicas[idx].health.lock().expect("health mutex");
            if ok {
                h.consecutive_ok += 1;
                h.consecutive_fail = 0;
                if !h.up && h.consecutive_ok >= self.policy.readmit_after {
                    h.up = true;
                    Some(Transition::Readmitted)
                } else {
                    None
                }
            } else {
                h.consecutive_fail += 1;
                h.consecutive_ok = 0;
                if h.up && h.consecutive_fail >= self.policy.fail_after {
                    h.up = false;
                    Some(Transition::Ejected)
                } else {
                    None
                }
            }
        };
        if transition.is_some() {
            self.rebuild_ring();
            self.hash_moves_total.fetch_add(1, Ordering::Relaxed);
        }
        transition
    }

    fn rebuild_ring(&self) {
        let members: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| self.is_up(i))
            .collect();
        *self.ring.lock().expect("ring mutex") = Ring::build(&self.labels, &members);
    }

    /// Check out a connection to `idx`, reusing an idle keep-alive
    /// socket when one exists, dialing a new one otherwise, and
    /// waiting (bounded) when the pool is at capacity.
    ///
    /// # Errors
    ///
    /// Fails on connect failure or when the pool stays exhausted past
    /// the upstream timeout — both are failover signals for the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics if the pool mutex is poisoned.
    pub fn checkout(&self, idx: usize) -> io::Result<PooledConn<'_>> {
        let replica = &self.replicas[idx];
        let mut pool = replica.pool.lock().expect("pool mutex");
        self.reap_pool(&mut pool);
        loop {
            if let Some(idle) = pool.idle.pop() {
                pool.outstanding += 1;
                return Ok(PooledConn {
                    set: self,
                    idx,
                    conn: Some(idle.conn),
                    reused: true,
                });
            }
            if pool.idle.len() + pool.outstanding < self.policy.pool_cap {
                pool.outstanding += 1;
                drop(pool);
                // Dial outside the lock; a slow connect must not block
                // the other slots.
                return match ClientConn::connect_phased(
                    &replica.addr,
                    self.policy.upstream_timeout,
                    PhaseTimeouts {
                        connect: self.policy.connect_timeout,
                        first_byte: self.policy.first_byte_timeout,
                        inter_byte: self.policy.idle_timeout,
                    },
                ) {
                    Ok(conn) => Ok(PooledConn {
                        set: self,
                        idx,
                        conn: Some(conn),
                        reused: false,
                    }),
                    Err(e) => {
                        self.release_slot(idx);
                        Err(e)
                    }
                };
            }
            let (guard, timeout) = replica
                .pool_ready
                .wait_timeout(pool, self.policy.upstream_timeout)
                .expect("pool mutex");
            pool = guard;
            if timeout.timed_out()
                && pool.idle.is_empty()
                && pool.outstanding >= self.policy.pool_cap
            {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!("connection pool to {} exhausted", replica.addr),
                ));
            }
        }
    }

    /// Drop idle entries older than `pool_idle` from a locked pool.
    fn reap_pool(&self, pool: &mut Pool) {
        if self.policy.pool_idle.is_zero() {
            return;
        }
        let before = pool.idle.len();
        let cutoff = self.policy.pool_idle;
        pool.idle.retain(|e| e.since.elapsed() <= cutoff);
        let reaped = before - pool.idle.len();
        if reaped > 0 {
            self.pool_reaped_total
                .fetch_add(reaped as u64, Ordering::Relaxed);
        }
    }

    /// Proactively retire pooled connections idle past `pool_idle`,
    /// across every replica. The prober calls this each pass so stale
    /// keep-alives die between requests, not on the next request's
    /// critical path (the stale-socket redial in the proxy loop only
    /// covers a reused socket failing before its first byte).
    ///
    /// # Panics
    ///
    /// Panics if a pool mutex is poisoned.
    pub fn reap_idle(&self) {
        for r in &self.replicas {
            let mut pool = r.pool.lock().expect("pool mutex");
            self.reap_pool(&mut pool);
        }
    }

    fn checkin(&self, idx: usize, conn: ClientConn) {
        let replica = &self.replicas[idx];
        let mut pool = replica.pool.lock().expect("pool mutex");
        pool.outstanding = pool.outstanding.saturating_sub(1);
        if pool.idle.len() < self.policy.pool_cap {
            pool.idle.push(IdleConn {
                conn,
                since: Instant::now(),
            });
        }
        drop(pool);
        replica.pool_ready.notify_one();
    }

    fn release_slot(&self, idx: usize) {
        let replica = &self.replicas[idx];
        let mut pool = replica.pool.lock().expect("pool mutex");
        pool.outstanding = pool.outstanding.saturating_sub(1);
        drop(pool);
        replica.pool_ready.notify_one();
    }

    /// Drop all idle pooled connections (shutdown hygiene).
    ///
    /// # Panics
    ///
    /// Panics if a pool mutex is poisoned.
    pub fn drain_pools(&self) {
        for r in &self.replicas {
            r.pool.lock().expect("pool mutex").idle.clear();
        }
    }

    /// May a request attempt be sent to this replica right now?
    ///
    /// Closed always allows. Open allows nothing until the cooldown
    /// lapses, then transitions to half-open and admits exactly one
    /// probe request; further attempts fast-fail until that probe's
    /// outcome is recorded via [`ReplicaSet::breaker_record`].
    ///
    /// # Panics
    ///
    /// Panics if the breaker mutex is poisoned.
    pub fn breaker_allow(&self, idx: usize) -> bool {
        let mut b = self.replicas[idx].breaker.lock().expect("breaker mutex");
        match b.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let cooled = b
                    .opened_at
                    .is_none_or(|at| at.elapsed() >= self.policy.breaker_cooldown);
                if cooled {
                    b.transition(BreakerState::HalfOpen);
                    b.probing = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if b.probing {
                    false
                } else {
                    b.probing = true;
                    true
                }
            }
        }
    }

    /// Record the transport-level outcome of an attempt admitted by
    /// [`ReplicaSet::breaker_allow`]. Any answered request (whatever
    /// its status code) is a transport success.
    ///
    /// # Panics
    ///
    /// Panics if the breaker mutex is poisoned.
    pub fn breaker_record(&self, idx: usize, ok: bool) {
        let mut b = self.replicas[idx].breaker.lock().expect("breaker mutex");
        b.probing = false;
        if ok {
            b.consecutive_fail = 0;
            if b.state != BreakerState::Closed {
                b.transition(BreakerState::Closed);
            }
            return;
        }
        match b.state {
            // A failed half-open probe reopens immediately.
            BreakerState::HalfOpen => {
                b.consecutive_fail = 0;
                b.transition(BreakerState::Open);
            }
            BreakerState::Closed => {
                b.consecutive_fail += 1;
                if b.consecutive_fail >= self.policy.breaker_threshold {
                    b.consecutive_fail = 0;
                    b.transition(BreakerState::Open);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// The replica's current breaker state (the `/metrics` gauge).
    ///
    /// # Panics
    ///
    /// Panics if the breaker mutex is poisoned.
    #[must_use]
    pub fn breaker_state(&self, idx: usize) -> BreakerState {
        self.replicas[idx]
            .breaker
            .lock()
            .expect("breaker mutex")
            .state
    }

    /// Transition counts into (open, half-open, closed).
    ///
    /// # Panics
    ///
    /// Panics if the breaker mutex is poisoned.
    #[must_use]
    pub fn breaker_transitions(&self, idx: usize) -> [u64; 3] {
        self.replicas[idx]
            .breaker
            .lock()
            .expect("breaker mutex")
            .transitions
    }
}

/// A token-bucket retry budget shared by every request: each incoming
/// request deposits a fraction of a token, each retry withdraws a
/// whole one. Under a healthy fleet the bucket sits full and every
/// failover is allowed; under a gray failure (every request failing)
/// retries are capped at `deposit` per request, so the fleet sees at
/// most `1 + deposit` load amplification instead of a retry storm.
pub struct RetryBudget {
    tokens: Mutex<f64>,
    cap: f64,
    deposit: f64,
}

impl RetryBudget {
    /// A budget holding at most `cap` tokens (starts full), earning
    /// `deposit` per request.
    #[must_use]
    pub fn new(cap: f64, deposit: f64) -> RetryBudget {
        RetryBudget {
            tokens: Mutex::new(cap),
            cap,
            deposit,
        }
    }

    /// Credit one incoming request.
    ///
    /// # Panics
    ///
    /// Panics if the token mutex is poisoned.
    pub fn earn(&self) {
        let mut t = self.tokens.lock().expect("budget mutex");
        *t = (*t + self.deposit).min(self.cap);
    }

    /// Try to spend one token for a retry.
    ///
    /// # Panics
    ///
    /// Panics if the token mutex is poisoned.
    pub fn try_withdraw(&self) -> bool {
        let mut t = self.tokens.lock().expect("budget mutex");
        if *t >= 1.0 {
            *t -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (a `/metrics` gauge).
    ///
    /// # Panics
    ///
    /// Panics if the token mutex is poisoned.
    #[must_use]
    pub fn tokens(&self) -> f64 {
        *self.tokens.lock().expect("budget mutex")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize) -> ReplicaSet {
        let addrs = (0..n).map(|i| format!("127.0.0.1:91{i:02}")).collect();
        ReplicaSet::new(
            addrs,
            UpstreamPolicy {
                pool_cap: 2,
                fail_after: 2,
                readmit_after: 2,
                upstream_timeout: Duration::from_millis(100),
                connect_timeout: Duration::from_millis(100),
                ..UpstreamPolicy::default()
            },
        )
    }

    #[test]
    fn ejection_needs_consecutive_failures_and_readmission_consecutive_successes() {
        let s = set(2);
        assert_eq!(s.ready_count(), 2);
        assert_eq!(s.observe(0, false), None, "one failure must not eject");
        assert_eq!(s.observe(0, true), None, "success resets the streak");
        assert_eq!(s.observe(0, false), None);
        assert_eq!(s.observe(0, false), Some(Transition::Ejected));
        assert!(!s.is_up(0));
        assert_eq!(s.ready_count(), 1);
        assert_eq!(s.hash_moves_total.load(Ordering::Relaxed), 1);
        // Already down: more failures are not new transitions.
        assert_eq!(s.observe(0, false), None);
        assert_eq!(s.observe(0, true), None, "one success must not readmit");
        assert_eq!(s.observe(0, true), Some(Transition::Readmitted));
        assert!(s.is_up(0));
        assert_eq!(s.hash_moves_total.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn ring_tracks_membership() {
        let s = set(2);
        let full = s.ring();
        s.observe(0, false);
        s.observe(0, false);
        let half = s.ring();
        for k in 0..200u64 {
            let key = dsp_trace::fnv1a(&k.to_le_bytes());
            assert_eq!(half.route(key), Some(1));
            assert!(full.route(key).is_some());
        }
        s.observe(1, false);
        s.observe(1, false);
        assert!(s.ring().is_empty());
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn retry_budget_caps_amplification() {
        let b = RetryBudget::new(2.0, 0.5);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "empty bucket must refuse");
        b.earn();
        assert!(!b.try_withdraw(), "half a token is not a retry");
        b.earn();
        assert!(b.try_withdraw());
        for _ in 0..100 {
            b.earn();
        }
        assert!((b.tokens() - 2.0).abs() < 1e-9, "bucket must cap at 2");
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_half_open() {
        let addrs = vec!["127.0.0.1:9150".to_string()];
        let s = ReplicaSet::new(
            addrs,
            UpstreamPolicy {
                breaker_threshold: 3,
                breaker_cooldown: Duration::from_millis(20),
                ..UpstreamPolicy::default()
            },
        );
        assert_eq!(s.breaker_state(0), BreakerState::Closed);
        for _ in 0..2 {
            assert!(s.breaker_allow(0));
            s.breaker_record(0, false);
        }
        assert_eq!(s.breaker_state(0), BreakerState::Closed);
        assert!(s.breaker_allow(0));
        s.breaker_record(0, false);
        assert_eq!(s.breaker_state(0), BreakerState::Open);
        // Open: fast-fail until the cooldown lapses.
        assert!(!s.breaker_allow(0));
        std::thread::sleep(Duration::from_millis(25));
        // One half-open probe only; concurrent attempts fast-fail.
        assert!(s.breaker_allow(0));
        assert_eq!(s.breaker_state(0), BreakerState::HalfOpen);
        assert!(!s.breaker_allow(0), "only one probe may be in flight");
        // A failed probe reopens…
        s.breaker_record(0, false);
        assert_eq!(s.breaker_state(0), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        // …a successful one closes.
        assert!(s.breaker_allow(0));
        s.breaker_record(0, true);
        assert_eq!(s.breaker_state(0), BreakerState::Closed);
        assert!(s.breaker_allow(0));
        let [open, half, closed] = s.breaker_transitions(0);
        assert_eq!((open, half, closed), (2, 2, 1));
    }

    #[test]
    fn a_success_resets_the_breaker_failure_streak() {
        let s = set(1);
        for _ in 0..3 {
            assert!(s.breaker_allow(0));
            s.breaker_record(0, false);
            assert!(s.breaker_allow(0));
            s.breaker_record(0, true);
        }
        assert_eq!(s.breaker_state(0), BreakerState::Closed);
    }

    #[test]
    fn pool_bounds_outstanding_connections() {
        // No listener at this address: checkout dials and fails, but
        // the slot accounting must survive the error path.
        let s = set(1);
        for _ in 0..5 {
            assert!(s.checkout(0).is_err());
        }
        assert_eq!(s.replicas[0].pool.lock().unwrap().outstanding, 0);
    }
}
