//! Seeded fault schedules.
//!
//! A [`Schedule`] maps a connection index to a [`Fault`] purely as a
//! function of `(seed, scenario, index)`. The proxy accepts connections
//! concurrently, so determinism cannot rely on a shared RNG stream
//! being consumed in order: every connection derives its own generator
//! from the triple instead, making the fault sequence reproducible no
//! matter how threads interleave.

use std::time::Duration;

use dsp_trace::fnv1a;

/// SplitMix64: the same tiny generator `dsp-gen` uses, copied rather
/// than imported because this crate sits *under* the crates it tests.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[lo, hi]` inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// One concrete fault, fully parameterized, applied to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward untouched.
    None,
    /// Close the client socket without dialing upstream.
    RefuseConnect,
    /// Accept, read a little, then drop with unread data pending so
    /// the kernel answers the peer with RST instead of FIN.
    AcceptThenReset,
    /// Forward, but hold the first response byte for this long.
    DelayFirstByte(Duration),
    /// Forward the response `bytes` bytes at a time with `interval`
    /// pauses between writes (slow but always progressing).
    Trickle { bytes: usize, interval: Duration },
    /// Forward exactly `K` response bytes, then close both sides.
    TruncateAfter(u64),
    /// Flip one bit of the response byte at stream offset `K`.
    CorruptByteAt(u64),
    /// Swallow the request, hold the connection silently for this
    /// long, then close without a single response byte.
    Blackhole(Duration),
}

/// Metric labels, one per variant. Order matches [`FAULT_KINDS`].
pub const FAULT_KINDS: [&str; 8] = [
    "none",
    "refuse-connect",
    "reset",
    "delay-first-byte",
    "trickle",
    "truncate",
    "corrupt",
    "blackhole",
];

impl Fault {
    pub fn kind(&self) -> &'static str {
        FAULT_KINDS[self.kind_index()]
    }

    pub fn kind_index(&self) -> usize {
        match self {
            Fault::None => 0,
            Fault::RefuseConnect => 1,
            Fault::AcceptThenReset => 2,
            Fault::DelayFirstByte(_) => 3,
            Fault::Trickle { .. } => 4,
            Fault::TruncateAfter(_) => 5,
            Fault::CorruptByteAt(_) => 6,
            Fault::Blackhole(_) => 7,
        }
    }
}

/// A named family of faults; `mixed` draws uniformly from all seven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Clean,
    RefuseConnect,
    Reset,
    Delay,
    Trickle,
    Truncate,
    Corrupt,
    Blackhole,
    Mixed,
}

pub const SCENARIOS: [Scenario; 9] = [
    Scenario::Clean,
    Scenario::RefuseConnect,
    Scenario::Reset,
    Scenario::Delay,
    Scenario::Trickle,
    Scenario::Truncate,
    Scenario::Corrupt,
    Scenario::Blackhole,
    Scenario::Mixed,
];

impl Scenario {
    pub fn parse(name: &str) -> Option<Scenario> {
        SCENARIOS.iter().copied().find(|s| s.label() == name)
    }

    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::RefuseConnect => "refuse-connect",
            Scenario::Reset => "reset",
            Scenario::Delay => "delay",
            Scenario::Trickle => "trickle",
            Scenario::Truncate => "truncate",
            Scenario::Corrupt => "corrupt",
            Scenario::Blackhole => "blackhole",
            Scenario::Mixed => "mixed",
        }
    }
}

/// The seeded fault schedule: `fault_for(i)` is a pure function of the
/// constructor arguments and `i`, so re-running a scenario with the
/// same seed reproduces the same fault sequence byte-for-byte.
#[derive(Debug, Clone)]
pub struct Schedule {
    scenario: Scenario,
    seed: u64,
    /// Percentage (0..=100) of connections that draw a fault at all.
    fault_pct: u64,
    /// Upper bound on the healthy response prefix (in bytes) forwarded
    /// before a trickle / reset / blackhole fault engages; each faulted
    /// connection draws its onset uniformly from `1..=max`. Zero (the
    /// default) keeps the historical behavior: faults bite from the
    /// first response byte.
    onset_after_bytes: u64,
}

impl Schedule {
    pub fn new(scenario: Scenario, seed: u64, fault_pct: u32) -> Schedule {
        Schedule {
            scenario,
            seed,
            fault_pct: u64::from(fault_pct.min(100)),
            onset_after_bytes: 0,
        }
    }

    /// Configure mid-stream fault onset (see [`Schedule::plan_for`]).
    pub fn with_onset_after_bytes(mut self, max_bytes: u64) -> Schedule {
        self.onset_after_bytes = max_bytes;
        self
    }

    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn fault_pct(&self) -> u64 {
        self.fault_pct
    }

    pub fn onset_after_bytes(&self) -> u64 {
        self.onset_after_bytes
    }

    pub fn fault_for(&self, conn_index: u64) -> Fault {
        self.plan_for(conn_index).0
    }

    /// The fault for `conn_index` plus its onset: how many healthy
    /// response bytes pass through before the fault engages. Onset is
    /// drawn *after* the fault's own parameters from the same
    /// per-connection generator, so enabling `--onset-after-bytes`
    /// changes when faults strike but never which faults are drawn.
    /// Onset 0 means the fault applies from the first byte.
    pub fn plan_for(&self, conn_index: u64) -> (Fault, u64) {
        let mix = self
            .seed
            // The scenario name is folded in so two scenarios with the
            // same `--seed` still draw distinct streams.
            .wrapping_add(fnv1a(self.scenario.label().as_bytes()))
            .wrapping_add(conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = Rng::new(mix);
        if self.scenario == Scenario::Clean || !rng.chance(self.fault_pct, 100) {
            return (Fault::None, 0);
        }
        let scenario = match self.scenario {
            Scenario::Mixed => SCENARIOS[1 + rng.below(7) as usize],
            s => s,
        };
        let fault = match scenario {
            Scenario::Clean | Scenario::Mixed => Fault::None,
            Scenario::RefuseConnect => Fault::RefuseConnect,
            Scenario::Reset => Fault::AcceptThenReset,
            Scenario::Delay => Fault::DelayFirstByte(Duration::from_millis(rng.range(25, 150))),
            // Fast enough that probe bodies still arrive well inside
            // any sane first-byte timeout, slow enough to exercise the
            // many-small-reads path: trickle tests that slow-but-live
            // responses *complete* rather than trip idle timeouts.
            Scenario::Trickle => Fault::Trickle {
                bytes: rng.range(64, 256) as usize,
                interval: Duration::from_millis(rng.range(1, 5)),
            },
            Scenario::Truncate => Fault::TruncateAfter(rng.range(16, 2048)),
            Scenario::Corrupt => Fault::CorruptByteAt(rng.range(8, 512)),
            Scenario::Blackhole => Fault::Blackhole(Duration::from_millis(rng.range(250, 1500))),
        };
        let onset = match fault {
            Fault::AcceptThenReset | Fault::Trickle { .. } | Fault::Blackhole(_)
                if self.onset_after_bytes > 0 =>
            {
                rng.range(1, self.onset_after_bytes)
            }
            _ => 0,
        };
        (fault, onset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_seed_7_schedule_is_pinned() {
        // The `--seed 7` schedules the smoke tests replay: the first 16
        // draws, absolute, so a changed hash or generator shows here.
        let s = Schedule::new(Scenario::Mixed, 7, 50);
        let drawn: Vec<Fault> = (0..16).map(|i| s.fault_for(i)).collect();
        let ms = Duration::from_millis;
        use Fault::*;
        assert_eq!(
            drawn,
            [
                RefuseConnect,
                AcceptThenReset,
                None,
                Blackhole(ms(693)),
                RefuseConnect,
                CorruptByteAt(186),
                TruncateAfter(392),
                RefuseConnect,
                None,
                None,
                None,
                None,
                None,
                None,
                None,
                Blackhole(ms(1097)),
            ]
        );
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_sequence() {
        for scenario in SCENARIOS {
            let a = Schedule::new(scenario, 42, 50);
            let b = Schedule::new(scenario, 42, 50);
            for i in 0..256 {
                assert_eq!(a.fault_for(i), b.fault_for(i), "{scenario:?} conn {i}");
            }
        }
    }

    #[test]
    fn schedule_is_order_independent() {
        // Determinism must not depend on query order: connection 17
        // draws the same fault whether asked first or last.
        let s = Schedule::new(Scenario::Mixed, 7, 80);
        let forward: Vec<Fault> = (0..64).map(|i| s.fault_for(i)).collect();
        let backward: Vec<Fault> = (0..64).rev().map(|i| s.fault_for(i)).collect();
        let backward: Vec<Fault> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn different_seeds_differ_and_scenarios_stay_in_family() {
        let a = Schedule::new(Scenario::Truncate, 1, 100);
        let b = Schedule::new(Scenario::Truncate, 2, 100);
        let mut differed = false;
        for i in 0..64 {
            let fa = a.fault_for(i);
            assert!(
                matches!(fa, Fault::TruncateAfter(_)),
                "100% truncate schedule drew {fa:?}"
            );
            if fa != b.fault_for(i) {
                differed = true;
            }
        }
        assert!(differed, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn clean_scenario_and_zero_pct_never_fault() {
        let clean = Schedule::new(Scenario::Clean, 3, 100);
        let zero = Schedule::new(Scenario::Mixed, 3, 0);
        for i in 0..128 {
            assert_eq!(clean.fault_for(i), Fault::None);
            assert_eq!(zero.fault_for(i), Fault::None);
        }
    }

    #[test]
    fn mixed_covers_every_fault_kind() {
        let s = Schedule::new(Scenario::Mixed, 11, 100);
        let mut seen = [false; FAULT_KINDS.len()];
        for i in 0..512 {
            seen[s.fault_for(i).kind_index()] = true;
        }
        for (kind, hit) in FAULT_KINDS.iter().zip(seen).skip(1) {
            assert!(hit, "mixed schedule never drew {kind}");
        }
    }

    #[test]
    fn onset_is_drawn_only_when_configured_and_only_for_maskable_kinds() {
        let plain = Schedule::new(Scenario::Mixed, 21, 100);
        let onset = Schedule::new(Scenario::Mixed, 21, 100).with_onset_after_bytes(512);
        for i in 0..256 {
            // Enabling onset must not perturb which fault is drawn.
            assert_eq!(plain.fault_for(i), onset.fault_for(i), "conn {i}");
            let (_, off) = plain.plan_for(i);
            assert_eq!(off, 0, "onset without the flag must be 0 (conn {i})");
            let (fault, off) = onset.plan_for(i);
            match fault {
                Fault::AcceptThenReset | Fault::Trickle { .. } | Fault::Blackhole(_) => {
                    assert!(
                        (1..=512).contains(&off),
                        "conn {i}: {fault:?} onset {off} out of 1..=512"
                    );
                }
                _ => assert_eq!(off, 0, "conn {i}: {fault:?} must not draw an onset"),
            }
        }
    }

    #[test]
    fn onset_draws_are_deterministic() {
        let a = Schedule::new(Scenario::Reset, 5, 100).with_onset_after_bytes(300);
        let b = Schedule::new(Scenario::Reset, 5, 100).with_onset_after_bytes(300);
        let mut distinct = std::collections::HashSet::new();
        for i in 0..64 {
            assert_eq!(a.plan_for(i), b.plan_for(i), "conn {i}");
            distinct.insert(a.plan_for(i).1);
        }
        assert!(
            distinct.len() > 8,
            "onset must be jittered per connection, saw only {distinct:?}"
        );
    }

    #[test]
    fn scenario_labels_round_trip() {
        for s in SCENARIOS {
            assert_eq!(Scenario::parse(s.label()), Some(s));
        }
        assert_eq!(Scenario::parse("nope"), None);
    }
}
