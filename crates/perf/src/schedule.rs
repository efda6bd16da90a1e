//! Seeded request streams for the serving workloads: what each request
//! asks for, and — for the open loop — when it is due.

use std::time::Duration;

use dsp_gen::rng::Rng;

/// One request in every this many is `/sweep` of one benchmark; the
/// rest are `/compile` of one (benchmark, strategy) cell.
pub const SWEEP_EVERY: usize = 20;

/// One request of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /compile` of cell `i` (bench-major index into the suite
    /// × strategy matrix).
    Compile(usize),
    /// `POST /sweep {"bench": b}` of benchmark `b`: all strategies.
    Sweep(usize),
}

/// One open-loop arrival: `op` is due `at_us` microseconds after the
/// phase starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, microseconds from the phase start.
    pub at_us: u64,
    /// What is requested.
    pub op: Op,
}

/// An independent random stream for one use of the run seed, so adding
/// a draw in one phase never shifts another phase's stream.
#[must_use]
pub fn stream(seed: u64, tag: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag).split()
}

/// A shuffled deck of `0..n`, reshuffled each time it runs out.
struct Deck {
    cards: Vec<usize>,
    dealt: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            cards: (0..n).collect(),
            dealt: n,
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.dealt == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

/// The seeded request mix. Requests are dealt from shuffled decks —
/// one sweep in every [`SWEEP_EVERY`], every cell once per pass over
/// the cells, every benchmark once per pass over the sweeps — so the
/// order changes with the seed but any stretch of the stream asks for
/// the same amount of work. Independent draws would let a seed that
/// happens to sweep the heaviest benchmarks more often move the
/// latency the benchmark reports.
pub struct Mix {
    rng: Rng,
    slots: Deck,
    cells: Deck,
    benches: Deck,
}

impl Mix {
    /// A mix over `cells` compile cells and `benches` benchmarks.
    #[must_use]
    pub fn new(rng: Rng, cells: usize, benches: usize) -> Mix {
        Mix {
            rng,
            slots: Deck::new(SWEEP_EVERY),
            cells: Deck::new(cells),
            benches: Deck::new(benches),
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if self.slots.deal(&mut self.rng) == 0 {
            Op::Sweep(self.benches.deal(&mut self.rng))
        } else {
            Op::Compile(self.cells.deal(&mut self.rng))
        }
    }
}

/// A Poisson arrival stream at `rate_per_s` over `duration`, requests
/// drawn from `mix`: independent users, so each gap is exponential and
/// no arrival waits for an earlier reply. Identical for identical
/// arguments, byte for byte.
#[must_use]
pub fn poisson(rng: &mut Rng, rate_per_s: f64, duration: Duration, mix: &mut Mix) -> Vec<Arrival> {
    let end = duration.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        // Uniform in (0, 1): 53 random bits, offset by half a step so
        // the logarithm never sees zero.
        #[allow(clippy::cast_precision_loss)]
        let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() / rate_per_s;
        if t >= end {
            return out;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at_us = (t * 1e6).round() as u64;
        out.push(Arrival {
            at_us,
            op: mix.next_op(),
        });
    }
}
