//! Host-speed calibration: every time the benchmark reports is scaled
//! to one reference host speed.
//!
//! A shared VM's speed drifts. On the 2-CPU host this benchmark was
//! built on, the same `suite-warm` sweep took anywhere from 100 to
//! 180 ms over five minutes, in stretches that last minutes, so a longer
//! run does not average the drift away and two runs of one commit
//! disagreed by more than any bound worth having. The drift is the
//! host's, not steal time (under 1 %): a fixed loop of the benchmark's
//! own slows at the same moments.
//!
//! So a fixed calibration kernel — the benchmark's own code, which no
//! change to the program can touch — runs on [`LOAD_THREADS`] threads
//! before the first timed section of a run and after every one (each
//! sweep, serving segment and set-up), and every time the run reports
//! is multiplied by [`REFERENCE_MS`] over the median of the run's
//! kernel times. A program that gets 10 % faster reads 10 % faster; a
//! host that runs everything 20 % slower for a minute reads the same.
//!
//! One factor per run, not one per section: a single 12 ms kernel run
//! moves by a quarter when the host preempts it for a few ms, and
//! scaling each 2.5 s serving segment by its neighbouring kernel runs
//! left ten runs' serving medians spread by 11–19 %; the run's median
//! kernel time brought them to 7–9 %. For the batch workloads the two
//! did about equally well.

use std::time::Instant;

use crate::{stats, LOAD_THREADS};

/// Instructions the kernel executes per thread: about 12 ms on the host
/// above.
const STEPS: u64 = 3_000_000;

/// Instructions in the kernel's program, which loops.
const PROGRAM: usize = 64;

/// Words of the kernel's data memory (16 KiB).
const MEMORY: usize = 4096;

/// Kernel time at the reference speed, ms: the median kernel time over
/// the spread study in `README.md`, so scaled times read close to that
/// host's wall times.
pub const REFERENCE_MS: f64 = 12.0;

/// The kernel: a small register machine running a seeded 64-instruction
/// program — a dispatch loop with loads, stores, integer and float
/// arithmetic and data-dependent skips, the shape of the simulator that
/// dominates most workloads. Of the kernels tried (table walks in and
/// out of the last-level cache, allocation churn), this one's slowdowns
/// matched the workloads' most closely, the compile-dominated
/// `gen-cold` included. Returns a checksum so the work cannot be
/// optimised away.
#[inline(never)]
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let program: [[usize; 4]; PROGRAM] = std::array::from_fn(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        #[allow(clippy::cast_possible_truncation)]
        let w = x as usize;
        [w % 14, (w >> 8) % 8, (w >> 16) % 8, (w >> 24) % 8]
    });
    // On the stack: a heap allocation on a fresh thread can open a new
    // malloc arena and move the workload's peak memory.
    let mut mem = [0u32; MEMORY];
    let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0;
    for _ in 0..STEPS {
        let [op, a, b, c] = program[pc];
        match op {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b].wrapping_sub(r[c]),
            2 => r[a] = r[b].wrapping_mul(r[c] | 1),
            3 => r[a] = r[b] ^ r[c],
            4 => r[a] = r[b].rotate_left(r[c] & 31),
            5 => r[a] = mem[r[b] as usize % MEMORY],
            6 => mem[r[b] as usize % MEMORY] = r[c],
            7 => r[a] = u32::from(r[b] < r[c]),
            8 => r[a] = r[b] >> (r[c] & 7),
            9 => {
                r[a] = f32::from_bits(r[b] & 0x3fff_ffff)
                    .mul_add(1.5, 0.25)
                    .to_bits()
            }
            10 => {
                if r[b] & 1 == 0 {
                    pc = (pc + 3) % PROGRAM;
                }
            }
            11 => r[a] = r[b] | r[c],
            12 => r[a] = r[b] & r[c],
            _ => r[a] = r[a].wrapping_add(1),
        }
        pc = (pc + 1) % PROGRAM;
    }
    r.iter().chain(&mem[..8]).map(|&v| u64::from(v)).sum()
}

/// Run the kernel on [`LOAD_THREADS`] threads at once and return the
/// mean of their times, ms.
fn kernel_ms() -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..LOAD_THREADS as u64)
            .map(|k| {
                scope.spawn(move || {
                    let t = Instant::now();
                    std::hint::black_box(kernel(std::hint::black_box(k + 7)));
                    crate::ms(t.elapsed())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("calibration thread panicked"))
            .collect()
    });
    #[allow(clippy::cast_precision_loss)]
    let n = times.len() as f64;
    times.iter().sum::<f64>() / n
}

/// A run's calibration: every kernel time measured so far.
pub struct Clock {
    kernels_ms: Vec<f64>,
}

impl Clock {
    /// Calibrate once, before the first timed section.
    #[must_use]
    pub fn start() -> Clock {
        Clock {
            kernels_ms: vec![kernel_ms()],
        }
    }

    /// Calibrate again, after a timed section.
    pub fn calibrate(&mut self) {
        self.kernels_ms.push(kernel_ms());
    }

    /// The factor that scales a time measured in this run to the
    /// reference speed.
    #[must_use]
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    /// The median kernel time of the run, ms: how fast the host ran.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.kernels_ms)
    }
}
