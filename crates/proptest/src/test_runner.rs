//! Test-runner types: configuration, failure reporting, and the
//! deterministic generator behind every strategy.

/// Per-block configuration, accepted via `#![proptest_config(..)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to generate per property.
    pub cases: u32,
    /// Accepted for API compatibility; this harness does not shrink.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// A failed (or rejected) test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Fail the current case with the given message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError(message.into())
    }

    /// Alias of [`TestCaseError::fail`] matching proptest's `reject`.
    pub fn reject(message: impl Into<String>) -> TestCaseError {
        TestCaseError::fail(message)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Deterministic splitmix64 generator.
///
/// Each property seeds from its own name so a failure reproduces on
/// the next run; `DUALBANK_PROPTEST_SEED` perturbs every property at
/// once for exploratory soak runs.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from raw state.
    #[must_use]
    pub fn from_seed(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Seed deterministically from a test name (plus the optional
    /// `DUALBANK_PROPTEST_SEED` environment override).
    #[must_use]
    pub fn for_test(name: &str) -> TestRng {
        let h = dsp_trace::fnv1a(name.as_bytes());
        let extra = std::env::var("DUALBANK_PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        TestRng::from_seed(h ^ extra)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform draw from a half-open `usize` range.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        if range.start >= range.end {
            return range.start;
        }
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::for_test("alpha");
        let mut b = TestRng::for_test("alpha");
        let mut c = TestRng::for_test("beta");
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
            let v = rng.usize_in(5..9);
            assert!((5..9).contains(&v));
        }
    }
}
