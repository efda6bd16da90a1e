//! Order statistics for timings: medians, the supported tail
//! percentile, and Python-compatible quartiles for spread studies.

/// The median (mean of the two middle values for an even count);
/// `NaN` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`): the value at
/// rank `ceil(p/100 * n)`. `NaN` for no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p) - 1]
}

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest of [`TAIL_CANDIDATES`] that has at least ten samples
/// beyond it among `n` samples — a tail percentile resting on fewer
/// samples is one outlier's value, not a property of the system.
#[must_use]
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
}

/// The value at the supported tail of `samples`, or their median when
/// too few support any tail.
#[must_use]
pub fn tail_value(samples: &[f64]) -> f64 {
    supported_tail(samples.len()).map_or_else(|| median(samples), |p| percentile(samples, p))
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default `exclusive` method)
/// computes them, so a spread study here and one in a notebook agree.
/// Needs at least two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    // Python's integer arithmetic, where `delta` may go negative once
    // `j` is clamped (extrapolation below the first sample).
    let ld = i64::try_from(ld).expect("sample count fits i64");
    let (m, n) = (ld + 1, 4);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let at = usize::try_from(j).expect("clamped to 1..ld");
        #[allow(clippy::cast_precision_loss)]
        let (w_lo, w_hi, n) = ((n - delta) as f64, delta as f64, n as f64);
        *q = (s[at - 1] * w_lo + s[at] * w_hi) / n;
    }
    Some(out)
}

fn rank(n: usize, p: f64) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    // The epsilon keeps float noise in `p * n` (99.9 × 10 000 is not
    // exact) from pushing an integral rank one past itself.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
