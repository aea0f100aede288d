//! Order statistics with an explicit sample-support rule.
//!
//! A tail percentile is only reported when the sample backs it: the
//! percentile used is the highest one (up to the one asked for) that has
//! at least [`MIN_BEYOND`] samples strictly beyond it. Every reported
//! percentile carries its sample count and the percentile actually used.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when the requested one is not
/// supported by the sample.
const LADDER: [f64; 7] = [99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// A percentile read from a sample, with what backs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at the percentile (`f64::INFINITY` when a failed
    /// request reaches it: failures count as missing any limit).
    pub value: f64,
    /// The percentile actually used (≤ the one asked for).
    pub pct: f64,
    /// Samples behind it.
    pub n: usize,
}

/// Nearest-rank index of percentile `p` (0..=100) in a sample of `n`.
/// The small offset keeps `p·n/100` that lands on a whole number in
/// exact arithmetic (99.9 % of 10 000) from rounding up past it.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest percentile ≤ `wanted` with at least [`MIN_BEYOND`]
/// samples beyond it (the median when even that is unsupported).
pub fn supported(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
        .min(wanted)
}

/// Sorts a sample ascending (NaN-free input; infinities sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `wanted` of an ascending sample under the support rule.
pub fn pct(sorted: &[f64], wanted: f64) -> Pct {
    let n = sorted.len();
    if n == 0 {
        return Pct {
            value: f64::NAN,
            pct: wanted,
            n,
        };
    }
    let p = if wanted <= 50.0 {
        wanted
    } else {
        supported(n, wanted)
    };
    Pct {
        value: sorted[rank(n, p)],
        pct: p,
        n,
    }
}

/// Median of an unsorted sample (mean of the middle pair for even n).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // Ten samples beyond the nearest-rank p99 need n ≥ 1000; below
        // that the highest supported step of the ladder is used.
        assert_eq!(beyond(1100, 99.0), 11);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(supported(1000, 99.0), 99.0);
        assert_eq!(supported(999, 99.0), 97.5);
        assert_eq!(supported(400, 99.0), 97.5);
        assert_eq!(supported(399, 99.0), 95.0);
        assert_eq!(supported(10_000, 99.9), 99.9);
        assert_eq!(supported(5, 99.0), 50.0);
    }

    #[test]
    fn pct_reports_support_and_count() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = pct(&s, 99.0);
        assert_eq!((p.value, p.pct, p.n), (990.0, 99.0, 1000));
        let p = pct(&s[..200], 99.0);
        assert_eq!((p.value, p.pct, p.n), (190.0, 95.0, 200));
        assert_eq!(pct(&s, 50.0).value, 500.0);
    }

    #[test]
    fn failures_reach_the_tail_as_infinity() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let s = sorted(v);
        assert!(pct(&s, 99.0).value.is_infinite());
        assert!(pct(&s, 50.0).value.is_finite());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
