//! Percentile estimation with linear interpolation.
//!
//! The paper's grouping step (§II-A2) builds per-server feature vectors from
//! the {5, 25, 50, 75, 95}th percentiles of CPU utilisation, and uses the
//! "industry best practice of 5th percentile to represent the minimum and the
//! 95th percentile to represent the maximum" to eliminate outliers.

use crate::StatsError;

/// The percentile ranks used by the paper's server feature vector.
pub const FEATURE_PERCENTILES: [f64; 5] = [5.0, 25.0, 50.0, 75.0, 95.0];

/// Computes the `p`-th percentile (0..=100) of unsorted data.
///
/// Uses the common linear-interpolation definition (NIST R-7): the
/// percentile rank maps to position `p/100 * (n-1)` in the sorted data.
///
/// # Errors
///
/// - [`StatsError::EmptyInput`] if `values` is empty.
/// - [`StatsError::InvalidParameter`] if `p` is outside `0..=100`.
/// - [`StatsError::NonFinite`] if any value is NaN or infinite.
///
/// # Example
///
/// ```
/// use headroom_stats::percentile::percentile;
///
/// # fn main() -> Result<(), headroom_stats::StatsError> {
/// let data = [15.0, 20.0, 35.0, 40.0, 50.0];
/// assert_eq!(percentile(&data, 50.0)?, 35.0);
/// assert_eq!(percentile(&data, 100.0)?, 50.0);
/// # Ok(())
/// # }
/// ```
pub fn percentile(values: &[f64], p: f64) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter("percentile must be within 0..=100"));
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
    Ok(percentile_of_sorted(&sorted, p))
}

/// Computes the `p`-th percentile of data that is **already sorted ascending**.
///
/// Skips validation and sorting; used in hot loops over pre-sorted windows.
/// Returns the last element for `p = 100`.
///
/// # Panics
///
/// Panics in debug builds if `sorted` is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    percentile_of_sorted_top(sorted, sorted.len(), p)
}

/// The `p`-th percentile of an `n`-value window of which only the largest
/// values are held: `top` is the ascending suffix `sorted[n - top.len()..]`
/// of the window's sorted values. The arithmetic is exactly
/// [`percentile_of_sorted`]'s (which is this function with `top` the whole
/// window), so the result is bit-identical whenever `top` holds at least
/// [`top_values_needed`]`(n, p)` values.
///
/// # Panics
///
/// Panics in debug builds if `n` is zero or `top` is too short (or longer
/// than `n`); release builds index out of bounds in the second case.
pub fn percentile_of_sorted_top(top: &[f64], n: usize, p: f64) -> f64 {
    debug_assert!(n > 0, "percentile of an empty window");
    debug_assert!(
        top.len() <= n && top.len() >= top_values_needed(n, p),
        "{} held values cannot answer p{p} of {n}",
        top.len()
    );
    let offset = n - top.len();
    if n == 1 {
        return top[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        top[lo - offset]
    } else {
        let frac = rank - lo as f64;
        top[lo - offset] * (1.0 - frac) + top[hi - offset] * frac
    }
}

/// How many of an `n`-value window's largest values the R-7 `p`-th
/// percentile reads: `n - floor(p/100 · (n - 1))`, computed with
/// [`percentile_of_sorted`]'s own rank expression, or `n` when `n ≤ 1`.
/// Non-decreasing in `n`.
pub fn top_values_needed(n: usize, p: f64) -> usize {
    if n <= 1 {
        return n;
    }
    n - (p / 100.0 * (n - 1) as f64).floor() as usize
}

/// The standard five-point percentile profile used as a grouping feature.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PercentileProfile {
    /// 5th percentile ("minimum" by industry practice).
    pub p5: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile ("maximum" by industry practice).
    pub p95: f64,
}

impl PercentileProfile {
    /// Computes the profile from unsorted data.
    ///
    /// # Errors
    ///
    /// Same as [`percentile`].
    pub fn from_values(values: &[f64]) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite);
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
        Ok(PercentileProfile {
            p5: percentile_of_sorted(&sorted, 5.0),
            p25: percentile_of_sorted(&sorted, 25.0),
            p50: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            p95: percentile_of_sorted(&sorted, 95.0),
        })
    }

    /// Returns the profile as the 5-element feature array `[p5, p25, p50, p75, p95]`.
    pub fn as_features(&self) -> [f64; 5] {
        [self.p5, self.p25, self.p50, self.p75, self.p95]
    }

    /// Spread between the 95th and 5th percentile — the paper's "tightly
    /// bound CPU utilisation range" test uses this band.
    pub fn band(&self) -> f64 {
        self.p95 - self.p5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_set() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0).unwrap(), 2.0);
    }

    #[test]
    fn median_of_even_set_interpolates() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0).unwrap(), 2.5);
    }

    #[test]
    fn extremes() {
        let data = [5.0, 1.0, 9.0];
        assert_eq!(percentile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&data, 100.0).unwrap(), 9.0);
    }

    #[test]
    fn p95_interpolation() {
        // 0..=100 → p95 should be 95.0 exactly under R-7.
        let data: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert!((percentile(&data, 95.0).unwrap() - 95.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(percentile(&[], 50.0).unwrap_err(), StatsError::EmptyInput);
        assert!(matches!(percentile(&[1.0], 101.0).unwrap_err(), StatsError::InvalidParameter(_)));
        assert_eq!(percentile(&[f64::NAN], 50.0).unwrap_err(), StatsError::NonFinite);
    }

    #[test]
    fn single_value_profile() {
        let p = PercentileProfile::from_values(&[7.0]).unwrap();
        assert_eq!(p.as_features(), [7.0; 5]);
        assert_eq!(p.band(), 0.0);
    }

    #[test]
    fn profile_is_monotone() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let p = PercentileProfile::from_values(&values).unwrap();
        assert!(p.p5 <= p.p25 && p.p25 <= p.p50 && p.p50 <= p.p75 && p.p75 <= p.p95);
        assert!(p.band() > 0.0);
    }

    #[test]
    fn profile_rejects_empty() {
        assert_eq!(PercentileProfile::from_values(&[]).unwrap_err(), StatsError::EmptyInput);
    }

    #[test]
    fn unsorted_input_handled() {
        let data = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&data, 50.0).unwrap(), 30.0);
    }

    #[test]
    fn top_suffix_answers_like_the_whole_window() {
        // The paper's daily window: the p99 of 1440 values reads the top 16.
        assert_eq!(top_values_needed(1440, 99.0), 16);
        assert_eq!(top_values_needed(0, 99.0), 0);
        assert_eq!(top_values_needed(1, 99.0), 1);
        assert_eq!(top_values_needed(2, 99.0), 2);
        for n in 1..600usize {
            let mut sorted: Vec<f64> = (0..n).map(|i| ((i * 7919) % 613) as f64 * 0.37).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
                let need = top_values_needed(n, p);
                assert!(need >= 1 && need <= n);
                assert!(top_values_needed(n + 1, p) >= need, "non-decreasing in n");
                let whole = percentile_of_sorted(&sorted, p);
                let top = percentile_of_sorted_top(&sorted[n - need..], n, p);
                assert_eq!(top.to_bits(), whole.to_bits(), "n={n} p={p}");
            }
        }
    }
}
