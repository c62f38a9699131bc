//! Statistics collectors used by the experiment harnesses.
//!
//! Two collectors cover everything the evaluation needs:
//!
//! - [`Summary`]: running count/mean/min/max plus exact quantiles (it keeps
//!   the samples; experiment sample counts are modest).
//! - [`Histogram`]: log-bucketed latency histogram for cheap, allocation-free
//!   accumulation on hot paths.

use crate::time::Nanos;

/// A running summary that retains samples for exact quantile queries.
///
/// # Examples
///
/// ```
/// use simcore::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.quantile(0.5), 2.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Returns the number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns the arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Returns the minimum sample, or 0.0 with no samples.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Returns the maximum sample, or 0.0 with no samples.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Returns the `q`-quantile (0.0..=1.0) using the nearest-rank method,
    /// or 0.0 with no samples. Read-only: selection runs on a scratch
    /// copy, so reporting code does not need a `mut` summary.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        let mut scratch = self.samples.clone();
        let (_, v, _) =
            scratch.select_nth_unstable_by(rank - 1, |a, b| a.partial_cmp(b).expect("NaN sample"));
        *v
    }
}

/// A log-bucketed histogram of durations.
///
/// Buckets are powers of two in nanoseconds: bucket `i` covers
/// `[2^i, 2^(i+1))` ns, with bucket 0 covering `[0, 2)` ns.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    total: Nanos,
    max: Nanos,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            total: Nanos::ZERO,
            max: Nanos::ZERO,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration.
    pub fn record(&mut self, v: Nanos) {
        let idx = 63u32.saturating_sub(v.as_nanos().leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the mean duration, or zero with no samples.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            self.total / self.count
        }
    }

    /// Returns the maximum recorded duration.
    pub fn max(&self) -> Nanos {
        self.max
    }

    /// Returns an upper bound on the `q`-quantile (the top edge of the
    /// bucket containing the `q`-th ranked sample).
    pub fn quantile_upper_bound(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let top = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return Nanos::from_nanos(top);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.quantile(0.25), 1.0);
    }

    #[test]
    fn summary_tail_quantiles_nearest_rank() {
        // 1000 distinct samples: nearest-rank p50/p99/p999 land on
        // predictable order statistics, and p999 > p99 once the tail
        // has enough resolution.
        let mut s = Summary::new();
        for v in (1..=1000u64).rev() {
            s.record(v as f64);
        }
        assert_eq!(s.quantile(0.5), 500.0);
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.quantile(0.999), 999.0);
        assert!(s.quantile(0.999) > s.quantile(0.99));
        // With a single sample every quantile collapses to it.
        let mut one = Summary::new();
        one.record(42.0);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(one.quantile(q), 42.0);
        }
    }

    #[test]
    fn histogram_mean_and_max() {
        let mut h = Histogram::new();
        h.record(Nanos::from_micros(10));
        h.record(Nanos::from_micros(30));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Nanos::from_micros(20));
        assert_eq!(h.max(), Nanos::from_micros(30));
    }

    #[test]
    fn histogram_quantile_bound_contains_samples() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(Nanos::from_micros(i));
        }
        let p99 = h.quantile_upper_bound(0.99);
        assert!(p99 >= Nanos::from_micros(99));
        let p50 = h.quantile_upper_bound(0.5);
        assert!(p50 >= Nanos::from_micros(50));
        assert!(p50 <= Nanos::from_micros(128));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.quantile_upper_bound(0.5), Nanos::ZERO);
    }
}
