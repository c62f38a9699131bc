//! Statistics collectors used by the experiment harnesses.
//!
//! Three collectors cover everything the evaluation needs:
//!
//! - [`Summary`]: running count/mean/min/max plus exact quantiles (it keeps
//!   the samples; experiment sample counts are modest).
//! - [`Histogram`]: log-bucketed latency histogram for cheap, allocation-free
//!   accumulation on hot paths.
//! - [`TimeWeighted`]: time-weighted average of a piecewise-constant signal
//!   (e.g. queue depth, CPU share).

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

    /// Returns the population standard deviation, or 0.0 with < 2 samples.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
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

/// A time-weighted average of a piecewise-constant signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the collector
/// integrates `value × dt` between updates.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_time: Nanos,
    last_value: f64,
    integral: f64,
    start: Nanos,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        TimeWeighted {
            last_time: Nanos::ZERO,
            last_value: 0.0,
            integral: 0.0,
            start: Nanos::ZERO,
            started: false,
        }
    }
}

impl TimeWeighted {
    /// Creates a collector with an initial value of zero.
    pub fn new() -> Self {
        TimeWeighted::default()
    }

    /// Updates the signal to `value` at time `now`.
    pub fn set(&mut self, now: Nanos, value: f64) {
        if !self.started {
            self.start = now;
            self.started = true;
        } else {
            let dt = now.saturating_sub(self.last_time);
            self.integral += self.last_value * dt.as_secs_f64();
        }
        self.last_time = now;
        self.last_value = value;
    }

    /// Returns the time-weighted average over `[first set, now]`.
    pub fn average(&self, now: Nanos) -> f64 {
        if !self.started {
            return 0.0;
        }
        let dt = now.saturating_sub(self.last_time);
        let integral = self.integral + self.last_value * dt.as_secs_f64();
        let span = now.saturating_sub(self.start).as_secs_f64();
        if span <= 0.0 {
            self.last_value
        } else {
            integral / span
        }
    }
}

/// A monotonically increasing event counter with a rate helper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter {
    n: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.n += 1;
    }

    /// Adds `k`.
    pub fn add(&mut self, k: u64) {
        self.n += k;
    }

    /// Returns the count.
    pub fn get(self) -> u64 {
        self.n
    }

    /// Returns the count divided by the elapsed time, in events/second.
    pub fn rate_per_sec(self, elapsed: Nanos) -> f64 {
        let s = elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.n as f64 / s
        }
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
    fn summary_stddev() {
        let mut s = Summary::new();
        s.record(2.0);
        assert_eq!(s.stddev(), 0.0);
        s.record(4.0);
        assert!((s.stddev() - 1.0).abs() < 1e-12);
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

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.set(Nanos::from_secs(0), 1.0);
        tw.set(Nanos::from_secs(1), 3.0);
        // 1.0 for 1s, then 3.0 for 1s => average 2.0 at t=2s.
        assert!((tw.average(Nanos::from_secs(2)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_before_start() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.average(Nanos::from_secs(1)), 0.0);
    }

    #[test]
    fn counter_rate() {
        let mut c = Counter::new();
        c.add(500);
        c.incr();
        assert_eq!(c.get(), 501);
        assert!((c.rate_per_sec(Nanos::from_millis(500)) - 1002.0).abs() < 1e-9);
        assert_eq!(c.rate_per_sec(Nanos::ZERO), 0.0);
    }
}
