//! Exponentially decayed CPU-usage estimator.
//!
//! Both the baseline decay-usage scheduler and the multi-level scheduler
//! use this estimator: recent CPU consumption counts fully, older
//! consumption decays with a configurable half-life. A feedback scheduler
//! that picks the minimum decayed usage equalizes the long-run charged CPU
//! rates of continuously runnable competitors — which is exactly the
//! behaviour the paper's Figure 12/13 baseline depends on.

use simcore::Nanos;

/// A decayed CPU-usage accumulator.
///
/// The value is held in seconds of CPU and decays by half every
/// `half_life`. Decay is applied lazily on access, so updates are O(1).
///
/// # Examples
///
/// ```
/// use sched::UsageDecay;
/// use simcore::Nanos;
///
/// let mut u = UsageDecay::new(Nanos::from_secs(1));
/// u.charge(Nanos::from_millis(100), Nanos::ZERO);
/// // One half-life later, the sample has halved.
/// let v = u.value(Nanos::from_secs(1));
/// assert!((v - 0.05).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct UsageDecay {
    value: f64,
    last: Nanos,
    half_life: Nanos,
    // One-entry memo for `0.5^halves`: charge intervals repeat heavily in
    // steady state (periodic quanta, per-request event cycles), and a
    // repeated exponent must produce the identical factor anyway, so the
    // memo saves the `powf` without any change in results.
    memo_halves: f64,
    memo_factor: f64,
}

impl UsageDecay {
    /// Creates an estimator with the given half-life.
    pub fn new(half_life: Nanos) -> Self {
        UsageDecay {
            value: 0.0,
            last: Nanos::ZERO,
            half_life: if half_life.is_zero() {
                Nanos::from_millis(1)
            } else {
                half_life
            },
            memo_halves: f64::NAN,
            memo_factor: 1.0,
        }
    }

    #[inline]
    fn factor(&mut self, halves: f64) -> f64 {
        if halves == self.memo_halves {
            return self.memo_factor;
        }
        let f = 0.5f64.powf(halves);
        self.memo_halves = halves;
        self.memo_factor = f;
        f
    }

    fn decay_to(&mut self, now: Nanos) {
        if now <= self.last {
            return;
        }
        let dt = now - self.last;
        let halves = dt.as_secs_f64() / self.half_life.as_secs_f64();
        self.value *= self.factor(halves);
        self.last = now;
    }

    /// Adds `dt` of CPU consumed ending at time `now`.
    pub fn charge(&mut self, dt: Nanos, now: Nanos) {
        self.decay_to(now);
        self.value += dt.as_secs_f64();
    }

    /// Returns the decayed usage (in seconds) as of `now`.
    pub fn value(&mut self, now: Nanos) -> f64 {
        self.decay_to(now);
        self.value
    }

    /// Returns the stored value and the instant it was last decayed to.
    pub(crate) fn raw(&self) -> (f64, Nanos) {
        (self.value, self.last)
    }

    /// Returns the decayed usage without updating the decay timestamp.
    pub fn peek(&self, now: Nanos) -> f64 {
        if now <= self.last {
            return self.value;
        }
        let dt = now - self.last;
        let halves = dt.as_secs_f64() / self.half_life.as_secs_f64();
        let factor = if halves == self.memo_halves {
            self.memo_factor
        } else {
            0.5f64.powf(halves)
        };
        self.value * factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut u = UsageDecay::new(Nanos::from_secs(1));
        u.charge(Nanos::from_millis(10), Nanos::ZERO);
        u.charge(Nanos::from_millis(10), Nanos::ZERO);
        assert!((u.value(Nanos::ZERO) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn decays_by_half_life() {
        let mut u = UsageDecay::new(Nanos::from_millis(500));
        u.charge(Nanos::from_millis(100), Nanos::ZERO);
        let v = u.value(Nanos::from_millis(1500)); // 3 half-lives
        assert!((v - 0.1 / 8.0).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut u = UsageDecay::new(Nanos::from_secs(1));
        u.charge(Nanos::from_millis(100), Nanos::ZERO);
        let p1 = u.peek(Nanos::from_secs(1));
        let p2 = u.peek(Nanos::from_secs(1));
        assert_eq!(p1, p2);
        assert!((u.value(Nanos::from_secs(1)) - p1).abs() < 1e-12);
    }

    #[test]
    fn time_going_backwards_is_ignored() {
        let mut u = UsageDecay::new(Nanos::from_secs(1));
        u.charge(Nanos::from_millis(10), Nanos::from_secs(5));
        let v_before = u.peek(Nanos::from_secs(5));
        assert_eq!(u.peek(Nanos::from_secs(4)), v_before);
    }

    #[test]
    fn zero_half_life_clamped() {
        let mut u = UsageDecay::new(Nanos::ZERO);
        u.charge(Nanos::from_millis(1), Nanos::ZERO);
        // Must not divide by zero or produce NaN.
        assert!(u.value(Nanos::from_secs(1)).is_finite());
    }
}
