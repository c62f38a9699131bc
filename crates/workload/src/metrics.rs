//! Client-side measurement: latency and throughput per client class.

use simcore::{Nanos, Summary};

/// Metrics for one class of clients.
#[derive(Clone, Debug, Default)]
pub struct ClassMetrics {
    /// Response-time samples in milliseconds.
    pub latency_ms: Summary,
    /// Completed requests.
    pub completed: u64,
    /// Requests abandoned after the client timeout (S-Client behaviour).
    pub abandoned: u64,
    /// Completions inside the measurement window.
    pub completed_in_window: u64,
}

/// Metrics across all client classes, with a warmup-aware measurement
/// window.
#[derive(Clone, Debug)]
pub struct ClientMetrics {
    classes: Vec<ClassMetrics>,
    window_start: Nanos,
    window_end: Nanos,
}

impl ClientMetrics {
    /// Creates metrics for `n_classes` classes; only completions within
    /// `[window_start, window_end]` count toward windowed throughput, and
    /// only their latencies are recorded.
    pub fn new(n_classes: usize, window_start: Nanos, window_end: Nanos) -> Self {
        ClientMetrics {
            classes: vec![ClassMetrics::default(); n_classes.max(1)],
            window_start,
            window_end,
        }
    }

    /// Records a completed request.
    pub fn record(&mut self, class: usize, latency: Nanos, now: Nanos) {
        let idx = class.min(self.classes.len() - 1);
        let c = &mut self.classes[idx];
        c.completed += 1;
        if now >= self.window_start && now <= self.window_end {
            c.completed_in_window += 1;
            c.latency_ms.record(latency.as_millis_f64());
        }
    }

    /// Records an abandoned request.
    pub fn record_abandoned(&mut self, class: usize) {
        let idx = class.min(self.classes.len() - 1);
        self.classes[idx].abandoned += 1;
    }

    /// Returns the metrics of a class (clamped to the last class if out of
    /// range, mirroring `record`).
    pub fn class(&self, class: usize) -> &ClassMetrics {
        &self.classes[class.min(self.classes.len() - 1)]
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Windowed throughput of a class in requests/second; zero for classes
    /// that never existed.
    pub fn throughput(&self, class: usize) -> f64 {
        let span = self.window_end.saturating_sub(self.window_start);
        if span.is_zero() || class >= self.classes.len() {
            return 0.0;
        }
        self.classes[class].completed_in_window as f64 / span.as_secs_f64()
    }

    /// Windowed throughput across all classes.
    pub fn total_throughput(&self) -> f64 {
        (0..self.classes.len()).map(|c| self.throughput(c)).sum()
    }

    /// Mean windowed latency of a class in milliseconds (zero for classes
    /// that never existed).
    pub fn mean_latency_ms(&self, class: usize) -> f64 {
        if class >= self.classes.len() {
            return 0.0;
        }
        self.classes[class].latency_ms.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_filters_samples() {
        let mut m = ClientMetrics::new(1, Nanos::from_secs(1), Nanos::from_secs(2));
        m.record(0, Nanos::from_millis(5), Nanos::from_millis(500)); // warmup
        m.record(0, Nanos::from_millis(7), Nanos::from_millis(1500)); // in window
        m.record(0, Nanos::from_millis(9), Nanos::from_millis(2500)); // after
        assert_eq!(m.class(0).completed, 3);
        assert_eq!(m.class(0).completed_in_window, 1);
        assert_eq!(m.mean_latency_ms(0), 7.0);
        assert!((m.throughput(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_class_clamps() {
        let mut m = ClientMetrics::new(2, Nanos::ZERO, Nanos::from_secs(1));
        m.record(99, Nanos::from_millis(1), Nanos::from_millis(10));
        assert_eq!(m.class(1).completed, 1);
    }

    #[test]
    fn total_throughput_sums_classes() {
        let mut m = ClientMetrics::new(2, Nanos::ZERO, Nanos::from_secs(2));
        for _ in 0..4 {
            m.record(0, Nanos::from_millis(1), Nanos::from_secs(1));
        }
        for _ in 0..2 {
            m.record(1, Nanos::from_millis(1), Nanos::from_secs(1));
        }
        assert!((m.total_throughput() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn abandoned_counted() {
        let mut m = ClientMetrics::new(1, Nanos::ZERO, Nanos::from_secs(1));
        m.record_abandoned(0);
        assert_eq!(m.class(0).abandoned, 1);
    }
}
