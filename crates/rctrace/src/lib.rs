//! Kernel-wide observability: trace sessions, per-container metrics
//! timelines, and exporters.
//!
//! A *session* couples two collectors:
//!
//! - the typed trace ring in [`simcore::trace`], which every subsystem
//!   (`simos`, `simnet`, `simdisk`, `sched`, `rescon`) records its decision
//!   points into, and
//! - a [`Metrics`] registry the kernel samples at a configurable
//!   virtual-time interval: per-container runnable depth, charge counters,
//!   effective share, SYN-queue occupancy, cache residency, plus
//!   request-latency histograms wired in by `httpsim`.
//!
//! Both are zero-cost when no session is active: emit sites evaluate
//! nothing beyond one thread-local flag read, and the kernel's sampling
//! hook is purely observational (it injects no events), so an instrumented
//! run replays exactly the virtual-time schedule of an uninstrumented one.
//!
//! Like the ring itself the registry is thread-local: the simulation is
//! single-threaded and the Rust test harness gives every test its own
//! thread, so concurrent sessions never interfere.
//!
//! # Examples
//!
//! ```
//! use simcore::Nanos;
//!
//! rctrace::start(rctrace::TraceConfig::default());
//! // ... run a kernel: subsystems emit trace events, the kernel records
//! // metric samples, httpsim records latencies ...
//! rctrace::record_latency(0, Nanos::from_micros(750), Nanos::from_micros(750), 0);
//! let session = rctrace::finish().expect("session was started");
//! let chrome = rctrace::chrome_trace_json(&session);
//! let metrics = rctrace::metrics_json(&session);
//! assert!(chrome.starts_with('{') && metrics.starts_with('{'));
//! assert!(rctrace::finish().is_none(), "finish is one-shot");
//! ```

mod chrome;
pub mod json;
pub mod metrics;

pub use chrome::{chrome_trace_json, cluster_chrome_trace_json, NODE_PID_STRIDE};
pub use metrics::{
    metrics_json, ContainerSample, ContainerSeries, ContainerTotals, CpuTotals, GlobalTotals,
    Metrics, SamplePoint, SloSpec, SloState,
};

use std::cell::{Cell, RefCell};

use simcore::span::SpanBuffer;
use simcore::trace::TraceBuffer;
use simcore::Nanos;

/// Configuration of a trace session.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Capacity of the structured trace ring; the oldest events are
    /// evicted (and counted) beyond it.
    pub ring_capacity: usize,
    /// Virtual-time interval between metric samples.
    pub sample_interval: Nanos,
    /// Record per-request causal spans (`rcspan`): phase ledgers for every
    /// request, aggregated into the metrics dump's blame breakdown and the
    /// Chrome trace's async request tracks. Off by default; purely
    /// observational either way (span-off runs are byte-identical).
    pub spans: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 1 << 20,
            sample_interval: Nanos::from_millis(10),
            spans: false,
        }
    }
}

/// Everything captured by one session: the retained trace ring and the
/// metrics registry.
#[derive(Clone, Debug)]
pub struct TraceSession {
    /// The structured trace events (most recent window, ring-bounded).
    pub trace: TraceBuffer,
    /// Sampled timelines, latency histograms, and final aggregates.
    pub metrics: Metrics,
    /// Per-request phase ledgers (`None` unless the session was started
    /// with [`TraceConfig::spans`]).
    pub spans: Option<SpanBuffer>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SPANS: Cell<bool> = const { Cell::new(false) };
    static METRICS: RefCell<Option<Metrics>> = const { RefCell::new(None) };
}

/// Starts a session: enables the trace ring and installs a fresh metrics
/// registry. Restarting an active session discards its data.
pub fn start(cfg: TraceConfig) {
    simcore::trace::start(cfg.ring_capacity);
    if cfg.spans {
        simcore::span::start(cfg.ring_capacity);
    }
    SPANS.with(|s| s.set(cfg.spans));
    METRICS.with(|m| *m.borrow_mut() = Some(Metrics::new(cfg.sample_interval)));
    ACTIVE.with(|a| a.set(true));
}

/// Returns `true` while a session is active.
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Ends the session, returning everything captured; `None` when no
/// session is active.
pub fn finish() -> Option<TraceSession> {
    if !active() {
        return None;
    }
    ACTIVE.with(|a| a.set(false));
    let trace = simcore::trace::stop();
    let spans = if SPANS.with(|s| s.replace(false)) {
        Some(simcore::span::stop())
    } else {
        None
    };
    let metrics = METRICS.with(|m| m.borrow_mut().take())?;
    Some(TraceSession {
        trace,
        metrics,
        spans,
    })
}

/// A full observability session — rctrace metrics plus the underlying
/// simcore trace ring and span session — detached from the thread-local
/// slots by [`pause`]. Cluster drivers hold one per node and swap them
/// around each kernel step so every node records into its own session.
pub struct PausedSession {
    active: bool,
    spans: bool,
    metrics: Option<Metrics>,
    trace: simcore::trace::PausedTrace,
    span: simcore::span::PausedSpans,
}

/// Detaches the current session at all three layers (rctrace metrics,
/// trace ring, span session), leaving observability disabled until
/// [`resume`] or [`start`] is called.
pub fn pause() -> PausedSession {
    PausedSession {
        active: ACTIVE.with(|a| a.replace(false)),
        spans: SPANS.with(|s| s.get()),
        metrics: METRICS.with(|m| m.borrow_mut().take()),
        trace: simcore::trace::pause(),
        span: simcore::span::pause(),
    }
}

/// Reinstates a session captured by [`pause`], restoring all three layers
/// exactly as they were.
pub fn resume(paused: PausedSession) {
    simcore::trace::resume(paused.trace);
    simcore::span::resume(paused.span);
    METRICS.with(|m| *m.borrow_mut() = paused.metrics);
    SPANS.with(|s| s.set(paused.spans));
    ACTIVE.with(|a| a.set(paused.active));
}

/// Returns `true` if a metric sample is due at virtual time `now`.
/// One thread-local flag read when no session is active.
pub fn sample_due(now: Nanos) -> bool {
    if !active() {
        return false;
    }
    METRICS.with(|m| m.borrow().as_ref().is_some_and(|m| now >= m.next_due()))
}

/// Records one sample row per live container at virtual time `at` and
/// advances the next-due time past `at`. No-op without a session.
pub fn record_sample(at: Nanos, rows: &[ContainerSample]) {
    if !active() {
        return;
    }
    METRICS.with(|m| {
        if let Some(m) = m.borrow_mut().as_mut() {
            m.record_sample(at, rows);
        }
    });
}

/// Registers per-tenant latency objectives; each completed request is
/// checked against them online (see [`SloSpec`]). Replaces any previous
/// registration. No-op without a session.
pub fn register_slos(specs: Vec<SloSpec>) {
    if !active() {
        return;
    }
    METRICS.with(|m| {
        if let Some(m) = m.borrow_mut().as_mut() {
            m.register_slos(specs);
        }
    });
}

/// Records one completed-request latency against `container`, feeding the
/// per-container histogram and the online SLO monitors. `at` is the
/// completion instant (used to timestamp violation trace events) and
/// `request` the rcspan request id (`0` when spans are off). No-op
/// without a session.
pub fn record_latency(container: u64, latency: Nanos, at: Nanos, request: u64) {
    if !active() {
        return;
    }
    METRICS.with(|m| {
        if let Some(m) = m.borrow_mut().as_mut() {
            m.record_latency(container, latency, at, request);
        }
    });
}

/// Records one mid-run CPU policy swap. Feeds the `policy` section of
/// the metrics dump: swap history plus per-policy-epoch attribution.
/// Kept separate from the `PolicySwap` trace event so ring eviction
/// cannot lose control-plane history. No-op without a session.
pub fn record_policy_swap(at: Nanos, from: &'static str, to: &'static str) {
    if !active() {
        return;
    }
    METRICS.with(|m| {
        if let Some(m) = m.borrow_mut().as_mut() {
            m.policy_swaps.push((at, from, to));
        }
    });
}

/// Records end-of-run aggregates (global totals plus one final row per
/// live container); the last call wins. No-op without a session.
pub fn record_totals(globals: GlobalTotals, rows: &[ContainerSample]) {
    if !active() {
        return;
    }
    METRICS.with(|m| {
        if let Some(m) = m.borrow_mut().as_mut() {
            m.record_totals(globals, rows);
        }
    });
}

/// Records end-of-run per-CPU accounting; the last call wins. No-op
/// without a session.
pub fn record_cpu_totals(cpus: &[CpuTotals]) {
    if !active() {
        return;
    }
    METRICS.with(|m| {
        if let Some(m) = m.borrow_mut().as_mut() {
            m.record_cpu_totals(cpus);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_session_is_inert() {
        assert!(!active());
        assert!(!sample_due(Nanos::from_secs(100)));
        record_latency(1, Nanos::from_micros(5), Nanos::from_micros(5), 0);
        record_sample(Nanos::ZERO, &[]);
        record_totals(GlobalTotals::default(), &[]);
        assert!(finish().is_none());
    }

    #[test]
    fn session_collects_trace_and_metrics() {
        start(TraceConfig {
            ring_capacity: 16,
            sample_interval: Nanos::from_millis(1),
            spans: false,
        });
        assert!(active());
        assert!(sample_due(Nanos::ZERO), "baseline sample due at start");
        simcore::trace::emit_at(Nanos::from_micros(3), || {
            simcore::trace::TraceEventKind::SchedPick {
                task: 1,
                slice: Nanos::from_micros(100),
            }
        });
        record_sample(Nanos::from_millis(1), &[]);
        assert!(!sample_due(Nanos::from_millis(1)));
        assert!(sample_due(Nanos::from_millis(2)));
        record_latency(9, Nanos::from_micros(42), Nanos::from_micros(50), 0);
        let s = finish().expect("active session");
        assert_eq!(s.trace.events.len(), 1);
        assert_eq!(s.metrics.containers[&9].latency.count(), 1);
        assert!(s.spans.is_none(), "spans off by default");
        assert!(!active());
        assert!(!simcore::trace::enabled(), "ring disabled after finish");
    }

    #[test]
    fn span_session_drains_ledgers_and_monitors_slos() {
        use simcore::span::{self, Outcome, Phase};
        start(TraceConfig {
            ring_capacity: 64,
            sample_interval: Nanos::from_millis(1),
            spans: true,
        });
        assert!(span::enabled());
        register_slos(vec![SloSpec {
            container: 4,
            label: "tenant".to_string(),
            quantile: 0.5,
            threshold: Nanos::from_micros(10),
        }]);
        let id = span::mint(Nanos::ZERO, 4, Phase::CpuRun);
        span::finish(id, Nanos::from_micros(20), Outcome::Completed);
        // Over threshold and past the 50% error budget: a violation.
        record_latency(4, Nanos::from_micros(20), Nanos::from_micros(20), id);
        let s = finish().expect("active session");
        assert!(!span::enabled(), "span recording disabled after finish");
        let spans = s.spans.expect("span buffer drained");
        assert_eq!(spans.ledgers.len(), 1);
        assert_eq!(spans.ledgers[0].request, id);
        assert_eq!(s.metrics.slos.len(), 1);
        assert_eq!(s.metrics.slos[0].violations, 1);
        assert!(s
            .trace
            .events
            .iter()
            .any(|e| matches!(e.kind, simcore::trace::TraceEventKind::SloViolation { .. })));
    }
}
