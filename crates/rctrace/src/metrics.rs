//! Per-container metrics timelines and the compact metrics dump.
//!
//! The kernel samples the registry *opportunistically* from its main loop:
//! when [`crate::sample_due`] reports a due sample it builds one
//! [`ContainerSample`] row per live container and hands the batch to
//! [`crate::record_sample`]. No kernel events are injected and nothing in
//! the simulation observes the registry, so an instrumented run replays
//! exactly the schedule of an uninstrumented one.
//!
//! Sample points store *cumulative* counters; charge rates and the
//! received share are derived between consecutive points at export time.
//! The final [`ContainerTotals`] are copied verbatim from the container
//! table when the run ends, so the dump's per-container totals equal the
//! kernel's [`ResourceUsage`] aggregates exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rescon::{MemClass, ResourceUsage};
use simcore::span::{Outcome, Phase, SpanBuffer, NUM_PHASES};
use simcore::trace::TraceEventKind;
use simcore::{Histogram, Nanos};

use crate::json::{f6, quote};
use crate::TraceSession;

/// A declarative per-tenant latency objective: "quantile `quantile` of
/// `container`'s request latencies stays under `threshold`".
///
/// The monitor is *online*: each completed request consumes error budget
/// when it exceeds the threshold, and once more than a `1 - quantile`
/// fraction of requests have done so, every further over-threshold
/// request is counted as a violation and emits an
/// [`TraceEventKind::SloViolation`] trace instant at its completion time.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Stable container id the objective applies to.
    pub container: u64,
    /// Human label for reports (e.g. the tenant name).
    pub label: String,
    /// Quantile the objective constrains (e.g. `0.99`).
    pub quantile: f64,
    /// Latency bound at that quantile.
    pub threshold: Nanos,
}

/// Online monitoring state for one registered [`SloSpec`].
#[derive(Clone, Debug)]
pub struct SloState {
    /// The registered objective.
    pub spec: SloSpec,
    /// Completed requests observed for the spec's container.
    pub total: u64,
    /// Requests whose latency exceeded the threshold.
    pub over: u64,
    /// Over-threshold requests arriving after the error budget was
    /// exhausted (each also emitted a trace instant).
    pub violations: u64,
}

/// One row of a metrics sample (or of the final snapshot), built by the
/// kernel for a single live container.
#[derive(Clone, Debug)]
pub struct ContainerSample {
    /// Stable container id (`Idx::as_u64`).
    pub container: u64,
    /// Attribute name; empty for anonymous containers.
    pub name: String,
    /// Cumulative usage as accounted by the container table.
    pub usage: ResourceUsage,
    /// Cumulative CPU of the container's subtree (destroyed descendants
    /// included).
    pub subtree_cpu: Nanos,
    /// Cumulative disk service time of the container's subtree.
    pub subtree_disk: Nanos,
    /// Cumulative transmit wire time of the container's subtree.
    pub subtree_tx: Nanos,
    /// Buffer-cache bytes currently resident on behalf of this container.
    pub cache_bytes: u64,
    /// Runnable threads currently charging this container.
    pub runnable: u32,
    /// SYN-queue entries across listeners bound to this container.
    pub syn_queue: u32,
    /// Guaranteed machine fraction (product of fixed shares to the root).
    pub effective_share: f64,
}

/// One stored point of a container's time series (cumulative counters).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplePoint {
    /// Virtual time of the sample.
    pub at: Nanos,
    /// Cumulative CPU charged (user + kernel).
    pub cpu: Nanos,
    /// Cumulative kernel-mode CPU charged.
    pub kernel_cpu: Nanos,
    /// Cumulative disk service time charged.
    pub disk: Nanos,
    /// Cumulative transmit wire time charged by the link scheduler.
    pub tx_time: Nanos,
    /// Cumulative packets received.
    pub pkts_rx: u64,
    /// Memory bytes currently charged.
    pub mem_bytes: u64,
    /// Per-class memory breakdown (indexed by `MemClass::index()`; all
    /// zeros on runs without the memory subsystem).
    pub mem_by_class: [u64; 5],
    /// Buffer-cache bytes currently resident.
    pub cache_bytes: u64,
    /// Runnable threads charging this container at the sample instant.
    pub runnable: u32,
    /// SYN-queue occupancy at the sample instant.
    pub syn_queue: u32,
    /// Effective (guaranteed) share at the sample instant.
    pub effective_share: f64,
}

/// Final aggregates for one container, copied from the container table at
/// the end of the run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ContainerTotals {
    /// The table's usage record, verbatim.
    pub usage: ResourceUsage,
    /// Subtree CPU including destroyed descendants.
    pub subtree_cpu: Nanos,
    /// Subtree disk time including destroyed descendants.
    pub subtree_disk: Nanos,
    /// Subtree transmit wire time including destroyed descendants.
    pub subtree_tx: Nanos,
}

/// Whole-system aggregates recorded at the end of the run.
///
/// CPU conservation holds exactly:
/// `root_subtree_cpu + floating_cpu + reaped_cpu == charged_cpu`, and the
/// disk analogue sums to `disk_busy`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GlobalTotals {
    /// Virtual time at which the run ended.
    pub end: Nanos,
    /// CPU charged to containers by the scheduler.
    pub charged_cpu: Nanos,
    /// Interrupt-level CPU charged to no principal.
    pub interrupt_cpu: Nanos,
    /// Context-switch and other uncharged overhead.
    pub overhead_cpu: Nanos,
    /// Idle CPU.
    pub idle_cpu: Nanos,
    /// Subtree CPU of the root container.
    pub root_subtree_cpu: Nanos,
    /// Subtree CPU of floating (orphaned) containers.
    pub floating_cpu: Nanos,
    /// CPU history of destroyed parentless containers.
    pub reaped_cpu: Nanos,
    /// Total disk busy time.
    pub disk_busy: Nanos,
    /// Subtree disk time of the root container.
    pub root_subtree_disk: Nanos,
    /// Subtree disk time of floating containers.
    pub floating_disk: Nanos,
    /// Disk history of destroyed parentless containers.
    pub reaped_disk: Nanos,
    /// Packets received by the NIC.
    pub pkts_in: u64,
    /// Packets transmitted.
    pub pkts_out: u64,
    /// Packets dropped at early demultiplexing.
    pub early_drops: u64,
    /// Scheduler context switches.
    pub ctx_switches: u64,
    /// Whether the kernel modelled a finite-bandwidth transmit link.
    /// When `false`, every link field below is zero and the metrics dump
    /// omits the link section entirely (keeping linkless goldens
    /// byte-identical).
    pub link_configured: bool,
    /// Total wire time the link spent transmitting.
    pub link_busy: Nanos,
    /// Total wire bytes transmitted.
    pub link_bytes: u64,
    /// Total packets transmitted over the finite link.
    pub link_pkts: u64,
    /// Subtree transmit wire time of the root container.
    pub root_subtree_tx: Nanos,
    /// Subtree transmit wire time of floating containers.
    pub floating_tx: Nanos,
    /// Transmit history of destroyed parentless containers.
    pub reaped_tx: Nanos,
    /// Whether the kernel ran with the `simmem` memory subsystem. When
    /// `false`, every mem field below is zero and the metrics dump omits
    /// the mem section entirely (keeping memory-unlimited goldens
    /// byte-identical).
    pub mem_configured: bool,
    /// Kernel memory currently accounted, all classes.
    pub mem_total: u64,
    /// Per-class breakdown, indexed by `rescon::MemClass::index()`.
    pub mem_by_class: [u64; 5],
    /// Cache pages stolen to satisfy charges.
    pub mem_reclaims: u64,
    /// Bytes freed by those steals.
    pub mem_reclaimed_bytes: u64,
    /// Container-targeted OOM kills.
    pub mem_oom_kills: u64,
    /// Hard allocations refused after reclaim and OOM.
    pub mem_refusals: u64,
    /// Memory-pressure events emitted.
    pub mem_pressure_events: u64,
}

/// End-of-run accounting for one simulated CPU.
///
/// On every CPU the four time categories partition that CPU's
/// wall-clock exactly, so summing `charged + interrupt + overhead +
/// idle` over all CPUs yields `ncpus × end`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTotals {
    /// CPU time charged to containers by the scheduler on this CPU.
    pub charged_cpu: Nanos,
    /// Interrupt-level time consumed on this CPU.
    pub interrupt_cpu: Nanos,
    /// Context-switch and other uncharged overhead on this CPU.
    pub overhead_cpu: Nanos,
    /// Idle time on this CPU.
    pub idle_cpu: Nanos,
    /// Context switches taken on this CPU.
    pub ctx_switches: u64,
}

/// Time series, latency histogram, and final totals for one container.
#[derive(Clone, Debug)]
pub struct ContainerSeries {
    /// Attribute name; empty for anonymous containers.
    pub name: String,
    /// Sampled time series, in sample order.
    pub samples: Vec<SamplePoint>,
    /// Request-completion latency histogram (wired in by `httpsim`).
    pub latency: Histogram,
    /// Final aggregates (copied from the table at the end of the run).
    pub totals: ContainerTotals,
}

impl ContainerSeries {
    fn new() -> Self {
        ContainerSeries {
            name: String::new(),
            samples: Vec::new(),
            latency: Histogram::new(),
            totals: ContainerTotals::default(),
        }
    }

    /// Human-readable name: the attribute name, or `c<id>` when anonymous.
    pub fn display_name(&self, id: u64) -> String {
        if self.name.is_empty() {
            format!("c{id}")
        } else {
            self.name.clone()
        }
    }
}

/// The per-session metrics registry.
#[derive(Clone, Debug)]
pub struct Metrics {
    interval: Nanos,
    next_due: Nanos,
    /// Per-container series, keyed by stable container id.
    pub containers: BTreeMap<u64, ContainerSeries>,
    /// Whole-system aggregates (filled in at the end of the run).
    pub globals: GlobalTotals,
    /// Per-CPU accounting (filled in at the end of the run; empty for
    /// sessions recorded before the kernel reports CPUs, and length 1
    /// on a uniprocessor).
    pub per_cpu: Vec<CpuTotals>,
    /// Registered latency objectives and their online monitoring state
    /// (empty unless [`crate::register_slos`] was called).
    pub slos: Vec<SloState>,
    /// Mid-run CPU policy swaps as `(at, from, to)`, in order of
    /// application. Recorded directly (not scraped from the trace ring)
    /// so a long run cannot evict them; empty for swap-free runs, which
    /// keeps the `policy` metrics section gated off.
    pub policy_swaps: Vec<(Nanos, &'static str, &'static str)>,
}

impl Metrics {
    pub(crate) fn new(interval: Nanos) -> Self {
        Metrics {
            interval: interval.max(Nanos::from_nanos(1)),
            // Zero: the first due check fires an initial (baseline)
            // snapshot at the start of the run.
            next_due: Nanos::ZERO,
            containers: BTreeMap::new(),
            globals: GlobalTotals::default(),
            per_cpu: Vec::new(),
            slos: Vec::new(),
            policy_swaps: Vec::new(),
        }
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Nanos {
        self.interval
    }

    pub(crate) fn next_due(&self) -> Nanos {
        self.next_due
    }

    pub(crate) fn record_sample(&mut self, at: Nanos, rows: &[ContainerSample]) {
        while self.next_due <= at {
            self.next_due += self.interval;
        }
        for r in rows {
            let e = self
                .containers
                .entry(r.container)
                .or_insert_with(ContainerSeries::new);
            if e.name.is_empty() && !r.name.is_empty() {
                e.name = r.name.clone();
            }
            e.samples.push(SamplePoint {
                at,
                cpu: r.usage.cpu,
                kernel_cpu: r.usage.kernel_cpu,
                disk: r.usage.disk_time,
                tx_time: r.usage.tx_time,
                pkts_rx: r.usage.pkts_rx,
                mem_bytes: r.usage.mem_bytes,
                mem_by_class: r.usage.mem_by_class,
                cache_bytes: r.cache_bytes,
                runnable: r.runnable,
                syn_queue: r.syn_queue,
                effective_share: r.effective_share,
            });
        }
    }

    pub(crate) fn register_slos(&mut self, specs: Vec<SloSpec>) {
        self.slos = specs
            .into_iter()
            .map(|spec| SloState {
                spec,
                total: 0,
                over: 0,
                violations: 0,
            })
            .collect();
    }

    pub(crate) fn record_latency(
        &mut self,
        container: u64,
        latency: Nanos,
        at: Nanos,
        request: u64,
    ) {
        self.containers
            .entry(container)
            .or_insert_with(ContainerSeries::new)
            .latency
            .record(latency);
        for s in self
            .slos
            .iter_mut()
            .filter(|s| s.spec.container == container)
        {
            s.total += 1;
            if latency <= s.spec.threshold {
                continue;
            }
            s.over += 1;
            // Error budget: an SLO at quantile q tolerates a 1-q fraction
            // of requests over the threshold. Once that budget is burned,
            // each further over-threshold request is a violation.
            if s.over as f64 > (1.0 - s.spec.quantile) * s.total as f64 {
                s.violations += 1;
                let (c, threshold) = (s.spec.container, s.spec.threshold);
                simcore::trace::emit_at(at, || TraceEventKind::SloViolation {
                    container: c,
                    request,
                    latency,
                    threshold,
                });
            }
        }
    }

    pub(crate) fn record_totals(&mut self, globals: GlobalTotals, rows: &[ContainerSample]) {
        self.globals = globals;
        for r in rows {
            let e = self
                .containers
                .entry(r.container)
                .or_insert_with(ContainerSeries::new);
            if e.name.is_empty() && !r.name.is_empty() {
                e.name = r.name.clone();
            }
            e.totals = ContainerTotals {
                usage: r.usage,
                subtree_cpu: r.subtree_cpu,
                subtree_disk: r.subtree_disk,
                subtree_tx: r.subtree_tx,
            };
        }
    }

    pub(crate) fn record_cpu_totals(&mut self, cpus: &[CpuTotals]) {
        self.per_cpu = cpus.to_vec();
    }
}

/// Renders the compact metrics dump: global aggregates, trace-ring
/// statistics, and per-container totals, latency summaries, and sampled
/// time series. All durations are integer nanoseconds; the document is
/// byte-identical across runs of the same simulation.
pub fn metrics_json(session: &TraceSession) -> String {
    let m = &session.metrics;
    let g = &m.globals;
    let mut out = String::with_capacity(1 << 14);
    let _ = write!(out, "{{\"interval_ns\":{}", m.interval().as_nanos());
    let _ = write!(
        out,
        ",\"globals\":{{\"end_ns\":{},\"charged_cpu_ns\":{},\"interrupt_cpu_ns\":{},\
         \"overhead_cpu_ns\":{},\"idle_cpu_ns\":{},\"root_subtree_cpu_ns\":{},\
         \"floating_cpu_ns\":{},\"reaped_cpu_ns\":{},\"disk_busy_ns\":{},\
         \"root_subtree_disk_ns\":{},\"floating_disk_ns\":{},\"reaped_disk_ns\":{},\
         \"pkts_in\":{},\"pkts_out\":{},\"early_drops\":{},\"ctx_switches\":{}}}",
        g.end.as_nanos(),
        g.charged_cpu.as_nanos(),
        g.interrupt_cpu.as_nanos(),
        g.overhead_cpu.as_nanos(),
        g.idle_cpu.as_nanos(),
        g.root_subtree_cpu.as_nanos(),
        g.floating_cpu.as_nanos(),
        g.reaped_cpu.as_nanos(),
        g.disk_busy.as_nanos(),
        g.root_subtree_disk.as_nanos(),
        g.floating_disk.as_nanos(),
        g.reaped_disk.as_nanos(),
        g.pkts_in,
        g.pkts_out,
        g.early_drops,
        g.ctx_switches,
    );
    // A link section appears only when a finite-bandwidth link was
    // configured, so that linkless dumps (and their golden files) are
    // unchanged.
    if g.link_configured {
        let _ = write!(
            out,
            ",\"link\":{{\"busy_ns\":{},\"wire_bytes\":{},\"pkts\":{},\
             \"root_subtree_tx_ns\":{},\"floating_tx_ns\":{},\"reaped_tx_ns\":{}}}",
            g.link_busy.as_nanos(),
            g.link_bytes,
            g.link_pkts,
            g.root_subtree_tx.as_nanos(),
            g.floating_tx.as_nanos(),
            g.reaped_tx.as_nanos(),
        );
    }
    // Likewise the mem section only appears when the kernel ran with the
    // `simmem` memory subsystem.
    if g.mem_configured {
        let _ = write!(
            out,
            ",\"mem\":{{\"total_bytes\":{},\"by_class\":{{",
            g.mem_total
        );
        for (i, class) in MemClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{}",
                quote(class.label()),
                g.mem_by_class[class.index()]
            );
        }
        let _ = write!(
            out,
            "}},\"reclaims\":{},\"reclaimed_bytes\":{},\"oom_kills\":{},\
             \"refusals\":{},\"pressure_events\":{}}}",
            g.mem_reclaims,
            g.mem_reclaimed_bytes,
            g.mem_oom_kills,
            g.mem_refusals,
            g.mem_pressure_events,
        );
    }
    let _ = write!(
        out,
        ",\"trace\":{{\"emitted\":{},\"dropped\":{},\"retained\":{}}}",
        session.trace.emitted,
        session.trace.dropped,
        session.trace.events.len()
    );
    // SLO and span sections appear only when SLOs were registered /
    // span recording was on, so that all pre-rcspan dumps (and their
    // golden files) are unchanged.
    if !m.slos.is_empty() {
        out.push_str(",\"slo\":[");
        for (i, s) in m.slos.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let achieved = m
                .containers
                .get(&s.spec.container)
                .map(|c| c.latency.quantile_upper_bound(s.spec.quantile))
                .unwrap_or(Nanos::ZERO);
            let _ = write!(
                out,
                "{{\"container\":{},\"label\":{},\"quantile\":{},\"threshold_ns\":{},\
                 \"requests\":{},\"over_threshold\":{},\"violations\":{},\
                 \"achieved_ns\":{},\"met\":{}}}",
                s.spec.container,
                quote(&s.spec.label),
                f6(s.spec.quantile),
                s.spec.threshold.as_nanos(),
                s.total,
                s.over,
                s.violations,
                achieved.as_nanos(),
                s.violations == 0,
            );
        }
        out.push(']');
    }
    if let Some(spans) = &session.spans {
        write_spans(&mut out, m, spans);
    }
    // A per-CPU section appears only on multiprocessor runs so that
    // uniprocessor dumps (and their golden files) are unchanged.
    if m.per_cpu.len() > 1 {
        out.push_str(",\"cpus\":[");
        for (i, c) in m.per_cpu.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"cpu\":{},\"charged_cpu_ns\":{},\"interrupt_cpu_ns\":{},\
                 \"overhead_cpu_ns\":{},\"idle_cpu_ns\":{},\"ctx_switches\":{}}}",
                i,
                c.charged_cpu.as_nanos(),
                c.interrupt_cpu.as_nanos(),
                c.overhead_cpu.as_nanos(),
                c.idle_cpu.as_nanos(),
                c.ctx_switches,
            );
        }
        out.push(']');
    }
    // A policy section appears only when at least one mid-run policy
    // swap occurred, so swap-free dumps (and all pre-rcpolicy goldens)
    // are byte-identical to before the policy plane existed. Swaps are
    // read from the metrics collector, not the trace ring: ring
    // eviction on a long run must not lose control-plane history.
    if !m.policy_swaps.is_empty() {
        write_policy(&mut out, m, g.end);
    }
    out.push_str(",\"containers\":[");
    for (i, (&id, series)) in m.containers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let t = &series.totals;
        let u = &t.usage;
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":{}",
            id,
            quote(&series.display_name(id))
        );
        // No counter feeds `syscalls` any more; the key stays, always 0,
        // only because the goldens are never regenerated.
        let _ = write!(
            out,
            ",\"totals\":{{\"cpu_ns\":{},\"kernel_cpu_ns\":{},\"pkts_rx\":{},\"pkts_tx\":{},\
             \"bytes_rx\":{},\"bytes_tx\":{},\"mem_bytes\":{},\"mem_peak\":{},\"disk_ns\":{},\
             \"disk_reads\":{},\"disk_bytes\":{},\"sockets\":{},\"syscalls\":0,\
             \"subtree_cpu_ns\":{},\"subtree_disk_ns\":{}",
            u.cpu.as_nanos(),
            u.kernel_cpu.as_nanos(),
            u.pkts_rx,
            u.pkts_tx,
            u.bytes_rx,
            u.bytes_tx,
            u.mem_bytes,
            u.mem_peak,
            u.disk_time.as_nanos(),
            u.disk_reads,
            u.disk_bytes,
            u.sockets,
            t.subtree_cpu.as_nanos(),
            t.subtree_disk.as_nanos(),
        );
        // Transmit fields ride along only on link-modelled runs.
        if g.link_configured {
            let _ = write!(
                out,
                ",\"tx_ns\":{},\"subtree_tx_ns\":{}",
                u.tx_time.as_nanos(),
                t.subtree_tx.as_nanos(),
            );
        }
        // Per-class memory breakdown rides along only on simmem runs.
        if g.mem_configured {
            out.push_str(",\"mem_by_class\":{");
            for (j, class) in MemClass::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{}",
                    quote(class.label()),
                    u.mem_by_class[class.index()]
                );
            }
            out.push('}');
        }
        out.push('}');
        let l = &series.latency;
        let _ = write!(
            out,
            ",\"latency\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\
             \"p999_ns\":{},\"max_ns\":{}}}",
            l.count(),
            l.mean().as_nanos(),
            l.quantile_upper_bound(0.5).as_nanos(),
            l.quantile_upper_bound(0.99).as_nanos(),
            l.quantile_upper_bound(0.999).as_nanos(),
            l.max().as_nanos(),
        );
        out.push_str(",\"samples\":[");
        let mut prev = SamplePoint {
            at: Nanos::ZERO,
            cpu: Nanos::ZERO,
            kernel_cpu: Nanos::ZERO,
            disk: Nanos::ZERO,
            tx_time: Nanos::ZERO,
            pkts_rx: 0,
            mem_bytes: 0,
            mem_by_class: [0; 5],
            cache_bytes: 0,
            runnable: 0,
            syn_queue: 0,
            effective_share: 0.0,
        };
        for (j, p) in series.samples.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let dt = p.at.saturating_sub(prev.at);
            let dt_s = dt.as_secs_f64();
            let (received_share, disk_rate, pkt_rate) = if dt_s > 0.0 {
                (
                    p.cpu.saturating_sub(prev.cpu).as_secs_f64() / dt_s,
                    p.disk.saturating_sub(prev.disk).as_secs_f64() / dt_s,
                    p.pkts_rx.saturating_sub(prev.pkts_rx) as f64 / dt_s,
                )
            } else {
                (0.0, 0.0, 0.0)
            };
            let _ = write!(
                out,
                "{{\"at_ns\":{},\"cpu_ns\":{},\"kernel_cpu_ns\":{},\"disk_ns\":{},\
                 \"pkts_rx\":{},\"mem_bytes\":{},\"cache_bytes\":{},\"runnable\":{},\
                 \"syn_queue\":{},\"effective_share\":{},\"received_share\":{},\
                 \"disk_rate\":{},\"pkt_rate\":{}",
                p.at.as_nanos(),
                p.cpu.as_nanos(),
                p.kernel_cpu.as_nanos(),
                p.disk.as_nanos(),
                p.pkts_rx,
                p.mem_bytes,
                p.cache_bytes,
                p.runnable,
                p.syn_queue,
                f6(p.effective_share),
                f6(received_share),
                f6(disk_rate),
                f6(pkt_rate),
            );
            if g.link_configured {
                let dt_s2 = p.at.saturating_sub(prev.at).as_secs_f64();
                let tx_rate = if dt_s2 > 0.0 {
                    p.tx_time.saturating_sub(prev.tx_time).as_secs_f64() / dt_s2
                } else {
                    0.0
                };
                let _ = write!(
                    out,
                    ",\"tx_ns\":{},\"tx_rate\":{}",
                    p.tx_time.as_nanos(),
                    f6(tx_rate),
                );
            }
            out.push('}');
            prev = *p;
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Nearest-rank quantile over an ascending-sorted sample set (rank =
/// `ceil(q·n)` clamped to `[1, n]`); `0` for an empty set.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Renders the `policy` section of the metrics dump: the list of mid-run
/// CPU policy swaps plus per-policy-epoch attribution. Epoch boundaries
/// are the swap instants; each epoch names the CPU policy active in it
/// and lists per-container CPU/disk charge deltas over the epoch,
/// computed from the sampled cumulative series at sample resolution (a
/// swap landing between two samples attributes the straddling interval
/// to the epoch of the earlier sample).
fn write_policy(out: &mut String, m: &Metrics, end: Nanos) {
    let swaps = &m.policy_swaps;
    out.push_str(",\"policy\":{\"swaps\":[");
    for (i, (at, from, to)) in swaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"plane\":\"cpu\",\"from\":{},\"to\":{}}}",
            at.as_nanos(),
            quote(from),
            quote(to)
        );
    }
    out.push_str("],\"epochs\":[");
    // The first swap's `from` side labels epoch 0.
    let mut current = swaps[0].1;
    // Epoch boundaries: distinct swap times (trace order is time order),
    // closed by the run end.
    let mut bounds: Vec<Nanos> = Vec::with_capacity(swaps.len() + 2);
    bounds.push(Nanos::ZERO);
    for &(at, ..) in swaps {
        if bounds.last() != Some(&at) {
            bounds.push(at);
        }
    }
    if bounds.last() != Some(&end) {
        bounds.push(end);
    }
    // Cumulative (cpu, disk) charged to a container at the last sample
    // at or before `t`.
    let sampled = |series: &ContainerSeries, t: Nanos| -> (Nanos, Nanos) {
        let mut v = (Nanos::ZERO, Nanos::ZERO);
        for p in &series.samples {
            if p.at > t {
                break;
            }
            v = (p.cpu, p.disk);
        }
        v
    };
    for (e, w) in bounds.windows(2).enumerate() {
        let (start, stop) = (w[0], w[1]);
        if e > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"start_ns\":{},\"end_ns\":{},\"cpu\":{}",
            start.as_nanos(),
            stop.as_nanos(),
            quote(current)
        );
        out.push_str(",\"containers\":[");
        let mut first = true;
        for (&id, series) in &m.containers {
            let (cpu0, disk0) = sampled(series, start);
            let (cpu1, disk1) = sampled(series, stop);
            let (dcpu, ddisk) = (cpu1 - cpu0, disk1 - disk0);
            if dcpu.is_zero() && ddisk.is_zero() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"id\":{},\"cpu_ns\":{},\"disk_ns\":{}}}",
                id,
                dcpu.as_nanos(),
                ddisk.as_nanos()
            );
        }
        out.push_str("]}");
        // Apply every swap at this epoch's close so the next epoch
        // carries the attached policy.
        for &(at, _, to) in swaps {
            if at == stop {
                current = to;
            }
        }
    }
    out.push_str("]}");
}

/// Renders the `"spans"` section: global span counters plus, per
/// container, outcome counts, end-to-end quantiles, per-phase totals and
/// quantiles, and the p99 blame verdict (which phase dominates the
/// slowest 1% of requests). Latency statistics cover *completed* spans
/// only; dropped/aborted/unfinished requests appear in the outcome
/// counts but would skew the blame breakdown.
fn write_spans(out: &mut String, m: &Metrics, spans: &SpanBuffer) {
    let _ = write!(
        out,
        ",\"spans\":{{\"minted\":{},\"finished\":{},\"retained\":{},\"dropped\":{}",
        spans.minted,
        spans.finished,
        spans.ledgers.len(),
        spans.dropped,
    );
    let mut by_container: BTreeMap<u64, Vec<&simcore::span::SpanLedger>> = BTreeMap::new();
    for l in &spans.ledgers {
        by_container.entry(l.container).or_default().push(l);
    }
    out.push_str(",\"containers\":[");
    for (i, (&id, ledgers)) in by_container.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = m
            .containers
            .get(&id)
            .map(|c| c.display_name(id))
            .unwrap_or_else(|| format!("c{id}"));
        let mut outcomes = [0u64; 4];
        for l in ledgers {
            let slot = match l.outcome {
                Outcome::Completed => 0,
                Outcome::Dropped => 1,
                Outcome::Aborted => 2,
                Outcome::Unfinished => 3,
            };
            outcomes[slot] += 1;
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":{},\"outcomes\":{{\"completed\":{},\"dropped\":{},\
             \"aborted\":{},\"unfinished\":{}}}",
            id,
            quote(&name),
            outcomes[0],
            outcomes[1],
            outcomes[2],
            outcomes[3],
        );
        let completed: Vec<&&simcore::span::SpanLedger> = ledgers
            .iter()
            .filter(|l| l.outcome == Outcome::Completed)
            .collect();
        let mut e2e: Vec<u64> = completed
            .iter()
            .map(|l| (l.end - l.start).as_nanos())
            .collect();
        e2e.sort_unstable();
        let p99 = nearest_rank(&e2e, 0.99);
        let _ = write!(
            out,
            ",\"e2e\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
            e2e.len(),
            nearest_rank(&e2e, 0.5),
            p99,
            nearest_rank(&e2e, 0.999),
            e2e.last().copied().unwrap_or(0),
        );
        out.push_str(",\"phases\":[");
        let mut first = true;
        for phase in Phase::ALL {
            let mut samples: Vec<u64> = completed
                .iter()
                .map(|l| l.phases[phase.index()].as_nanos())
                .collect();
            let total: u64 = samples.iter().sum();
            if total == 0 {
                continue;
            }
            samples.sort_unstable();
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"phase\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
                quote(phase.label()),
                total,
                nearest_rank(&samples, 0.5),
                nearest_rank(&samples, 0.99),
                nearest_rank(&samples, 0.999),
            );
        }
        out.push(']');
        // The blame verdict: among the slowest 1% of completed requests
        // (those at or above the e2e p99), which phase holds the largest
        // share of their time?
        let slow: Vec<&&&simcore::span::SpanLedger> = completed
            .iter()
            .filter(|l| (l.end - l.start).as_nanos() >= p99)
            .collect();
        if !slow.is_empty() && p99 > 0 {
            let mut sums = [0u64; NUM_PHASES];
            for l in &slow {
                for (s, p) in sums.iter_mut().zip(l.phases.iter()) {
                    *s += p.as_nanos();
                }
            }
            let total: u64 = sums.iter().sum();
            let (bi, bsum) = sums
                .iter()
                .copied()
                .enumerate()
                .max_by_key(|&(i, s)| (s, std::cmp::Reverse(i)))
                .unwrap_or((0, 0));
            let _ = write!(
                out,
                ",\"p99_blame\":{{\"phase\":{},\"share\":{},\"requests\":{},\"breakdown\":{{",
                quote(Phase::ALL[bi].label()),
                f6(if total > 0 {
                    bsum as f64 / total as f64
                } else {
                    0.0
                }),
                slow.len(),
            );
            let mut first = true;
            for phase in Phase::ALL {
                if sums[phase.index()] == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{}:{}", quote(phase.label()), sums[phase.index()]);
            }
            out.push_str("}}");
        }
        out.push('}');
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64, cpu_us: u64) -> ContainerSample {
        let mut usage = ResourceUsage::new();
        usage.charge_cpu(Nanos::from_micros(cpu_us), false);
        ContainerSample {
            container: id,
            name: String::new(),
            usage,
            subtree_cpu: Nanos::from_micros(cpu_us),
            subtree_disk: Nanos::ZERO,
            subtree_tx: Nanos::ZERO,
            cache_bytes: 0,
            runnable: 1,
            syn_queue: 0,
            effective_share: 0.5,
        }
    }

    #[test]
    fn next_due_advances_past_sample_time() {
        let mut m = Metrics::new(Nanos::from_millis(10));
        assert!(Nanos::ZERO >= m.next_due());
        m.record_sample(Nanos::from_millis(25), &[row(0, 100)]);
        assert_eq!(m.next_due(), Nanos::from_millis(30));
        assert_eq!(m.containers[&0].samples.len(), 1);
    }

    #[test]
    fn totals_copied_verbatim() {
        let mut m = Metrics::new(Nanos::from_millis(10));
        let r = row(3, 250);
        m.record_totals(
            GlobalTotals {
                charged_cpu: Nanos::from_micros(250),
                ..GlobalTotals::default()
            },
            std::slice::from_ref(&r),
        );
        assert_eq!(m.containers[&3].totals.usage, r.usage);
        assert_eq!(m.globals.charged_cpu, Nanos::from_micros(250));
    }

    #[test]
    fn dump_is_deterministic_and_balanced() {
        let build = || {
            let mut m = Metrics::new(Nanos::from_millis(10));
            m.record_sample(Nanos::from_millis(10), &[row(0, 10), row(7, 20)]);
            m.record_sample(Nanos::from_millis(20), &[row(0, 30), row(7, 40)]);
            m.record_latency(7, Nanos::from_micros(900), Nanos::from_millis(20), 0);
            m.record_totals(GlobalTotals::default(), &[row(0, 30), row(7, 40)]);
            let session = TraceSession {
                trace: simcore::trace::TraceBuffer::default(),
                metrics: m,
                spans: None,
            };
            metrics_json(&session)
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"received_share\":"));
        assert!(a.contains("\"p999_ns\":"));
        assert!(!a.contains("\"spans\":"), "span section gated on capture");
        assert!(!a.contains("\"slo\":"), "slo section gated on registration");
    }

    #[test]
    fn nearest_rank_matches_convention() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 0.5), 500);
        assert_eq!(nearest_rank(&v, 0.99), 990);
        assert_eq!(nearest_rank(&v, 0.999), 999);
        assert_eq!(nearest_rank(&v, 1.0), 1000);
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.999), 7);
    }

    #[test]
    fn span_section_aggregates_blame_and_balances() {
        use simcore::span::SpanLedger;
        let mut phases = [Nanos::ZERO; NUM_PHASES];
        phases[Phase::CpuRun.index()] = Nanos::from_micros(10);
        phases[Phase::DiskQueue.index()] = Nanos::from_micros(90);
        let slow = SpanLedger {
            request: 1,
            container: 7,
            start: Nanos::ZERO,
            end: Nanos::from_micros(100),
            phases,
            log: vec![(Nanos::ZERO, Phase::CpuRun)],
            outcome: Outcome::Completed,
        };
        let mut fast = slow.clone();
        fast.request = 2;
        fast.end = Nanos::from_micros(20);
        fast.phases = [Nanos::ZERO; NUM_PHASES];
        fast.phases[Phase::CpuRun.index()] = Nanos::from_micros(20);
        let mut aborted = slow.clone();
        aborted.request = 3;
        aborted.outcome = Outcome::Aborted;
        let session = TraceSession {
            trace: simcore::trace::TraceBuffer::default(),
            metrics: Metrics::new(Nanos::from_millis(10)),
            spans: Some(SpanBuffer {
                ledgers: vec![slow, fast, aborted],
                minted: 3,
                finished: 3,
                dropped: 0,
            }),
        };
        let dump = metrics_json(&session);
        assert_eq!(dump.matches('{').count(), dump.matches('}').count());
        assert!(
            dump.contains("\"spans\":{\"minted\":3,\"finished\":3,\"retained\":3,\"dropped\":0")
        );
        assert!(dump.contains(
            "\"outcomes\":{\"completed\":2,\"dropped\":0,\"aborted\":1,\"unfinished\":0}"
        ));
        // The slowest request is all disk-queue: the p99 blame names it.
        assert!(dump.contains("\"p99_blame\":{\"phase\":\"disk-queue\""));
    }
}
