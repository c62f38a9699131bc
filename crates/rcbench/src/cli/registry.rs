//! The scenario table: one entry per `rcbench` subcommand except `ab`.
//!
//! Each [`ScenarioSpec`] names the flags it reads, the text reports and
//! trace artifacts it writes, and a runner that builds the scenario's
//! parameters from generic [`ScenarioArgs`], runs it (tracing where the
//! experiment's artifacts need a trace) and returns a structured
//! [`Outcome`]: headline lines to print, reports, trace sessions to
//! export and self-[`Check`]s for `--check`. The driver ([`super::driver`])
//! owns everything filesystem- and JSON-shaped: flag parsing, artifact
//! naming and validation, writing, exit codes.

use rctrace::{TraceConfig, TraceSession};
use simcore::Nanos;
use simos::{DiskSchedKind, QdiscKind};
use workload::scenarios::{
    run_cluster_tenants_traced, run_disk_tenants, run_memhog_tenants, run_qos_tenants,
    run_smp_tenants, run_synflood_fault, ClusterTenantsParams, ClusterTenantsResult,
    DiskTenantsParams, MemhogTenantsParams, QosTenantsParams, SmpTenantsParams,
    SynfloodFaultParams,
};

use super::{figures, span};
use crate::Report;

/// Generic arguments a scenario runner may consult. Unset options fall
/// back to each scenario's documented default.
#[derive(Clone, Debug, Default)]
pub struct ScenarioArgs {
    /// Run the abbreviated version.
    pub reduced: bool,
    /// CPU count (smp).
    pub ncpus: Option<u32>,
    /// Fault-plan seed (fault).
    pub seed: Option<u64>,
    /// Clients per tenant (cluster; the 1M-client nightly sets 500000).
    pub clients: Option<usize>,
    /// Backend node count (cluster).
    pub nodes: Option<u32>,
}

/// One self-check a scenario evaluates on its own run. The driver
/// enforces these under `--check`; they are always computed (they're
/// cheap).
#[derive(Clone, Debug)]
pub struct Check {
    /// Short name of the property.
    pub label: &'static str,
    /// Whether the run satisfied it.
    pub ok: bool,
    /// Human-readable detail (the failure message when `!ok`).
    pub detail: String,
}

impl Check {
    pub(crate) fn new(label: &'static str, ok: bool, detail: String) -> Self {
        Check { label, ok, detail }
    }
}

/// What a scenario run produced, for the driver to print and persist.
#[derive(Default)]
pub struct Outcome {
    /// Headline lines, printed in order.
    pub headline: Vec<String>,
    /// Self-checks (enforced under `--check`).
    pub checks: Vec<Check>,
    /// Message printed when every check passes.
    pub check_ok: &'static str,
    /// Text reports, one per [`ScenarioSpec::reports`] name, in order.
    pub reports: Vec<Report>,
    /// Single-kernel trace session to export (chrome + metrics).
    pub session: Option<TraceSession>,
    /// Per-node `(name, session)` pairs from a cluster run, exported as
    /// one merged Chrome trace with per-node track groups.
    pub cluster_sessions: Vec<(String, TraceSession)>,
    /// Full cluster result (JSON artifact + the determinism dump).
    pub cluster: Option<ClusterTenantsResult>,
}

/// The trace artifacts an entry writes next to its reports.
pub struct Trace {
    /// Base name of the artifacts.
    pub base: fn(&ScenarioArgs) -> String,
    /// Substrings the Chrome trace `<base>.json` must contain.
    pub chrome: &'static [&'static str],
    /// What is written beside the Chrome trace.
    pub kind: TraceKind,
}

/// The artifacts beside an entry's Chrome trace.
pub enum TraceKind {
    /// `<base>_metrics.json`: one kernel's metrics dump, which must
    /// contain these substrings.
    Metrics(&'static [&'static str]),
    /// `<base>_dump.txt` and `<base>_result.json`: a cluster run's
    /// deterministic state dump and structured result.
    Cluster,
}

/// A named scenario: metadata plus its runner.
pub struct ScenarioSpec {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line description for `rcbench help`.
    pub about: &'static str,
    /// Flags the entry reads besides `--reduced`; the driver rejects any
    /// other.
    pub flags: &'static [&'static str],
    /// Text reports, written as `results/<name>.txt`.
    pub reports: &'static [&'static str],
    /// Trace artifacts, if the entry traces a run.
    pub trace: Option<Trace>,
    /// Runs the scenario.
    pub run: fn(&ScenarioArgs) -> Result<Outcome, String>,
}

impl ScenarioSpec {
    /// Every path a run with `args` writes, in write order. `--reduced`
    /// appends `_reduced` to each name, so a reduced run never overwrites
    /// a full run's artifacts.
    pub fn paths(&self, args: &ScenarioArgs) -> Vec<String> {
        let tag = if args.reduced { "_reduced" } else { "" };
        let mut paths: Vec<String> = self
            .reports
            .iter()
            .map(|r| format!("results/{r}{tag}.txt"))
            .collect();
        if let Some(trace) = &self.trace {
            let base = (trace.base)(args);
            let suffixes: &[&str] = match trace.kind {
                TraceKind::Metrics(_) => &[".json", "_metrics.json"],
                TraceKind::Cluster => &[".json", "_dump.txt", "_result.json"],
            };
            paths.extend(suffixes.iter().map(|s| format!("results/{base}{tag}{s}")));
        }
        paths
    }
}

/// The scenario table behind `rcbench <subcommand>`, in listing order.
pub fn table() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "baseline",
            about: "§5.3 baseline throughput and §5.4 container overhead (traced)",
            flags: &[],
            reports: &["baseline"],
            trace: Some(kernel_trace(|_| "baseline".into(), &[], &[])),
            run: figures::baseline,
        },
        ScenarioSpec {
            name: "fig11",
            about: "Figure 11: high-priority response time vs low-priority load (traced)",
            flags: &[],
            reports: &["fig11"],
            trace: Some(kernel_trace(|_| "fig11".into(), &[], &[])),
            run: figures::fig11,
        },
        ScenarioSpec {
            name: "fig12_13",
            about: "Figures 12 and 13: static throughput and CGI CPU share vs CGI load",
            flags: &[],
            reports: &["fig12", "fig13"],
            trace: None,
            run: figures::fig12_13,
        },
        ScenarioSpec {
            name: "fig14",
            about: "Figure 14: throughput under SYN flooding, unmodified vs defended (traced)",
            flags: &[],
            reports: &["fig14"],
            trace: Some(kernel_trace(|_| "fig14".into(), &[], &[])),
            run: figures::fig14,
        },
        ScenarioSpec {
            name: "virtual_servers",
            about: "§5.8: guest-server CPU isolation under fixed shares",
            flags: &[],
            reports: &["virtual_servers"],
            trace: None,
            run: figures::virtual_servers,
        },
        ScenarioSpec {
            name: "ablations",
            about: "ablations of the design choices in DESIGN.md §5",
            flags: &[],
            reports: &[
                "ablation_prune",
                "ablation_lazy",
                "ablation_share_policy",
                "ablation_event_api",
                "ablation_demux_cost",
            ],
            trace: None,
            run: figures::ablations,
        },
        ScenarioSpec {
            name: "disk",
            about: "disk-bandwidth isolation: 70/30 fixed-share tenants vs FIFO (traced)",
            flags: &["--check"],
            reports: &["fig_disk"],
            trace: Some(kernel_trace(|_| "fig_disk".into(), &[], &[])),
            run: run_disk,
        },
        ScenarioSpec {
            name: "smp",
            about: "multiprocessor tenant shares with migration (traced)",
            flags: &["--check", "--ncpus"],
            reports: &[],
            trace: Some(kernel_trace(
                |a| format!("smp_ncpus{}", a.ncpus.unwrap_or(4)),
                &[],
                &[],
            )),
            run: run_smp,
        },
        ScenarioSpec {
            name: "qos",
            about: "link QoS: WFQ qdisc vs FIFO under a blast tenant (traced)",
            flags: &["--check"],
            reports: &[],
            trace: Some(kernel_trace(|_| "qos".into(), &["\"link\""], &["\"link\""])),
            run: run_qos,
        },
        ScenarioSpec {
            name: "fault",
            about: "SYN flood + seeded fault injection on the defended kernel (traced)",
            flags: &["--check", "--seed"],
            reports: &[],
            trace: Some(kernel_trace(|_| "fault".into(), &["\"fault\""], &[])),
            run: run_fault,
        },
        ScenarioSpec {
            name: "mem",
            about: "memory isolation: cache hog vs guaranteed tenant (traced)",
            flags: &["--check"],
            reports: &[],
            trace: Some(kernel_trace(|_| "mem".into(), &["mem_bytes"], &["\"mem\""])),
            run: run_mem,
        },
        ScenarioSpec {
            name: "span",
            about: "per-request causal spans: p99 blame per tenant, SLO monitors (traced)",
            flags: &["--check"],
            reports: &[],
            trace: Some(kernel_trace(
                |_| "span".into(),
                &["\"request\"", "SLO violation"],
                &["\"spans\"", "\"slo\""],
            )),
            run: span::run,
        },
        ScenarioSpec {
            name: "cluster",
            about: "cluster scale-out: global 70/30 split across 8 nodes (traced)",
            flags: &["--check", "--clients", "--nodes"],
            reports: &[],
            trace: Some(Trace {
                base: |_| "cluster".into(),
                chrome: &["node0 cpu"],
                kind: TraceKind::Cluster,
            }),
            run: run_cluster,
        },
    ]
}

/// Looks an entry up by subcommand name.
pub(crate) fn lookup(name: &str) -> Option<ScenarioSpec> {
    table().into_iter().find(|s| s.name == name)
}

fn kernel_trace(
    base: fn(&ScenarioArgs) -> String,
    chrome: &'static [&'static str],
    metrics: &'static [&'static str],
) -> Trace {
    Trace {
        base,
        chrome,
        kind: TraceKind::Metrics(metrics),
    }
}

/// Runs `f` under a trace session with `config` and stores the session
/// in `slot` for the driver to export.
pub(crate) fn traced<T>(
    slot: &mut Option<TraceSession>,
    config: TraceConfig,
    f: impl FnOnce() -> T,
) -> T {
    rctrace::start(config);
    let r = f();
    *slot = rctrace::finish();
    r
}

/// The §7 disk extension; traces the share-scheduled run at 8 hog
/// clients.
fn run_disk(args: &ScenarioArgs) -> Result<Outcome, String> {
    let secs = if args.reduced { 6 } else { 12 };
    let params = |sched: DiskSchedKind, hog_clients: usize| DiskTenantsParams {
        hog_clients,
        secs,
        sched,
        ..DiskTenantsParams::default()
    };

    let mut rep = Report::new("disk-bandwidth isolation: 70/30 fixed-share tenants");
    let mut session = None;
    rep.line("disk-time split at 8 hog clients:");
    rep.line(format!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "sched", "hog conf", "hog meas", "victim conf", "victim meas", "disk%"
    ));
    let fifo_at_8 = run_disk_tenants(params(DiskSchedKind::Fifo, 8));
    let share_at_8 = traced(&mut session, TraceConfig::default(), || {
        run_disk_tenants(params(DiskSchedKind::Share, 8))
    });
    for r in [&fifo_at_8, &share_at_8] {
        rep.line(format!(
            "{:<8} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}% {:>7.1}%",
            r.sched,
            r.configured[0] * 100.0,
            r.disk_fractions[0] * 100.0,
            r.configured[1] * 100.0,
            r.disk_fractions[1] * 100.0,
            r.utilization * 100.0,
        ));
    }
    rep.blank();

    rep.line("victim throughput vs hog load:");
    rep.line(format!(
        "{:<14} {:>10} {:>16} {:>16}",
        "hog clients", "sched", "victim req/s", "victim ms"
    ));
    let hog_loads: &[usize] = if args.reduced {
        &[2, 8]
    } else {
        &[2, 4, 8, 16]
    };
    let mut victim_share: Vec<f64> = Vec::new();
    for &hogs in hog_loads {
        for sched in [DiskSchedKind::Fifo, DiskSchedKind::Share] {
            let r = run_disk_tenants(params(sched, hogs));
            rep.line(format!(
                "{:<14} {:>10} {:>16.1} {:>16.1}",
                hogs, r.sched, r.throughputs[1], r.latencies_ms[1]
            ));
            if sched == DiskSchedKind::Share {
                victim_share.push(r.throughputs[1]);
            }
        }
    }
    rep.blank();
    rep.line("paper §7: \"the container mechanism is general enough to encompass");
    rep.line("other system resources, such as disk bandwidth\"; the share-aware");
    rep.line("I/O scheduler holds the victim's service flat under any hog load.");

    let mut checks = Vec::new();
    for (c, m) in share_at_8.configured.iter().zip(&share_at_8.disk_fractions) {
        checks.push(Check::new(
            "share-split",
            (c - m).abs() < 0.10,
            format!(
                "share scheduler: configured {:.0}% vs measured {:.1}%",
                c * 100.0,
                m * 100.0
            ),
        ));
    }
    let flat = victim_share.last().copied().unwrap_or(0.0)
        >= 0.8 * victim_share.first().copied().unwrap_or(0.0);
    checks.push(Check::new(
        "victim-flat",
        flat,
        format!(
            "share-scheduled victim throughput {:.1} req/s at max hog load vs {:.1} at min",
            victim_share.last().copied().unwrap_or(0.0),
            victim_share.first().copied().unwrap_or(0.0)
        ),
    ));

    Ok(Outcome {
        checks,
        check_ok: "share scheduler holds the 70/30 split and the victim stays flat",
        reports: vec![rep],
        session,
        ..Outcome::default()
    })
}

fn run_smp(args: &ScenarioArgs) -> Result<Outcome, String> {
    let ncpus = args.ncpus.unwrap_or(4);
    let params = SmpTenantsParams {
        ncpus,
        clients_per_tenant: if args.reduced { 16 } else { 24 },
        parse_cost: Nanos::from_micros(200),
        secs: if args.reduced { 4 } else { 10 },
        ..SmpTenantsParams::default()
    };

    let mut session = None;
    let r = traced(&mut session, TraceConfig::default(), || {
        run_smp_tenants(params)
    });

    let headline = vec![format!(
        "smp_tenants ncpus={}: shares {} | {:.0} req/s total | {} migrations | busy {}",
        r.ncpus,
        r.configured
            .iter()
            .zip(&r.measured)
            .map(|(c, m)| format!("{:.0}%->{:.1}%", c * 100.0, m * 100.0))
            .collect::<Vec<_>>()
            .join(" "),
        r.total_throughput,
        r.migrations,
        r.busy_fraction
            .iter()
            .map(|b| format!("{:.0}%", b * 100.0))
            .collect::<Vec<_>>()
            .join("/"),
    )];

    let mut checks = Vec::new();
    for (c, m) in r.configured.iter().zip(&r.measured) {
        checks.push(Check::new(
            "share",
            (c - m).abs() < 0.05,
            format!(
                "configured {:.0}% but measured {:.1}%",
                c * 100.0,
                m * 100.0
            ),
        ));
    }
    checks.push(Check::new(
        "migrations",
        if ncpus > 1 {
            r.migrations > 0
        } else {
            r.migrations == 0
        },
        if ncpus > 1 {
            "balancer never migrated a thread".to_string()
        } else {
            format!("uniprocessor run migrated {} threads", r.migrations)
        },
    ));

    Ok(Outcome {
        headline,
        checks,
        check_ok: "every tenant within 5 points of its share",
        session,
        ..Outcome::default()
    })
}

fn run_qos(args: &ScenarioArgs) -> Result<Outcome, String> {
    let params = QosTenantsParams {
        blast_clients: if args.reduced { 18 } else { 24 },
        secs: if args.reduced { 6 } else { 10 },
        ..QosTenantsParams::default()
    };

    // The FIFO ablation first (untraced), then the WFQ run under tracing.
    let fifo = run_qos_tenants(QosTenantsParams {
        qdisc: QdiscKind::Fifo,
        ..params.clone()
    });
    let mut session = None;
    let wfq = traced(&mut session, TraceConfig::default(), || {
        run_qos_tenants(params)
    });

    let headline = vec![format!(
        "qos_tenants: wfq gold/blast {:.1}%/{:.1}% of wire time (configured \
         {:.0}%/{:.0}%) at {:.0}% utilization | fifo gold/blast {:.1}%/{:.1}% | \
         gold throughput {:.0} req/s under wfq vs {:.0} under fifo",
        wfq.tx_fractions[0] * 100.0,
        wfq.tx_fractions[1] * 100.0,
        wfq.configured[0] * 100.0,
        wfq.configured[1] * 100.0,
        wfq.utilization * 100.0,
        fifo.tx_fractions[0] * 100.0,
        fifo.tx_fractions[1] * 100.0,
        wfq.throughputs[0],
        fifo.throughputs[0],
    )];

    let mut checks = vec![Check::new(
        "saturation",
        wfq.utilization >= 0.9,
        format!("link only {:.0}% utilized", wfq.utilization * 100.0),
    )];
    for (c, m) in wfq.configured.iter().zip(&wfq.tx_fractions) {
        checks.push(Check::new(
            "share",
            (c - m).abs() < 0.05,
            format!(
                "configured {:.0}% vs measured {:.1}% under wfq",
                c * 100.0,
                m * 100.0
            ),
        ));
    }
    checks.push(Check::new(
        "ablation",
        fifo.tx_fractions[0] < 0.45,
        format!(
            "fifo still gave the gold tenant {:.1}%",
            fifo.tx_fractions[0] * 100.0
        ),
    ));
    checks.push(Check::new(
        "protection",
        wfq.throughputs[0] > 1.5 * fifo.throughputs[0],
        format!(
            "gold {:.0} req/s under wfq vs {:.0} under fifo",
            wfq.throughputs[0], fifo.throughputs[0]
        ),
    ));

    Ok(Outcome {
        headline,
        checks,
        check_ok: "wfq holds the 3:1 split; fifo collapses under the blast tenant",
        session,
        ..Outcome::default()
    })
}

fn run_fault(args: &ScenarioArgs) -> Result<Outcome, String> {
    let params = SynfloodFaultParams {
        clients: if args.reduced { 8 } else { 12 },
        fault_seed: args.seed.unwrap_or(7),
        ..SynfloodFaultParams::default()
    };

    // The fault-free, flood-free baseline first (untraced), then the
    // faulted run under tracing.
    let base = run_synflood_fault(params.baseline());
    let mut session = None;
    let r = traced(&mut session, TraceConfig::default(), || {
        run_synflood_fault(params.clone())
    });

    let headline = vec![format!(
        "synflood_fault ncpus={} seed={}: {:.0} req/s (baseline {:.0}) | p99 {:.2} ms \
         (baseline {:.2}) | {} net + {} client faults | {} syns, {} early drops, \
         attacker pays {:.1}% | {} isolations",
        params.ncpus,
        params.fault_seed,
        r.throughput,
        base.throughput,
        r.p99_ms,
        base.p99_ms,
        r.net_faults,
        r.client_faults,
        r.syns_sent,
        r.early_drops,
        r.attacker_drop_share * 100.0,
        r.isolations,
    )];

    let checks = vec![
        Check::new(
            "degradation",
            r.throughput >= 0.9 * base.throughput,
            format!(
                "{:.0} req/s under faults vs {:.0} baseline",
                r.throughput, base.throughput
            ),
        ),
        Check::new(
            "latency",
            r.p99_ms <= 2.0 * base.p99_ms.max(0.5),
            format!("p99 {:.2} ms vs baseline {:.2} ms", r.p99_ms, base.p99_ms),
        ),
        Check::new(
            "charging",
            r.attacker_drop_share >= 0.95,
            format!(
                "attacker absorbed only {:.1}% of drop charges",
                r.attacker_drop_share * 100.0
            ),
        ),
        Check::new(
            "injection",
            r.net_faults > 0 && r.client_faults > 0,
            "a fault category never fired".to_string(),
        ),
    ];

    Ok(Outcome {
        headline,
        checks,
        check_ok: "graceful degradation with attacker-pays charging",
        session,
        ..Outcome::default()
    })
}

fn run_mem(args: &ScenarioArgs) -> Result<Outcome, String> {
    let params = MemhogTenantsParams {
        secs: if args.reduced { 6 } else { 12 },
        ..MemhogTenantsParams::default()
    };

    let mut session = None;
    let r = traced(&mut session, TraceConfig::default(), || {
        run_memhog_tenants(params)
    });

    let headline = vec![format!(
        "memhog_tenants: guaranteed hit rate {:.1}% shared vs {:.1}% solo | \
         p99 {:.2} ms shared vs {:.2} ms solo | {:.0} req/s shared vs {:.0} solo | \
         hog: {} reclaims ({} KiB), {} oom kills, {} refusals, {} pressure events",
        r.shared.cache_hit_rate * 100.0,
        r.solo.cache_hit_rate * 100.0,
        r.shared.p99_ms,
        r.solo.p99_ms,
        r.shared.throughput,
        r.solo.throughput,
        r.mem.reclaims,
        r.mem.reclaimed_bytes / 1024,
        r.mem.oom_kills,
        r.mem.refusals,
        r.mem.pressure_events,
    )];

    let checks = vec![
        Check::new(
            "reclaim",
            r.mem.reclaims > 0,
            "hog never lost a cache page".to_string(),
        ),
        Check::new(
            "oom",
            r.mem.oom_kills > 0,
            "hog never OOM-killed".to_string(),
        ),
        Check::new(
            "baseline",
            r.solo.cache_hit_rate > 0.9,
            format!("solo hit rate only {:.1}%", r.solo.cache_hit_rate * 100.0),
        ),
        Check::new(
            "isolation-hits",
            r.shared.cache_hit_rate >= 0.95 * r.solo.cache_hit_rate,
            format!(
                "hit rate fell {:.1}% -> {:.1}%",
                r.solo.cache_hit_rate * 100.0,
                r.shared.cache_hit_rate * 100.0
            ),
        ),
        Check::new(
            "isolation-p99",
            r.shared.p99_ms <= 1.05 * r.solo.p99_ms.max(0.01),
            format!(
                "p99 grew {:.2} ms -> {:.2} ms",
                r.solo.p99_ms, r.shared.p99_ms
            ),
        ),
    ];

    Ok(Outcome {
        headline,
        checks,
        check_ok: "hog reclaimed and OOM-killed; guaranteed tenant within 5% of solo",
        session,
        ..Outcome::default()
    })
}

fn run_cluster(args: &ScenarioArgs) -> Result<Outcome, String> {
    let mut params = if args.reduced {
        ClusterTenantsParams::reduced()
    } else {
        ClusterTenantsParams::default()
    };
    if let Some(n) = args.nodes {
        params.nodes = n;
    }
    if let Some(c) = args.clients {
        params.clients_per_tenant = c;
    }

    // Bound each node's retained ring: eight full kernels at the default
    // 1M-event ring would merge into a >100 MB artifact.
    let (r, sessions) = run_cluster_tenants_traced(
        params,
        TraceConfig {
            ring_capacity: 1 << 14,
            ..TraceConfig::default()
        },
    );

    let headline = vec![
        format!(
            "cluster_tenants nodes={} clients={}: split {} | {:.0} req/s total | \
             {} placements, {} drains -> replicas {:?}",
            r.nodes,
            r.clients,
            r.configured
                .iter()
                .zip(&r.measured)
                .map(|(c, m)| format!("{:.0}%->{:.1}%", c * 100.0, m * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
            r.total_throughput,
            r.placements.len(),
            r.drains.len(),
            r.replicas,
        ),
        format!(
            "  lanes: {} forwarded, {} assigned, {} unroutable | wire {:.3} ms busy vs \
             {:.3} ms charged ({}) | {} kernel events",
            r.forwarded,
            r.assigned,
            r.unroutable,
            r.lane_busy_ns as f64 / 1e6,
            r.tx_wire_ns as f64 / 1e6,
            if r.conserved { "conserved" } else { "LEAKED" },
            r.sim_events,
        ),
    ];

    let mut checks = vec![
        Check::new(
            "conservation",
            r.conserved,
            format!(
                "lane busy {} ns vs tx charged {} ns",
                r.lane_busy_ns, r.tx_wire_ns
            ),
        ),
        Check::new(
            "placement",
            !r.placements.is_empty(),
            "bronze starts capacity-confined; the orchestrator never placed".to_string(),
        ),
        Check::new(
            "routable",
            r.unroutable == 0,
            format!("{} packets had no route", r.unroutable),
        ),
    ];
    for (c, m) in r.configured.iter().zip(&r.measured) {
        checks.push(Check::new(
            "global-split",
            (c - m).abs() <= 0.02,
            format!(
                "configured {:.0}% vs measured {:.1}% globally",
                c * 100.0,
                m * 100.0
            ),
        ));
    }

    Ok(Outcome {
        headline,
        checks,
        check_ok: "global split within 2 points after rebalance, wire accounting conserved",
        cluster_sessions: sessions,
        cluster: Some(r),
        ..Outcome::default()
    })
}
