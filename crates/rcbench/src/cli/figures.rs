//! The paper's figures as scenario entries: §5.3 baseline, Figures
//! 11–14, §5.8 virtual servers, and the design-choice ablations. Each
//! renders the text table `results/<name>.txt` holds; `--reduced` runs an
//! abbreviated sweep. Where the figure sweep contains a run that is
//! worth opening in Perfetto, the entry traces it.

use rctrace::TraceConfig;
use rescon::{Attributes, ContainerTable};
use sched::{CoreScheduler, LotteryScheduler, MultiLevelScheduler, StrideScheduler, TaskId};
use simcore::Nanos;
use simos::KernelConfig;
use workload::scenarios::{
    run_baseline, run_fig11, run_fig12, run_fig14, run_virtual_servers, BaselineParams,
    Fig11Params, Fig11System, Fig12Params, Fig12System, Fig14Params, VsParams,
};

use super::registry::{traced, Outcome, ScenarioArgs};
use crate::{vs, Report};

fn reports(reports: Vec<Report>) -> Result<Outcome, String> {
    Ok(Outcome {
        reports,
        ..Outcome::default()
    })
}

/// §5.3 baseline throughput + §5.4 container-overhead check. Traces the
/// container-per-request run.
pub fn baseline(args: &ScenarioArgs) -> Result<Outcome, String> {
    let (clients, secs) = if args.reduced { (8, 2) } else { (24, 10) };
    let mut rep = Report::new("Baseline throughput (paper §5.3) and container overhead (§5.4)");

    let per_conn = run_baseline(BaselineParams {
        persistent: false,
        clients,
        secs,
        ..BaselineParams::default()
    });
    rep.line(format!(
        "connection-per-request : {}",
        vs(per_conn.requests_per_sec, 2954.0, " req/s")
    ));
    rep.line(format!(
        "  per-request CPU      : {}",
        vs(per_conn.cpu_per_request_us, 338.0, " us")
    ));

    let persistent = run_baseline(BaselineParams {
        persistent: true,
        clients,
        secs,
        ..BaselineParams::default()
    });
    rep.line(format!(
        "persistent connections : {}",
        vs(persistent.requests_per_sec, 9487.0, " req/s")
    ));
    rep.line(format!(
        "  per-request CPU      : {}",
        vs(persistent.cpu_per_request_us, 105.0, " us")
    ));
    rep.blank();

    // §5.4: container per request on the RC kernel.
    let rc_off = run_baseline(BaselineParams {
        kernel: KernelConfig::resource_containers(),
        per_request_containers: false,
        clients,
        secs,
        ..BaselineParams::default()
    });
    let mut session = None;
    let rc_on = traced(&mut session, TraceConfig::default(), || {
        run_baseline(BaselineParams {
            kernel: KernelConfig::resource_containers(),
            per_request_containers: true,
            clients,
            secs,
            ..BaselineParams::default()
        })
    });
    rep.line(format!(
        "RC kernel, shared containers   : {:.0} req/s",
        rc_off.requests_per_sec
    ));
    rep.line(format!(
        "RC kernel, container/request   : {:.0} req/s ({:+.1}%)",
        rc_on.requests_per_sec,
        (rc_on.requests_per_sec / rc_off.requests_per_sec - 1.0) * 100.0
    ));
    rep.line("paper: \"The throughput of the system remained effectively unchanged.\"");

    Ok(Outcome {
        reports: vec![rep],
        session,
        ..Outcome::default()
    })
}

/// Figure 11: response time of the high-priority client vs the number of
/// concurrent low-priority clients, for the three systems. Traces the
/// event-API system at 30 low-priority clients.
pub fn fig11(args: &ScenarioArgs) -> Result<Outcome, String> {
    let (sweep, secs): (&[usize], u64) = if args.reduced {
        (&[30], 2)
    } else {
        (&[0, 5, 10, 15, 20, 25, 30, 35], 6)
    };
    let systems = [
        Fig11System::Unmodified,
        Fig11System::RcSelect,
        Fig11System::RcEventApi,
    ];

    let mut rep = Report::new("Figure 11: T_high (ms) vs concurrent low-priority clients");
    rep.line(format!(
        "{:<6} {:>22} {:>22} {:>24}",
        "N", "without containers", "containers+select()", "containers+event API"
    ));
    let mut session = None;
    for &n in sweep {
        let mut row = format!("{n:<6}");
        for system in systems {
            let params = Fig11Params {
                system,
                low_clients: n,
                secs,
            };
            let r = if system == Fig11System::RcEventApi && n == 30 {
                traced(&mut session, TraceConfig::default(), || run_fig11(params))
            } else {
                run_fig11(params)
            };
            row.push_str(&format!("{:>22.3}", r.t_high_ms));
        }
        rep.line(row);
    }
    rep.blank();
    rep.line("paper shape: the unmodified curve rises sharply toward ~8-9 ms at N=35;");
    rep.line("containers+select() rises mildly (select scan cost); containers+event API");
    rep.line("stays nearly flat (only interrupt-level demux of low-priority packets).");

    Ok(Outcome {
        reports: vec![rep],
        session,
        ..Outcome::default()
    })
}

/// Figures 12 and 13: static throughput and CGI CPU share vs number of
/// concurrent CGI requests, for the four systems.
pub fn fig12_13(args: &ScenarioArgs) -> Result<Outcome, String> {
    let systems = [
        Fig12System::Unmodified,
        Fig12System::Lrp,
        Fig12System::Rc { limit: 0.30 },
        Fig12System::Rc { limit: 0.10 },
    ];
    // The paper uses 2 s CGI bursts over multi-minute measurements; we use
    // 0.5 s bursts over 20 s windows — same shapes, tractable runtime.
    let (sweep, static_clients, secs): (&[usize], usize, u64) = if args.reduced {
        (&[4], 16, 6)
    } else {
        (&[0, 1, 2, 3, 4, 5], 20, 20)
    };

    let mut results = Vec::new();
    for system in systems {
        let mut row = Vec::new();
        for &n in sweep {
            row.push(run_fig12(Fig12Params {
                system,
                cgi_clients: n,
                static_clients,
                cgi_cpu: Nanos::from_millis(500),
                secs,
            }));
        }
        results.push((system, row));
    }

    let mut fig12 = Report::new("Figure 12: HTTP throughput (req/s) vs concurrent CGI requests");
    let mut head = format!("{:<22}", "system \\ n");
    for &n in sweep {
        head.push_str(&format!("{n:>9}"));
    }
    fig12.line(head.clone());
    for (system, row) in &results {
        let mut line = format!("{:<22}", system.label());
        for r in row {
            line.push_str(&format!("{:>9.0}", r.static_throughput));
        }
        fig12.line(line);
    }
    fig12.blank();
    fig12.line("paper shape: Unmodified decays (~44% of max at n=4); LRP decays further");
    fig12.line("(exact fair share); RC 30% and RC 10% stay flat at ~(1-limit) of max.");

    let mut fig13 = Report::new("Figure 13: CGI CPU share (%) vs concurrent CGI requests");
    fig13.line(head);
    for (system, row) in &results {
        let mut line = format!("{:<22}", system.label());
        for r in row {
            line.push_str(&format!("{:>8.1}%", r.cgi_cpu_share * 100.0));
        }
        fig13.line(line);
    }
    fig13.blank();
    fig13.line("paper shape: LRP tracks n/(n+1); Unmodified runs slightly below it (the");
    fig13.line("server's kernel networking is over-credited); RC clamps at 30% / 10%.");
    reports(vec![fig12, fig13])
}

/// Figure 14: server throughput under SYN-flooding, unmodified vs
/// defended (resource containers + filter + priority-zero isolation).
/// Traces the defended server at 20k SYN/s (10k SYN/s reduced).
pub fn fig14(args: &ScenarioArgs) -> Result<Outcome, String> {
    // Full runs last 16 s: the measurement window must sit past the 5 s
    // expiry of the flood's half-open entries (steady state, like the
    // paper).
    let (rates, traced_rate, clients, secs): (&[f64], f64, usize, u64) = if args.reduced {
        (&[10_000.0, 50_000.0], 10_000.0, 8, 2)
    } else {
        (
            &[
                0.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0, 50_000.0, 70_000.0,
            ],
            20_000.0,
            24,
            16,
        )
    };

    let mut rep = Report::new("Figure 14: useful throughput (req/s) vs SYN-flood rate");
    rep.line(format!(
        "{:<14} {:>18} {:>22} {:>12} {:>12}",
        "SYNs/sec", "unmodified", "with containers", "early drops", "isolations"
    ));
    let mut session = None;
    for &rate in rates {
        let params = |defended| Fig14Params {
            defended,
            syn_rate: rate,
            clients,
            secs,
        };
        let plain = run_fig14(params(false));
        let defended = if rate == traced_rate {
            traced(&mut session, TraceConfig::default(), || {
                run_fig14(params(true))
            })
        } else {
            run_fig14(params(true))
        };
        rep.line(format!(
            "{:<14.0} {:>18.0} {:>22.0} {:>12} {:>12}",
            rate, plain.throughput, defended.throughput, defended.early_drops, defended.isolations
        ));
    }
    rep.blank();
    rep.line("paper shape: unmodified falls drastically, effectively zero by ~10k SYN/s;");
    rep.line("the defended server keeps ~73% of maximum even at 70k SYN/s (the residual");
    rep.line("loss is the interrupt cost of demultiplexing and discarding flood SYNs).");

    Ok(Outcome {
        reports: vec![rep],
        session,
        ..Outcome::default()
    })
}

/// §5.8: isolation of virtual servers (Rent-A-Server).
pub fn virtual_servers(args: &ScenarioArgs) -> Result<Outcome, String> {
    let (static_clients, secs) = if args.reduced { (12, 4) } else { (16, 15) };
    let mut rep = Report::new("§5.8: guest-server CPU isolation under fixed shares");
    let sections = [
        ("static-only load:", vec![static_clients; 3], None),
        // Mixed static + CGI, uneven client loads ("varying request loads").
        (
            "mixed static+CGI, uneven loads:",
            vec![24, 12, 8],
            Some(Nanos::from_millis(300)),
        ),
    ];
    for (title, clients_per_guest, cgi_cpu) in sections {
        let r = run_virtual_servers(VsParams {
            shares: vec![0.5, 0.3, 0.2],
            clients_per_guest,
            cgi_cpu,
            secs,
        });
        rep.line(title);
        rep.line(format!(
            "{:<10} {:>12} {:>12} {:>14}",
            "guest", "configured", "measured", "static req/s"
        ));
        for g in 0..3 {
            rep.line(format!(
                "guest-{g:<4} {:>11.1}% {:>11.1}% {:>14.0}",
                r.configured[g] * 100.0,
                r.measured[g] * 100.0,
                r.throughputs[g]
            ));
        }
        rep.blank();
    }
    rep.line("paper: \"the total CPU time consumed by each guest server exactly matched");
    rep.line("its allocation\"; each guest subdivides its own share internally.");
    reports(vec![rep])
}

/// Ablation studies for the design choices called out in DESIGN.md §5:
///
/// 1. Scheduler-binding pruning (§4.3) on/off.
/// 2. Lazy (container) vs eager (interrupt) protocol processing under
///    overload.
/// 3. Share-enforcement policy: hierarchical stride (multi-level) vs flat
///    stride vs lottery.
/// 4. `select()` vs the scalable event API at increasing connection counts.
/// 5. Early-demultiplexing cost sensitivity of the SYN-flood defense.
pub fn ablations(args: &ScenarioArgs) -> Result<Outcome, String> {
    reports(vec![
        ablation_prune(args.reduced),
        ablation_lazy_vs_eager(args.reduced),
        ablation_share_policy(),
        ablation_event_api(args.reduced),
        ablation_demux_cost(args.reduced),
    ])
}

/// 1. Scheduler-binding pruning: with pruning disabled, a multiplexed
///    thread keeps every container it ever served in its scheduler binding.
fn ablation_prune(reduced: bool) -> Report {
    let mut rep = Report::new("Ablation 1: scheduler-binding pruning (§4.3)");
    // The RC kernel prunes every second by default; compare against a
    // kernel that never prunes, measuring the binding growth indirectly
    // through per-request cost under container-per-request churn.
    for (label, prune) in [("pruning on (1s)", true), ("pruning off", false)] {
        let mut cfg = KernelConfig::resource_containers();
        if !prune {
            cfg.sched.prune_interval = Nanos::ZERO;
        }
        let r = run_baseline(BaselineParams {
            kernel: cfg,
            per_request_containers: true,
            clients: if reduced { 8 } else { 30 },
            secs: if reduced { 2 } else { 6 },
            persistent: false,
        });
        rep.line(format!(
            "  {label:<18}: {:>6.0} req/s, {:>5.1} us/request",
            r.requests_per_sec, r.cpu_per_request_us
        ));
    }
    rep.line("finding: identical — because this kernel also weeds *destroyed*");
    rep.line("containers from a binding at every rebind (DESIGN.md §9.4), periodic");
    rep.line("pruning only matters for live-but-idle containers (e.g. a dormant");
    rep.line("class a thread once served); with per-request containers the churn");
    rep.line("is fully absorbed by rebind weeding.");
    rep
}

/// 2. Lazy vs eager protocol processing under overload (receive livelock).
fn ablation_lazy_vs_eager(reduced: bool) -> Report {
    let mut rep = Report::new("Ablation 2: lazy (LRP/container) vs eager (interrupt) processing");
    for (label, defended) in [("eager interrupt", false), ("lazy containers", true)] {
        let r = run_fig14(Fig14Params {
            defended,
            syn_rate: 20_000.0,
            clients: 16,
            secs: if reduced { 2 } else { 16 },
        });
        rep.line(format!(
            "  {label:<18}: {:>6.0} req/s useful throughput under 20k SYN/s",
            r.throughput
        ));
    }
    rep.line("eager processing spends the whole CPU at interrupt level under flood");
    rep.line("(receive livelock); lazy classification drops excess traffic early.");
    rep
}

/// 3. Share enforcement: hierarchical stride vs flat stride vs lottery,
///    measured directly against the scheduler APIs.
fn ablation_share_policy() -> Report {
    let mut rep = Report::new("Ablation 3: fixed-share enforcement policy (70/30 target)");
    let run = |sched: &mut dyn CoreScheduler| -> f64 {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::fixed_share(0.7)).unwrap();
        let b = table.create(None, Attributes::fixed_share(0.3)).unwrap();
        let ca = table.create(Some(a), Attributes::time_shared(10)).unwrap();
        let cb = table.create(Some(b), Attributes::time_shared(10)).unwrap();
        sched.add_task(TaskId(1), &[ca], Nanos::ZERO);
        sched.add_task(TaskId(2), &[cb], Nanos::ZERO);
        sched.set_runnable(TaskId(1), true, Nanos::ZERO);
        sched.set_runnable(TaskId(2), true, Nanos::ZERO);
        let mut now = Nanos::ZERO;
        let mut cpu1 = Nanos::ZERO;
        let mut total = Nanos::ZERO;
        while now < Nanos::from_secs(2) {
            let Some(p) = sched.pick(&table, now) else {
                now += Nanos::from_millis(1);
                continue;
            };
            let dt = p.slice;
            let c = if p.task == TaskId(1) { ca } else { cb };
            table.charge_cpu(c, dt).unwrap();
            sched.charge(p.task, c, dt, &table, now + dt);
            if p.task == TaskId(1) {
                cpu1 += dt;
            }
            total += dt;
            now += dt;
        }
        cpu1.ratio(total)
    };
    let mut ml = MultiLevelScheduler::new();
    let mut st = StrideScheduler::new();
    let mut lo = LotteryScheduler::new(42);
    rep.line(format!(
        "  multi-level (hierarchical stride): {:.1}% (target 70.0%)",
        run(&mut ml) * 100.0
    ));
    rep.line(format!(
        "  flat stride (share->tickets)     : {:.1}%",
        run(&mut st) * 100.0
    ));
    rep.line(format!(
        "  lottery (share->tickets)         : {:.1}%",
        run(&mut lo) * 100.0
    ));
    rep.line("flat policies approximate the ratio via tickets but cannot honor");
    rep.line("nesting or CPU limits; the hierarchy-aware scheduler enforces both.");
    rep
}

/// 4. select() vs scalable event API as connections grow (Figure 11's
///    residual slope).
fn ablation_event_api(reduced: bool) -> Report {
    let mut rep = Report::new("Ablation 4: select() vs scalable event API (T_high, ms)");
    rep.line(format!("{:<6} {:>16} {:>16}", "N", "select()", "event API"));
    let (sweep, secs): (&[usize], u64) = if reduced {
        (&[5, 35], 2)
    } else {
        (&[5, 15, 25, 35], 5)
    };
    for &n in sweep {
        let t_high = |system| {
            run_fig11(Fig11Params {
                system,
                low_clients: n,
                secs,
            })
            .t_high_ms
        };
        rep.line(format!(
            "{n:<6} {:>16.3} {:>16.3}",
            t_high(Fig11System::RcSelect),
            t_high(Fig11System::RcEventApi)
        ));
    }
    rep.line("the select() slope is the per-descriptor scan cost (§5.5).");
    rep
}

/// 5. Demux-cost sensitivity of the flood defense: the residual throughput
///    loss at high SYN rates is the per-packet interrupt cost.
fn ablation_demux_cost(reduced: bool) -> Report {
    let mut rep = Report::new("Ablation 5: early-demux cost vs defended flood throughput");
    rep.line(format!(
        "{:<14} {:>22}",
        "demux cost", "throughput @50k SYN/s"
    ));
    let (costs, secs): (&[f64], u64) = if reduced {
        (&[2.0, 3.9], 2)
    } else {
        (&[2.0, 3.9, 8.0], 8)
    };
    for &demux_us in costs {
        // run_fig14 builds its own kernel; emulate the sweep by scaling
        // the rate instead (cost x rate is what matters), keeping the
        // public scenario API unchanged: rate' = rate * (cost/3.9).
        let eq_rate = 50_000.0 * (demux_us / 3.9);
        let r = run_fig14(Fig14Params {
            defended: true,
            syn_rate: eq_rate,
            clients: 16,
            secs,
        });
        rep.line(format!(
            "{:>10.1} us {:>18.0} req/s (modeled as {:.0} SYN/s at 3.9 us)",
            demux_us, r.throughput, eq_rate
        ));
    }
    rep.line("the product (demux cost x SYN rate) determines the stolen interrupt");
    rep.line("CPU and therefore the residual degradation (~27% at 70k in the paper).");
    rep
}
