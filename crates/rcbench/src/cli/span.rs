//! `rcbench span`: runs the two-tenant `span_tenants` scenario (disk +
//! link + memory pressure) with per-request causal spans enabled and
//! prints the tail-latency *blame* report: for each tenant, the p99
//! tail's end-to-end latency partitioned across the nine-phase taxonomy.
//!
//! ```sh
//! cargo run --release -p rcbench -- span
//! cargo run --release -p rcbench -- span --reduced --check
//! ```
//!
//! Every run conservation-checks *all* captured ledgers — each span's
//! phase durations must sum exactly to its end-to-end latency in integer
//! nanoseconds — and fails unless the free tenant's deliberately
//! unreachable 2 ms p99 objective is flagged by the online SLO monitor
//! (the deterministic injected violation). `--check` additionally asserts
//! coverage: every phase of the taxonomy (including reclaim stalls) was
//! observed, most spans completed, and the ledger counters balance.

use std::collections::BTreeMap;

use rctrace::metrics::nearest_rank;
use rctrace::TraceConfig;
use simcore::span::{Outcome as SpanOutcome, Phase, SpanBuffer, SpanLedger, NUM_PHASES};
use workload::scenarios::{run_span_tenants, SpanTenantsParams};

use super::registry::{traced, Check, Outcome, ScenarioArgs};

/// Checks every ledger's conservation law: phase durations sum exactly
/// to end-to-end latency.
fn check_conservation(spans: &SpanBuffer) -> Result<(), String> {
    for l in &spans.ledgers {
        let e2e = l.end - l.start;
        if l.total() != e2e {
            return Err(format!(
                "conservation violated: span {} phase sum {} ns != e2e {} ns",
                l.request,
                l.total().as_nanos(),
                e2e.as_nanos()
            ));
        }
    }
    Ok(())
}

/// Appends one tenant's blame table to `out` and returns its per-phase
/// totals over the whole run (for the coverage check).
fn report_tenant(label: &str, ledgers: &[&SpanLedger], out: &mut Vec<String>) -> [u64; NUM_PHASES] {
    let completed: Vec<&&SpanLedger> = ledgers
        .iter()
        .filter(|l| l.outcome == SpanOutcome::Completed)
        .collect();
    let mut e2e: Vec<u64> = completed
        .iter()
        .map(|l| (l.end - l.start).as_nanos())
        .collect();
    e2e.sort_unstable();
    let p99 = nearest_rank(&e2e, 0.99);

    // The slow set: completed requests at or above the p99. Sum their
    // phase ledgers; conservation guarantees the column sums to the
    // slow set's total end-to-end time.
    let mut slow_phases = [0u64; NUM_PHASES];
    let mut slow_total = 0u64;
    let mut slow_n = 0u64;
    for l in &completed {
        if (l.end - l.start).as_nanos() >= p99 && p99 > 0 {
            for (i, p) in l.phases.iter().enumerate() {
                slow_phases[i] += p.as_nanos();
            }
            slow_total += (l.end - l.start).as_nanos();
            slow_n += 1;
        }
    }

    let mut run_phases = [0u64; NUM_PHASES];
    for l in ledgers {
        for (i, p) in l.phases.iter().enumerate() {
            run_phases[i] += p.as_nanos();
        }
    }

    out.push(format!(
        "tenant {label}: {} spans ({} completed), p50 {:.2} ms, p99 {:.2} ms",
        ledgers.len(),
        completed.len(),
        nearest_rank(&e2e, 0.50) as f64 / 1e6,
        p99 as f64 / 1e6,
    ));
    if slow_total > 0 {
        let mut shares: Vec<(Phase, u64)> = Phase::ALL
            .iter()
            .map(|&p| (p, slow_phases[p.index()]))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        shares.sort_by_key(|&(p, ns)| (std::cmp::Reverse(ns), p.index()));
        out.push(format!("  p99 blame ({slow_n} requests):"));
        for (p, ns) in shares {
            out.push(format!(
                "    {:<13} {:>6.1}%  {:>10.2} ms",
                p.label(),
                100.0 * ns as f64 / slow_total as f64,
                ns as f64 / 1e6,
            ));
        }
        let blame_sum: u64 = slow_phases.iter().sum();
        assert_eq!(
            blame_sum, slow_total,
            "blame table does not conserve the slow set's latency"
        );
    }
    run_phases
}

pub fn run(args: &ScenarioArgs) -> Result<Outcome, String> {
    let config = TraceConfig {
        spans: true,
        ..TraceConfig::default()
    };
    let mut session = None;
    let r = traced(&mut session, config, || {
        run_span_tenants(SpanTenantsParams {
            clients: if args.reduced { (4, 8) } else { (6, 12) },
            secs: if args.reduced { 4 } else { 8 },
            ..SpanTenantsParams::default()
        })
    });
    let session = session.ok_or("no trace session captured")?;
    let spans = session.spans.as_ref().ok_or("session captured no spans")?;
    if spans.ledgers.is_empty() {
        return Err("no span ledgers captured".into());
    }
    check_conservation(spans)?;

    let mut headline = vec![format!(
        "span_tenants: paid {:.0} req/s p99 {:.2} ms | free {:.0} req/s p99 {:.2} ms | \
         {} reclaims | {} spans minted, {} finished, {} evicted",
        r.throughputs[0],
        r.p99_ms[0],
        r.throughputs[1],
        r.p99_ms[1],
        r.reclaims,
        spans.minted,
        spans.finished,
        spans.dropped,
    )];

    // Tenant labels come from the registered SLOs: the scenario resolved
    // each tenant's container id by name, so the monitor state is the
    // id -> name map.
    let names: BTreeMap<u64, &str> = session
        .metrics
        .slos
        .iter()
        .map(|s| (s.spec.container, s.spec.label.as_str()))
        .collect();
    let mut by_container: BTreeMap<u64, Vec<&SpanLedger>> = BTreeMap::new();
    for l in &spans.ledgers {
        by_container.entry(l.container).or_default().push(l);
    }
    let mut run_phases = [0u64; NUM_PHASES];
    for (&c, ledgers) in &by_container {
        let label = names.get(&c).copied().unwrap_or("?");
        let t = report_tenant(label, ledgers, &mut headline);
        for (acc, ns) in run_phases.iter_mut().zip(t) {
            *acc += ns;
        }
    }

    // The injected SLO violation: the free tenant's 2 ms p99 objective is
    // unreachable behind a saturated disk, so the online monitor must
    // have flagged it — deterministically, on every run.
    for s in &session.metrics.slos {
        headline.push(format!(
            "slo {}: p{:.0} <= {:.1} ms -> {} of {} over threshold, {} violations [{}]",
            s.spec.label,
            s.spec.quantile * 100.0,
            s.spec.threshold.as_nanos() as f64 / 1e6,
            s.over,
            s.total,
            s.violations,
            if s.violations == 0 { "met" } else { "VIOLATED" },
        ));
    }
    let free = session
        .metrics
        .slos
        .iter()
        .find(|s| s.spec.label == "free")
        .ok_or("free tenant SLO not registered")?;
    if free.violations == 0 {
        return Err("injected SLO violation not flagged".into());
    }

    let completed = spans
        .ledgers
        .iter()
        .filter(|l| l.outcome == SpanOutcome::Completed)
        .count();
    let mut checks = vec![Check::new(
        "balanced",
        spans.minted == spans.finished,
        format!(
            "ledger counters unbalanced: {} minted vs {} finished",
            spans.minted, spans.finished
        ),
    )];
    for p in Phase::ALL {
        checks.push(Check::new(
            "coverage",
            run_phases[p.index()] > 0,
            format!("phase {} never observed in any span", p.label()),
        ));
    }
    checks.push(Check::new(
        "completion",
        completed * 2 >= spans.ledgers.len(),
        format!(
            "only {completed} of {} spans completed",
            spans.ledgers.len()
        ),
    ));

    Ok(Outcome {
        headline,
        checks,
        check_ok: "full phase coverage with balanced ledgers",
        session: Some(session),
        ..Outcome::default()
    })
}
