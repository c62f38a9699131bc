//! `rcbench ab`: same-seed policy A/B harness — runs one scenario under
//! k policy arms and prints a structural diff of their metrics dumps.
//!
//! ```sh
//! cargo run --release -p rcbench -- ab --scenario span --arms decay,edf --check
//! cargo run --release -p rcbench -- ab --scenario span --arms decay,decay->edf@2s
//! cargo run --release -p rcbench -- ab --scenario qos --arms fifo,wfq
//! cargo run --release -p rcbench -- ab --scenario span --arms edf,edf --expect-identical
//! ```
//!
//! Every arm replays the *same* deterministic scenario — same virtual
//! clock, same client arrival schedule, same documents — so any
//! difference between two arms' metrics dumps is attributable to the
//! policy alone. CPU arms are full schedule specs (`decay->edf@2s`
//! swaps the scheduler mid-run through the `rcpolicy` lifecycle); link
//! arms are qdisc names. `--expect-identical` asserts all arms produced
//! byte-identical dumps (run the *same* arm twice to pin determinism);
//! `--check` asserts the EDF arm meets the paid tenant's tight latency
//! SLO where the decay-usage arm violates it — the harness's standing
//! CI claim.

use rcpolicy::{parse_cpu_schedule, parse_link, CpuSchedule};
use rctrace::TraceConfig;
use simos::QdiscKind;
use workload::scenarios::{run_qos_tenants, run_span_tenants, QosTenantsParams, SpanTenantsParams};

use crate::json::{self, Value};

/// One A/B arm: a CPU policy schedule or a link qdisc.
enum Arm {
    Cpu(CpuSchedule),
    Link(QdiscKind),
}

/// What one arm produced: the serialized metrics dump plus the headline
/// numbers the summary table and `--check` read.
struct ArmResult {
    label: String,
    metrics: String,
    /// Per-tenant p99 in ms, scenario order.
    p99_ms: Vec<f64>,
    /// (label, violations, total) per registered SLO.
    slos: Vec<(String, u64, u64)>,
}

/// A filesystem-safe slug for an arm label (`decay-usage->edf` and
/// `lottery:7` contain separator characters).
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// Recursively diffs two parsed JSON values, pushing one line per
/// differing leaf with its dotted path.
fn diff_values(a: &Value, b: &Value, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Value::Object(ma), Value::Object(mb)) => {
            for (k, va) in ma {
                match b.get(k) {
                    Some(vb) => diff_values(va, vb, &format!("{path}.{k}"), out),
                    None => out.push(format!("{path}.{k}: only in first arm")),
                }
            }
            for (k, _) in mb {
                if a.get(k).is_none() {
                    out.push(format!("{path}.{k}: only in second arm"));
                }
            }
        }
        (Value::Array(va), Value::Array(vb)) => {
            if va.len() != vb.len() {
                out.push(format!("{path}: {} vs {} elements", va.len(), vb.len()));
            }
            for (i, (ea, eb)) in va.iter().zip(vb).enumerate() {
                diff_values(ea, eb, &format!("{path}[{i}]"), out);
            }
        }
        (Value::Number(x), Value::Number(y)) if x != y => {
            out.push(format!(
                "{path}: {} vs {}",
                json::f64_string(*x),
                json::f64_string(*y)
            ));
        }
        _ => {
            if a != b {
                out.push(format!("{path}: values differ in kind"));
            }
        }
    }
}

/// Runs one arm of the span scenario: same seed and clients every time,
/// only the CPU policy schedule varies. The paid tenant serves dynamic
/// content (memory-backed documents, 1 ms of per-request parse/render
/// CPU) so its tail is bounded by CPU scheduling — the one resource the
/// arms differ on. Its 3 ms SLO doubles as its EDF latency target; the
/// free tenant's 400 ms target is deliberately loose, so under EDF the
/// paid tenant strictly preempts it (and, when saturating, starves it —
/// EDF buys the deadline, not fairness).
fn run_span_arm(sched: &CpuSchedule, reduced: bool) -> Result<ArmResult, String> {
    rctrace::start(TraceConfig::default());
    let r = run_span_tenants(SpanTenantsParams {
        // Paid stays at 4 clients in both sizes: its 3 ms SLO must be
        // *feasible* under ideal scheduling (4 closed-loop clients at
        // 1 ms parse each), so the full run scales free-side pressure
        // and duration instead.
        clients: if reduced { (4, 8) } else { (4, 16) },
        secs: if reduced { 4 } else { 8 },
        slo_ms: (3, 400),
        paid_cached: true,
        paid_parse_cost: Some(simcore::Nanos::from_millis(1)),
        scheduler: Some(sched.initial),
        cpu_swaps: sched.swaps.clone(),
        ..SpanTenantsParams::default()
    });
    let session = rctrace::finish().ok_or("no trace session captured")?;
    Ok(ArmResult {
        label: sched.label(),
        metrics: rctrace::metrics_json(&session),
        p99_ms: r.p99_ms,
        slos: session
            .metrics
            .slos
            .iter()
            .map(|s| (s.spec.label.clone(), s.violations, s.total))
            .collect(),
    })
}

/// Runs one arm of the qos scenario; only the transmit qdisc varies.
fn run_qos_arm(qdisc: QdiscKind, reduced: bool) -> Result<ArmResult, String> {
    rctrace::start(TraceConfig::default());
    let r = run_qos_tenants(QosTenantsParams {
        blast_clients: if reduced { 12 } else { 18 },
        secs: if reduced { 4 } else { 8 },
        qdisc,
        ..QosTenantsParams::default()
    });
    let session = rctrace::finish().ok_or("no trace session captured")?;
    println!(
        "  {}: gold {:.1}% / blast {:.1}% of wire time, {:.0}% utilized",
        r.qdisc,
        100.0 * r.tx_fractions[0],
        100.0 * r.tx_fractions[1],
        100.0 * r.utilization,
    );
    Ok(ArmResult {
        label: r.qdisc,
        metrics: rctrace::metrics_json(&session),
        p99_ms: Vec::new(),
        slos: Vec::new(),
    })
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    scenario: &str,
    arm_specs: &[String],
    reduced: bool,
    check: bool,
    expect_identical: bool,
    out: Option<String>,
) -> Result<(), String> {
    if arm_specs.len() < 2 {
        return Err("need at least two arms (--arms A,B)".into());
    }
    let arms: Vec<Arm> = arm_specs
        .iter()
        .map(|s| match scenario {
            "span" => parse_cpu_schedule(s)
                .map(Arm::Cpu)
                .ok_or_else(|| format!("bad CPU schedule '{s}'")),
            "qos" => parse_link(s)
                .map(Arm::Link)
                .ok_or_else(|| format!("bad qdisc '{s}'")),
            other => Err(format!("unknown scenario '{other}' (span|qos)")),
        })
        .collect::<Result<_, _>>()?;

    println!(
        "ab: scenario {scenario}, {} arms, same seed per arm",
        arms.len()
    );
    let mut results = Vec::new();
    for arm in &arms {
        let r = match arm {
            Arm::Cpu(s) => run_span_arm(s, reduced)?,
            Arm::Link(q) => run_qos_arm(*q, reduced)?,
        };
        if !r.p99_ms.is_empty() {
            println!(
                "  {}: paid p99 {:.2} ms, free p99 {:.2} ms",
                r.label, r.p99_ms[0], r.p99_ms[1]
            );
        }
        for (label, violations, total) in &r.slos {
            println!(
                "    slo {label}: {violations} violations over {total} windows [{}]",
                if *violations == 0 { "met" } else { "VIOLATED" },
            );
        }
        results.push(r);
    }

    let base = out.unwrap_or_else(|| format!("ab_{scenario}"));
    std::fs::create_dir_all("results").map_err(|e| e.to_string())?;
    for (i, r) in results.iter().enumerate() {
        let path = format!("results/{base}_{i}_{}_metrics.json", slug(&r.label));
        std::fs::write(&path, &r.metrics).map_err(|e| e.to_string())?;
        println!("  wrote {path}");
    }

    // Structural diff of every later arm against the first: parse both
    // dumps and walk them together, printing one line per differing
    // leaf (capped — the count is the headline).
    let first = json::parse(&results[0].metrics)
        .map_err(|e| format!("arm '{}' metrics not valid JSON: {e}", results[0].label))?;
    for r in &results[1..] {
        let other = json::parse(&r.metrics)
            .map_err(|e| format!("arm '{}' metrics not valid JSON: {e}", r.label))?;
        let mut lines = Vec::new();
        diff_values(&first, &other, "$", &mut lines);
        println!(
            "diff {} vs {}: {} differing leaves",
            results[0].label,
            r.label,
            lines.len()
        );
        const CAP: usize = 24;
        for line in lines.iter().take(CAP) {
            println!("  {line}");
        }
        if lines.len() > CAP {
            println!("  ... {} more", lines.len() - CAP);
        }
    }

    if expect_identical {
        for r in &results[1..] {
            if r.metrics != results[0].metrics {
                return Err(format!(
                    "arms '{}' and '{}' were expected to be byte-identical but differ",
                    results[0].label, r.label
                ));
            }
        }
        println!(
            "expect-identical ok: all {} arms byte-identical",
            results.len()
        );
    }

    if check {
        if scenario != "span" {
            return Err("--check only applies to the span scenario".into());
        }
        let paid = |r: &ArmResult| {
            r.slos
                .iter()
                .find(|(l, _, _)| l == "paid")
                .map(|&(_, v, _)| v)
        };
        let decay = results
            .iter()
            .find(|r| r.label == "decay-usage")
            .ok_or("--check needs a plain 'decay' arm")?;
        let edf = results
            .iter()
            .find(|r| r.label == "edf")
            .ok_or("--check needs a plain 'edf' arm")?;
        let dv = paid(decay).ok_or("decay arm registered no paid SLO")?;
        let ev = paid(edf).ok_or("edf arm registered no paid SLO")?;
        if dv == 0 {
            return Err(format!(
                "decay-usage was expected to violate the paid tenant's SLO \
                 (p99 {:.2} ms) but met it",
                decay.p99_ms[0]
            ));
        }
        if ev > 0 {
            return Err(format!(
                "edf was expected to meet the paid tenant's SLO but logged \
                 {ev} violations (p99 {:.2} ms)",
                edf.p99_ms[0]
            ));
        }
        println!(
            "check ok: decay-usage violates the paid SLO ({dv} violations, \
             p99 {:.2} ms); edf meets it (p99 {:.2} ms)",
            decay.p99_ms[0], edf.p99_ms[0]
        );
    }
    Ok(())
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut scenario = "span".to_string();
    let mut arm_specs = Vec::new();
    let mut reduced = false;
    let mut check = false;
    let mut expect_identical = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reduced" => reduced = true,
            "--check" => check = true,
            "--expect-identical" => expect_identical = true,
            "--scenario" => match it.next() {
                Some(s) => scenario = s.clone(),
                None => return Err("--scenario requires a name (span|qos)".into()),
            },
            "--arms" => match it.next() {
                Some(list) => arm_specs.extend(list.split(',').map(str::to_string)),
                None => return Err("--arms requires a comma-separated list".into()),
            },
            "--out" => match it.next() {
                Some(name) => out = Some(name.clone()),
                None => return Err("--out requires a name".into()),
            },
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if arm_specs.is_empty() {
        arm_specs = vec!["decay".to_string(), "edf".to_string()];
    }
    run_inner(&scenario, &arm_specs, reduced, check, expect_identical, out)
}
