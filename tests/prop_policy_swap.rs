//! Property tests for the `rcpolicy` hot-swap plane: random workloads
//! with random mid-run CPU policy swaps at random virtual times must
//! stay deterministic and keep every conservation law the no-swap kernel
//! guarantees. Accounting lives *below* the policy objects (the
//! container table and device totals), so replacing a policy mid-run
//! must never create, destroy, or re-attribute a nanosecond that was
//! already charged.

use proptest::prelude::*;
use resource_containers::prelude::*;

use httpsim::stats::shared_stats;
use simcore::Nanos;
use simos::SchedPolicyKind;

/// A compact description of a random workload.
#[derive(Clone, Debug)]
struct Mix {
    static_clients: u8,
    keepalive_clients: u8,
    think_ms: u16,
}

fn mix_strategy() -> impl Strategy<Value = Mix> {
    (1u8..6, 0u8..4, 0u16..20).prop_map(|(s, ka, think_ms)| Mix {
        static_clients: s,
        keepalive_clients: ka,
        think_ms,
    })
}

/// One mid-run CPU swap: (virtual time in ms, index into
/// [`CPU_KINDS`]).
type SwapSpec = (u64, u8);

fn swaps_strategy() -> impl Strategy<Value = Vec<SwapSpec>> {
    proptest::collection::vec((10u64..390, 0u8..5), 0..6)
}

const CPU_KINDS: [SchedPolicyKind; 5] = [
    SchedPolicyKind::DecayUsage,
    SchedPolicyKind::MultiLevel,
    SchedPolicyKind::Stride,
    SchedPolicyKind::Lottery(7),
    SchedPolicyKind::Edf,
];

/// What one swapped run produced, for determinism and conservation
/// checks.
struct SwapRun {
    served: u64,
    swaps_applied: usize,
    /// Per-CPU accounting covers the whole run and sums to the globals.
    cpu_conserved: bool,
    chrome: String,
    metrics: String,
    /// When the oldest record the trace ring kept was emitted.
    ring_from: Nanos,
}

/// Runs `mix` on a two-CPU kernel with a disk-backed server and a
/// finite WFQ link, applying `swaps` at their virtual times through
/// `Kernel::set_cpu_policy`.
fn run_swapped(mix: &Mix, swaps: &[SwapSpec]) -> SwapRun {
    rctrace::start(TraceConfig {
        ring_capacity: 1 << 16,
        sample_interval: Nanos::from_millis(10),
        spans: false,
    });
    let stats = shared_stats();
    let mut k = Kernel::new(
        KernelConfig::resource_containers()
            .with_ncpus(2)
            .with_link(40_000_000, QdiscKind::Wfq),
    );
    k.spawn_process(
        Box::new(EventDrivenServer::new(
            ServerConfig {
                files: httpsim::FileBacking::Disk { file_base: 0 },
                ..ServerConfig::default()
            },
            stats.clone(),
        )),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let mut specs = Vec::new();
    for i in 0..mix.static_clients {
        let mut s = ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1 + i), 0);
        s.think = Nanos::from_millis(mix.think_ms as u64);
        s.doc = i as u32 * 19;
        specs.push(s);
    }
    for i in 0..mix.keepalive_clients {
        specs.push(
            ClientSpec::staticloop(IpAddr::new(10, 0, 1, 1 + i), 1)
                .with_kind(ReqKind::StaticKeepAlive),
        );
    }
    let end = Nanos::from_millis(400);
    let mut clients = HttpClients::new(specs, Nanos::ZERO, end);
    clients.arm(&mut k);

    let mut schedule: Vec<SwapSpec> = swaps.to_vec();
    schedule.sort();
    let mut applied = 0;
    for &(at_ms, kind) in &schedule {
        k.run(&mut clients, Nanos::from_millis(at_ms));
        k.set_cpu_policy(CPU_KINDS[kind as usize % CPU_KINDS.len()]);
        applied += 1;
    }
    k.run(&mut clients, end);

    let per_cpu = k.per_cpu_stats();
    let elapsed = k.clock();
    let sum = |f: fn(&simos::CpuStats) -> Nanos| -> Nanos { per_cpu.iter().map(f).sum() };
    let g = k.stats();
    let cpu_conserved = per_cpu.iter().all(|c| c.total() == elapsed)
        && sum(|c| c.charged_cpu) == g.charged_cpu
        && sum(|c| c.interrupt_cpu) == g.interrupt_cpu
        && sum(|c| c.overhead_cpu) == g.overhead_cpu
        && sum(|c| c.idle_cpu) == g.idle_cpu;
    let session = rctrace::finish().expect("trace session active");
    let served = stats.borrow().static_served;
    SwapRun {
        served,
        swaps_applied: applied,
        cpu_conserved,
        chrome: chrome_trace_json(&session),
        metrics: metrics_json(&session),
        ring_from: session.trace.events.first().map_or(Nanos::ZERO, |e| e.at),
    }
}

/// Pulls the device conservation terms back out of the rendered metrics
/// dump (the same numbers `rctrace` exported, so a violation here is a
/// violation an operator would see).
fn conservation_from_metrics(metrics: &str) -> (bool, bool) {
    let v = rcbench_parse(metrics);
    let num = |path: &[&str]| -> f64 {
        let mut cur = &v;
        for p in path {
            cur = cur.get(p).unwrap_or(&rcbench::json::Value::Null);
        }
        cur.as_f64().unwrap_or(0.0)
    };
    let disk_ok = num(&["globals", "disk_busy_ns"])
        == num(&["globals", "root_subtree_disk_ns"])
            + num(&["globals", "floating_disk_ns"])
            + num(&["globals", "reaped_disk_ns"]);
    let tx_ok = num(&["link", "busy_ns"])
        == num(&["link", "root_subtree_tx_ns"])
            + num(&["link", "floating_tx_ns"])
            + num(&["link", "reaped_tx_ns"]);
    (disk_ok, tx_ok)
}

fn rcbench_parse(metrics: &str) -> rcbench::json::Value {
    rcbench::json::parse(metrics).expect("metrics dump is valid JSON")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hot-swapping any CPU scheduler at any virtual time is part of the
    /// determinism contract: same mix + same swap schedule,
    /// byte-identical artifacts — and CPU, disk, and link accounting
    /// all stay conserved across the swaps.
    #[test]
    fn swapped_runs_are_deterministic_and_conserved(
        mix in mix_strategy(),
        swaps in swaps_strategy(),
    ) {
        let a = run_swapped(&mix, &swaps);
        let b = run_swapped(&mix, &swaps);
        prop_assert_eq!(a.swaps_applied, swaps.len());
        prop_assert!(a.served > 0, "no requests served for {mix:?}");
        prop_assert!(a.cpu_conserved, "per-CPU accounting not conserved for {mix:?} {swaps:?}");
        prop_assert!(b.cpu_conserved);
        let (disk_ok, tx_ok) = conservation_from_metrics(&a.metrics);
        prop_assert!(disk_ok, "disk time not conserved for {mix:?} {swaps:?}");
        prop_assert!(tx_ok, "wire time not conserved for {mix:?} {swaps:?}");
        prop_assert_eq!(a.served, b.served);
        prop_assert_eq!(a.chrome, b.chrome, "swapped chrome trace not byte-identical");
        prop_assert_eq!(a.metrics, b.metrics, "swapped metrics dump not byte-identical");
    }

    /// Re-attaching the *currently running* CPU policy is still a real
    /// swap (fresh policy state attaches via export/import), and the
    /// workload must not notice: requests are served and every ledger
    /// still balances.
    #[test]
    fn identity_swaps_preserve_service_and_conservation(
        mix in mix_strategy(),
        at_ms in 50u64..350,
    ) {
        // MultiLevel, the boot policy of a resource-containers kernel.
        let r = run_swapped(&mix, &[(at_ms, 1)]);
        prop_assert_eq!(r.swaps_applied, 1);
        prop_assert!(r.served > 0, "identity swaps starved the workload for {mix:?}");
        prop_assert!(r.cpu_conserved);
        let (disk_ok, tx_ok) = conservation_from_metrics(&r.metrics);
        prop_assert!(disk_ok && tx_ok, "identity swaps broke device conservation");
    }
}

/// The gated metrics section: a run with at least one swap carries a
/// `policy` section recording it; the swaps array matches what was
/// applied, in order, and the chrome trace marks each swap on the CPU
/// track, even one whose trace record the ring has evicted.
#[test]
fn swap_runs_export_policy_section() {
    let mix = Mix {
        static_clients: 4,
        keepalive_clients: 1,
        think_ms: 0,
    };
    let plain = run_swapped(&mix, &[]);
    assert!(
        !plain.metrics.contains("\"policy\":"),
        "no-swap run must not grow a policy section"
    );
    // The trace ring keeps only the newest records: by the end of the run
    // it no longer holds the first swap's.
    let swapped = run_swapped(&mix, &[(100, 0), (250, 4), (320, 2)]);
    assert!(
        swapped.ring_from > Nanos::from_millis(100),
        "the ring still holds the first swap (from {:?})",
        swapped.ring_from
    );
    let v = rcbench_parse(&swapped.metrics);
    let swaps = v
        .get("policy")
        .and_then(|p| p.get("swaps"))
        .and_then(|s| s.as_array())
        .expect("policy.swaps array present");
    assert_eq!(swaps.len(), 3);
    for s in swaps {
        assert_eq!(s.get("plane").and_then(|v| v.as_str()), Some("cpu"));
    }
    let to: Vec<_> = swaps
        .iter()
        .map(|s| s.get("to").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(to, [Some("decay-usage"), Some("edf"), Some("stride")]);
    let epochs = v
        .get("policy")
        .and_then(|p| p.get("epochs"))
        .and_then(|e| e.as_array())
        .expect("policy.epochs array present");
    assert_eq!(
        epochs.len(),
        4,
        "three swaps partition the run into four epochs"
    );
    for swap in [
        "cpu policy multilevel-rc -> decay-usage",
        "cpu policy decay-usage -> edf",
        "cpu policy edf -> stride",
    ] {
        assert!(
            swapped.chrome.contains(swap),
            "chrome trace must mark `{swap}` on the CPU track"
        );
    }
}
