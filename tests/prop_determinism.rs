//! Property tests at workspace level: arbitrary client mixes must run
//! deterministically and keep kernel accounting conserved.

use proptest::prelude::*;
use resource_containers::prelude::*;

use httpsim::stats::shared_stats;
use simcore::fault::FaultPlan;
use simcore::span::SpanBuffer;
use simcore::Nanos;

/// A compact description of a random workload.
#[derive(Clone, Debug)]
struct Mix {
    static_clients: u8,
    keepalive_clients: u8,
    think_ms: u16,
    kernel: u8,
}

fn mix_strategy() -> impl Strategy<Value = Mix> {
    (1u8..6, 0u8..4, 0u16..20, 0u8..3).prop_map(|(s, ka, think_ms, kernel)| Mix {
        static_clients: s,
        keepalive_clients: ka,
        think_ms,
        kernel,
    })
}

fn run_mix(mix: &Mix) -> (u64, u64, Nanos) {
    let kernel = match mix.kernel {
        0 => KernelConfig::unmodified(),
        1 => KernelConfig::lrp(),
        _ => KernelConfig::resource_containers(),
    };
    let stats = shared_stats();
    let mut k = Kernel::new(kernel);
    k.spawn_process(
        Box::new(EventDrivenServer::new(
            ServerConfig::default(),
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
        specs.push(s);
    }
    for i in 0..mix.keepalive_clients {
        specs.push(
            ClientSpec::staticloop(IpAddr::new(10, 0, 1, 1 + i), 1)
                .with_kind(ReqKind::StaticKeepAlive),
        );
    }
    let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_millis(400));
    clients.arm(&mut k);
    k.run(&mut clients, Nanos::from_millis(400));
    let served = stats.borrow().static_served;
    (served, k.stats().pkts_in, k.stats().charged_cpu)
}

/// `run_mix` with tracing on; returns the same result tuple plus both
/// rendered observability artifacts.
fn run_mix_traced(mix: &Mix) -> ((u64, u64, Nanos), String, String) {
    rctrace::start(TraceConfig {
        ring_capacity: 1 << 16,
        sample_interval: Nanos::from_millis(10),
        spans: false,
    });
    let result = run_mix(mix);
    let session = rctrace::finish().expect("trace session active");
    (result, chrome_trace_json(&session), metrics_json(&session))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The simulation is a pure function of its configuration.
    #[test]
    fn identical_runs_identical_results(mix in mix_strategy()) {
        let a = run_mix(&mix);
        let b = run_mix(&mix);
        prop_assert_eq!(a, b);
    }

    /// Whatever the mix, the kernel serves and accounting stays sane.
    #[test]
    fn any_mix_serves_and_accounts(mix in mix_strategy()) {
        let (served, pkts, charged) = run_mix(&mix);
        prop_assert!(served > 0, "no requests served for {mix:?}");
        prop_assert!(pkts > 0);
        prop_assert!(charged > Nanos::ZERO);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The exporters are pure too: same seed, byte-identical artifacts —
    /// and tracing observes the run without perturbing it.
    #[test]
    fn traced_runs_are_deterministic_and_unperturbed(mix in mix_strategy()) {
        let untraced = run_mix(&mix);
        let (a, chrome_a, metrics_a) = run_mix_traced(&mix);
        let (b, chrome_b, metrics_b) = run_mix_traced(&mix);
        prop_assert_eq!(a, untraced, "tracing changed the simulation for {:?}", mix);
        prop_assert_eq!(a, b);
        prop_assert_eq!(chrome_a, chrome_b, "chrome trace not byte-identical");
        prop_assert_eq!(metrics_a, metrics_b, "metrics dump not byte-identical");
    }
}

/// An aggressive all-category fault plan for determinism tests (client
/// faults ride on the same plan via the workload's injector).
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_packet_faults(0.01, 0.005, 0.02, Nanos::from_micros(100))
        .with_client_faults(0.01, 0.01, 0.02, Nanos::from_micros(100))
        .with_window(Nanos::from_millis(100), Nanos::from_millis(200), 4.0)
}

/// One traced, faulted run of `mix` with fault seed `seed`.
struct FaultRun {
    served: u64,
    /// Faults injected by kernel + workload.
    injected: u64,
    chrome: String,
    /// Per-CPU accounting conservation: on every CPU, charged +
    /// interrupt + overhead + idle covers the whole run, and the
    /// per-CPU buckets sum to the global ones.
    conserved: bool,
    /// Wire time spent by the finite link (zero when no link is
    /// configured).
    link_busy: Nanos,
    /// Transmit conservation from the metrics globals: every charged
    /// wire nanosecond is in exactly one subtree (root, floating, or
    /// reaped).
    tx_conserved: bool,
    /// Drained request-span ledgers (`None` unless spans were on).
    spans: Option<SpanBuffer>,
}

/// `link = true` puts a finite 40 Mbit/s WFQ link on the transmit path,
/// so every faulted run also exercises wire-time charging, send
/// backpressure, and link-queue drops under packet loss + SMP.
/// `spans = true` additionally records per-request causal spans.
fn run_fault_mix(mix: &Mix, seed: u64, link: bool, spans: bool) -> FaultRun {
    rctrace::start(TraceConfig {
        ring_capacity: 1 << 16,
        sample_interval: Nanos::from_millis(10),
        spans,
    });
    let mut kernel = match mix.kernel {
        0 => KernelConfig::unmodified(),
        1 => KernelConfig::lrp(),
        _ => KernelConfig::resource_containers(),
    }
    .with_ncpus(2)
    .with_fault(fault_plan(seed))
    .with_admission(32);
    if link {
        kernel = kernel.with_link(40_000_000, QdiscKind::Wfq);
    }
    let stats = shared_stats();
    let mut k = Kernel::new(kernel);
    k.spawn_process(
        Box::new(EventDrivenServer::new(
            ServerConfig::default(),
            stats.clone(),
        )),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let mut specs = Vec::new();
    for i in 0..mix.static_clients {
        let mut s = ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1 + i), 0)
            .with_timeout(Nanos::from_millis(40))
            .with_backoff(Nanos::from_millis(2));
        s.think = Nanos::from_millis(mix.think_ms as u64);
        specs.push(s);
    }
    for i in 0..mix.keepalive_clients {
        specs.push(
            ClientSpec::staticloop(IpAddr::new(10, 0, 1, 1 + i), 1)
                .with_kind(ReqKind::StaticKeepAlive)
                .with_timeout(Nanos::from_millis(40))
                .with_backoff(Nanos::from_millis(2)),
        );
    }
    let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_millis(400))
        .with_faults(&fault_plan(seed));
    clients.arm(&mut k);
    k.run(&mut clients, Nanos::from_millis(400));

    let per_cpu = k.per_cpu_stats();
    let elapsed = k.clock();
    let sum = |f: fn(&simos::CpuStats) -> Nanos| -> Nanos { per_cpu.iter().map(f).sum() };
    let g = k.stats();
    let conserved = per_cpu.iter().all(|c| c.total() == elapsed)
        && sum(|c| c.charged_cpu) == g.charged_cpu
        && sum(|c| c.interrupt_cpu) == g.interrupt_cpu
        && sum(|c| c.overhead_cpu) == g.overhead_cpu
        && sum(|c| c.idle_cpu) == g.idle_cpu;
    let injected = k.fault_counts().total() + clients.fault_counts().total();
    let session = rctrace::finish().expect("trace session active");
    let served = stats.borrow().static_served;
    let g = &session.metrics.globals;
    let tx_conserved = g.root_subtree_tx + g.floating_tx + g.reaped_tx == g.link_busy;
    FaultRun {
        served,
        injected,
        chrome: chrome_trace_json(&session),
        conserved,
        link_busy: g.link_busy,
        tx_conserved,
        spans: session.spans.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault injection is part of the determinism contract: same seed
    /// and plan, byte-identical Chrome export — and accounting stays
    /// conserved per CPU with faults flying.
    #[test]
    fn faulted_runs_are_deterministic(mix in mix_strategy()) {
        let a = run_fault_mix(&mix, 41, false, false);
        let b = run_fault_mix(&mix, 41, false, false);
        prop_assert!(a.injected > 0, "plan injected nothing for {mix:?}");
        prop_assert!(a.conserved, "per-CPU accounting not conserved for {mix:?}");
        prop_assert_eq!(a.served, b.served);
        prop_assert_eq!(a.injected, b.injected);
        prop_assert_eq!(a.chrome, b.chrome, "faulted chrome trace not byte-identical");
    }

    /// With a finite WFQ link on the transmit path, faulted SMP runs
    /// stay deterministic and *transmit* accounting is conserved too:
    /// every wire nanosecond the link spent is charged to exactly one
    /// container subtree, with packet faults flying.
    #[test]
    fn linked_faulted_runs_conserve_tx(mix in mix_strategy()) {
        let a = run_fault_mix(&mix, 43, true, false);
        let b = run_fault_mix(&mix, 43, true, false);
        prop_assert!(a.link_busy > Nanos::ZERO, "link never transmitted for {mix:?}");
        prop_assert!(a.tx_conserved, "tx accounting not conserved for {mix:?}");
        prop_assert!(b.tx_conserved);
        prop_assert!(a.conserved, "per-CPU accounting not conserved for {mix:?}");
        prop_assert_eq!(a.served, b.served);
        prop_assert_eq!(a.injected, b.injected);
        prop_assert_eq!(a.chrome, b.chrome, "linked faulted chrome trace not byte-identical");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// rcspan's two structural invariants survive the worst conditions
    /// the simulator can compose — faults flying, two CPUs, a finite
    /// WFQ link: every span minted is closed by the time the session
    /// drains, and every ledger's phase durations sum *exactly* to its
    /// end-to-end latency in integer nanoseconds. Recording spans must
    /// also leave the simulation itself untouched.
    #[test]
    fn spans_close_and_conserve_under_faults(mix in mix_strategy()) {
        let plain = run_fault_mix(&mix, 47, true, false);
        let spanned = run_fault_mix(&mix, 47, true, true);
        prop_assert_eq!(
            spanned.served, plain.served,
            "span recording perturbed the run for {:?}", &mix
        );
        prop_assert_eq!(spanned.injected, plain.injected);
        prop_assert!(spanned.conserved);

        let buf = spanned.spans.expect("span session was on");
        prop_assert!(buf.minted > 0, "no spans minted for {:?}", &mix);
        prop_assert_eq!(
            buf.minted, buf.finished,
            "a minted span never closed for {:?}", &mix
        );
        prop_assert_eq!(buf.dropped, 0, "retention cap hit in a mini run");
        for l in &buf.ledgers {
            prop_assert!(l.end >= l.start, "span {} runs backwards", l.request);
            prop_assert_eq!(
                l.total(), l.end - l.start,
                "span {} leaks time: phases sum to {:?}, e2e {:?}",
                l.request, l.total(), l.end - l.start
            );
        }
    }
}

/// Runs `clients` static clients against a linked kernel whose server
/// container carries `sockbuf_limit = limit`, sampling the container's
/// unsent-byte backlog at eight staged points during the run. Returns
/// `(served, backlog_ok)` where `backlog_ok` means the reservation
/// never exceeded the limit at any observation point.
fn run_sockbuf_mix(limit: u64, clients: u8, response_kib: u64) -> (u64, bool) {
    let stats = shared_stats();
    let mut k =
        Kernel::new(KernelConfig::resource_containers().with_link(20_000_000, QdiscKind::Wfq));
    let pid = k.spawn_process(
        Box::new(EventDrivenServer::new(
            ServerConfig {
                response_bytes: response_kib * 1024,
                // Connections share the process-default container, so
                // the limit under test is the one charged at the link.
                container_per_connection: false,
                ..ServerConfig::default()
            },
            stats.clone(),
        )),
        "httpd",
        None,
        Attributes::time_shared(10).with_sockbuf_limit(limit),
        None,
    );
    let principal = k.process_container(pid).expect("server process exists");
    let specs: Vec<ClientSpec> = (0..clients)
        .map(|i| ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1 + i), 0))
        .collect();
    let end = Nanos::from_millis(400);
    let mut world = HttpClients::new(specs, Nanos::ZERO, end);
    world.arm(&mut k);
    let mut ok = true;
    for slice in 1..=8u64 {
        k.run(&mut world, end * slice / 8);
        ok &= k.tx_backlog_of(principal) <= limit;
    }
    let served = stats.borrow().static_served;
    (served, ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// §4.4 as an invariant: whatever the limit, client count, and
    /// response size, the unsent bytes reserved against the container
    /// never exceed its `sockbuf_limit` — backpressure queues the
    /// excess in the application, not the kernel — and the server still
    /// makes progress through the partial-send path.
    #[test]
    fn sockbuf_limit_bounds_tx_backlog(
        limit_kib in 2u64..64,
        clients in 1u8..5,
        response_kib in 1u64..32,
    ) {
        let (served, ok) = run_sockbuf_mix(limit_kib * 1024, clients, response_kib);
        prop_assert!(ok, "tx backlog exceeded sockbuf_limit ({limit_kib} KiB)");
        prop_assert!(served > 0, "no requests served under backpressure");
    }
}

/// Changing only the fault seed changes the injections but never breaks
/// conservation: time charged on every CPU still adds up exactly.
#[test]
fn different_fault_seed_different_injections_same_conservation() {
    let mix = Mix {
        static_clients: 4,
        keepalive_clients: 2,
        think_ms: 0,
        kernel: 2,
    };
    let a = run_fault_mix(&mix, 1, false, false);
    let b = run_fault_mix(&mix, 2, false, false);
    assert!(a.injected > 0 && b.injected > 0);
    assert!(
        a.chrome != b.chrome,
        "seeds 1 and 2 produced identical traces"
    );
    assert!(a.conserved && b.conserved);
}
