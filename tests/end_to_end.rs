//! Workspace-level integration tests: every crate working together
//! through the facade, at reduced experiment scale.

use resource_containers::prelude::*;

use httpsim::stats::shared_stats;
use simcore::Nanos;

fn tiny_server_run(kernel: KernelConfig, secs: u64) -> (u64, simos::KernelStats) {
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
    let specs: Vec<ClientSpec> = (0..6)
        .map(|i| ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1 + i as u8), 0))
        .collect();
    let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_secs(secs));
    clients.arm(&mut k);
    k.run(&mut clients, Nanos::from_secs(secs));
    let served = stats.borrow().static_served;
    (served, *k.stats())
}

#[test]
fn all_three_kernels_serve_through_the_facade() {
    for cfg in [
        KernelConfig::unmodified(),
        KernelConfig::lrp(),
        KernelConfig::resource_containers(),
    ] {
        let (served, stats) = tiny_server_run(cfg, 1);
        assert!(served > 500, "served = {served}");
        assert!(stats.pkts_in > 0);
    }
}

#[test]
fn whole_experiment_is_deterministic() {
    let a = run_fig11(Fig11Params {
        system: Fig11System::RcEventApi,
        low_clients: 10,
        secs: 2,
    });
    let b = run_fig11(Fig11Params {
        system: Fig11System::RcEventApi,
        low_clients: 10,
        secs: 2,
    });
    assert_eq!(a.high_completed, b.high_completed);
    assert_eq!(a.t_high_ms.to_bits(), b.t_high_ms.to_bits());
    assert_eq!(a.low_throughput.to_bits(), b.low_throughput.to_bits());
}

#[test]
fn accounting_conserves_under_full_experiment_load() {
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::resource_containers());
    k.spawn_process(
        Box::new(EventDrivenServer::new(ServerConfig::default(), stats)),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let specs: Vec<ClientSpec> = (0..8)
        .map(|i| ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1 + i as u8), 0))
        .collect();
    let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_secs(2));
    clients.arm(&mut k);
    let horizon = Nanos::from_secs(2);
    k.run(&mut clients, horizon);
    let s = k.stats();
    // Conservation: charged + interrupt + overhead + idle ≈ elapsed.
    let total = s.total();
    let drift = total
        .saturating_sub(horizon)
        .max(horizon.saturating_sub(total));
    assert!(drift < Nanos::from_millis(1), "drift {drift}");
    // Table-level conservation: charged CPU equals the container table's
    // aggregate view.
    let table_cpu =
        k.containers.subtree_cpu(k.containers.root()).unwrap() + k.containers.reaped_cpu();
    assert_eq!(table_cpu, s.charged_cpu);
    k.containers.check_invariants();
}

#[test]
fn per_request_container_lifecycle_matches_request_count() {
    // §5.4: the server creates one container per request; all of them die.
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::resource_containers());
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
    let specs = vec![ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 0)];
    let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_secs(1));
    clients.arm(&mut k);
    k.run(&mut clients, Nanos::from_secs(1));
    let served = stats.borrow().static_served;
    assert!(served > 500);
    // created >= served (one per connection) and nearly all destroyed.
    assert!(k.containers.created_count() >= served);
    assert!(k.containers.len() < 16, "live = {}", k.containers.len());
}

#[test]
fn scenario_sweep_point_consistency() {
    // More low-priority load must not make the *unmodified* high-priority
    // latency better (monotone-ish shape of Figure 11's dotted curve).
    let r5 = run_fig11(Fig11Params {
        system: Fig11System::Unmodified,
        low_clients: 5,
        secs: 2,
    });
    let r20 = run_fig11(Fig11Params {
        system: Fig11System::Unmodified,
        low_clients: 20,
        secs: 2,
    });
    assert!(
        r20.t_high_ms > r5.t_high_ms,
        "5 clients: {} ms, 20 clients: {} ms",
        r5.t_high_ms,
        r20.t_high_ms
    );
}

#[test]
fn syn_flood_defense_isolates_attacker_prefix() {
    // 12 s so the measurement window sits past the 5 s expiry of the
    // flood's half-open entries in the default listener's SYN queue.
    let r = run_fig14(Fig14Params {
        defended: true,
        syn_rate: 8_000.0,
        clients: 8,
        secs: 12,
    });
    assert!(r.isolations >= 1, "no isolation happened");
    assert!(r.throughput > 1200.0, "throughput {}", r.throughput);
}

#[test]
fn virtual_server_shares_add_up() {
    let r = run_virtual_servers(VsParams {
        shares: vec![0.6, 0.4],
        clients_per_guest: vec![8, 8],
        cgi_cpu: None,
        secs: 6,
    });
    let sum: f64 = r.measured.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6);
    assert!((r.measured[0] - 0.6).abs() < 0.05, "{:?}", r.measured);
}

#[test]
fn share_io_sched_protects_victim_tenant_from_disk_hog() {
    // §7 extension: with a heavy disk hog next door (24 clients vs the
    // victim's 8, so FIFO hands the victim only a quarter of the
    // request slots), the victim's throughput under the container-share
    // I/O scheduler beats FIFO, and the disk-time split tracks the
    // configured shares.
    let run = |sched| {
        run_disk_tenants(DiskTenantsParams {
            hog_clients: 24,
            secs: 6,
            sched,
        })
    };
    let fifo = run(DiskSchedKind::Fifo);
    let share = run(DiskSchedKind::Share);
    assert!(
        share.throughputs[1] >= fifo.throughputs[1],
        "share {share:?} vs fifo {fifo:?}"
    );
    for (c, m) in share.configured.iter().zip(&share.disk_fractions) {
        assert!((c - m).abs() < 0.05, "configured {c} vs measured {m}");
    }
}

#[test]
fn disk_time_conserves_under_server_load() {
    // Every nanosecond the disk is busy lands in exactly one container:
    // table-level disk accounting equals the device's busy time.
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::resource_containers());
    k.spawn_process(
        Box::new(EventDrivenServer::new(
            ServerConfig {
                files: FileBacking::Disk { file_base: 0 },
                ..ServerConfig::default()
            },
            stats.clone(),
        )),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let specs: Vec<ClientSpec> = (0..4)
        .map(|i| {
            let mut s = ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1 + i as u8), 0);
            s.doc_cycle = 512;
            s
        })
        .collect();
    let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_secs(2));
    clients.arm(&mut k);
    k.run(&mut clients, Nanos::from_secs(2));
    assert!(stats.borrow().static_served > 20, "no disk-backed requests");
    let table_disk =
        k.containers.subtree_disk(k.containers.root()).unwrap() + k.containers.reaped_disk();
    assert_eq!(table_disk, k.disk.total_busy());
    assert!(!k.disk.total_busy().is_zero());
    k.containers.check_invariants();
}

#[test]
fn thread_pool_and_prefork_work_on_rc_kernel() {
    // The alternative server models of §2 run on the container kernel too.
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::resource_containers());
    k.spawn_process(
        Box::new(ThreadPoolServer::new(
            80,
            4,
            Nanos::from_micros(47),
            1024,
            true,
            stats.clone(),
        )),
        "mt",
        None,
        Attributes::time_shared(10),
        None,
    );
    let specs: Vec<ClientSpec> = (0..4)
        .map(|i| ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1 + i as u8), 0))
        .collect();
    let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_secs(1));
    clients.arm(&mut k);
    k.run(&mut clients, Nanos::from_secs(1));
    assert!(stats.borrow().static_served > 300);
    k.containers.check_invariants();
}
