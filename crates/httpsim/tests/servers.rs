//! End-to-end tests of the server models against a small closed-loop
//! client world, under each kernel configuration.

use std::cell::RefCell;
use std::rc::Rc;

use httpsim::stats::shared_stats;
use httpsim::{
    encode_request, EventApi, EventDrivenServer, ReqKind, ServerConfig, ThreadPoolServer,
};
use rescon::Attributes;
use simcore::Nanos;
use simnet::{FlowKey, IpAddr, Packet, PacketKind};
use simos::{Kernel, KernelConfig, World, WorldAction};

/// A set of closed-loop clients; client `i` uses address 10.0.(i/250).(i%250 + 1).
struct ClientSet {
    kinds: Vec<ReqKind>,
    next_port: Vec<u16>,
    requests_left: Vec<u64>,
    pub completions: Vec<Vec<Nanos>>,
    pub latencies: Vec<Vec<Nanos>>,
    started_at: Vec<Nanos>,
}

impl ClientSet {
    fn new(kinds: Vec<ReqKind>) -> Self {
        let n = kinds.len();
        ClientSet {
            kinds,
            next_port: vec![1000; n],
            requests_left: vec![u64::MAX; n],
            completions: vec![Vec::new(); n],
            latencies: vec![Vec::new(); n],
            started_at: vec![Nanos::ZERO; n],
        }
    }

    fn addr(i: usize) -> IpAddr {
        IpAddr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1)
    }

    fn client_of(addr: IpAddr) -> usize {
        let (_, _, c, d) = addr.octets();
        c as usize * 250 + d as usize - 1
    }

    fn flow(&self, i: usize) -> FlowKey {
        FlowKey::new(Self::addr(i), self.next_port[i], 80)
    }

    fn start_request(&mut self, i: usize, now: Nanos, actions: &mut Vec<WorldAction>) {
        if self.requests_left[i] == 0 {
            return;
        }
        self.requests_left[i] -= 1;
        self.next_port[i] = self.next_port[i].wrapping_add(1).max(1000);
        self.started_at[i] = now;
        actions.push(WorldAction::SendPacket {
            pkt: Packet::new(self.flow(i), PacketKind::Syn),
            delay: Nanos::ZERO,
        });
    }
}

impl World for ClientSet {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        let i = Self::client_of(pkt.flow.src);
        if i >= self.kinds.len() || pkt.flow != self.flow(i) {
            return;
        }
        match pkt.kind {
            PacketKind::SynAck => {
                let req = encode_request(self.kinds[i], 0) as u64;
                actions.push(WorldAction::SendPacket {
                    pkt: Packet::new(pkt.flow, PacketKind::Ack),
                    delay: Nanos::ZERO,
                });
                actions.push(WorldAction::SendPacket {
                    pkt: Packet::new(pkt.flow, PacketKind::Data { bytes: req as u32 }),
                    delay: Nanos::ZERO,
                });
            }
            PacketKind::Data { .. } => {
                self.completions[i].push(now);
                self.latencies[i].push(now - self.started_at[i]);
                if self.kinds[i] == ReqKind::StaticKeepAlive {
                    // Persistent connection: next request on the same flow.
                    if self.requests_left[i] > 0 {
                        self.requests_left[i] -= 1;
                        self.started_at[i] = now;
                        let req = encode_request(self.kinds[i], 0);
                        actions.push(WorldAction::SendPacket {
                            pkt: Packet::new(pkt.flow, PacketKind::Data { bytes: req }),
                            delay: Nanos::ZERO,
                        });
                    }
                } else {
                    self.start_request(i, now, actions);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.start_request(tag as usize, now, actions);
    }
}

fn start_clients(k: &mut Kernel, n: usize) {
    for i in 0..n {
        k.arm_world_timer(i as u64, Nanos::from_micros(10 + i as u64));
    }
}

#[test]
fn event_driven_serves_static_under_all_kernels() {
    for cfg in [
        KernelConfig::unmodified(),
        KernelConfig::lrp(),
        KernelConfig::resource_containers(),
    ] {
        let stats = shared_stats();
        let mut k = Kernel::new(cfg);
        let server = EventDrivenServer::new(ServerConfig::default(), stats.clone());
        k.spawn_process(
            Box::new(server),
            "httpd",
            None,
            Attributes::time_shared(10),
            None,
        );
        let mut clients = ClientSet::new(vec![ReqKind::Static; 4]);
        start_clients(&mut k, 4);
        k.run(&mut clients, Nanos::from_secs(1));
        let total: usize = clients.completions.iter().map(|c| c.len()).sum();
        assert!(total > 400, "total = {total}");
        // The server may have answered a few requests whose responses were
        // still on the wire at cutoff.
        let served = stats.borrow().static_served;
        assert!(served as usize >= total && served as usize <= total + 8);
        let closed = stats.borrow().closed;
        assert!(closed as usize >= total && closed as usize <= total + 8);
    }
}

#[test]
fn event_driven_select_api_also_works() {
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::resource_containers());
    let cfg = ServerConfig {
        api: EventApi::Select,
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(cfg, stats.clone())),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let mut clients = ClientSet::new(vec![ReqKind::Static; 4]);
    start_clients(&mut k, 4);
    k.run(&mut clients, Nanos::from_secs(1));
    assert!(stats.borrow().static_served > 400);
}

#[test]
fn keep_alive_connections_serve_many_requests_per_connection() {
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::unmodified());
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
    let mut clients = ClientSet::new(vec![ReqKind::StaticKeepAlive; 2]);
    // Keep-alive clients reuse the flow: don't advance the port. The
    // ClientSet always opens a new connection per request, so emulate
    // keep-alive by checking server-side connection counts instead.
    start_clients(&mut k, 2);
    k.run(&mut clients, Nanos::from_secs(1));
    let s = stats.borrow();
    assert!(s.static_served > 500, "served {}", s.static_served);
    // Keep-alive: connections accepted far fewer than requests served.
    assert!(
        s.accepted * 2 < s.static_served,
        "accepted {} vs served {}",
        s.accepted,
        s.static_served
    );
}

#[test]
fn persistent_throughput_exceeds_per_request_connections() {
    let run = |kind: ReqKind| {
        let stats = shared_stats();
        let mut k = Kernel::new(KernelConfig::unmodified());
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
        let mut clients = ClientSet::new(vec![kind; 8]);
        start_clients(&mut k, 8);
        k.run(&mut clients, Nanos::from_secs(2));
        let s = stats.borrow().static_served;
        s
    };
    let per_conn = run(ReqKind::Static);
    let persistent = run(ReqKind::StaticKeepAlive);
    // §5.3: 9487 vs 2954 requests/s — persistent is ~3.2x faster.
    let ratio = persistent as f64 / per_conn as f64;
    assert!(
        ratio > 2.0 && ratio < 4.5,
        "persistent/per-conn ratio = {ratio} ({persistent}/{per_conn})"
    );
}

#[test]
fn cgi_requests_complete_and_compete() {
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::unmodified());
    let cfg = ServerConfig {
        cgi_cpu: Nanos::from_millis(50),
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(cfg, stats.clone())),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let mut clients = ClientSet::new(vec![ReqKind::Cgi, ReqKind::Static]);
    start_clients(&mut k, 2);
    k.run(&mut clients, Nanos::from_secs(2));
    let s = stats.borrow();
    assert!(
        s.cgi_dispatched > 5,
        "cgi_dispatched = {}",
        s.cgi_dispatched
    );
    assert!(s.cgi_completed > 5, "cgi_completed = {}", s.cgi_completed);
    assert!(s.static_served > 100);
    // CGI processes come and go; beyond in-flight requests (plus a couple
    // whose exit work was still queued at cutoff) none should survive.
    let in_flight = (s.cgi_dispatched - s.cgi_completed) as usize;
    assert!(
        k.process_count() <= 1 + in_flight + 2,
        "processes = {}, in-flight = {in_flight}",
        k.process_count()
    );
}

#[test]
fn cgi_sandbox_reparents_under_cgi_parent() {
    let stats = shared_stats();
    let mut k = Kernel::new(KernelConfig::resource_containers());
    let cfg = ServerConfig {
        cgi_cpu: Nanos::from_millis(20),
        cgi_sandbox: Some(httpsim::event_driven::CgiSandbox {
            share: 0.3,
            limit: 0.3,
            window: Nanos::from_millis(100),
        }),
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(cfg, stats.clone())),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let mut clients = ClientSet::new(vec![ReqKind::Cgi]);
    start_clients(&mut k, 1);
    k.run(&mut clients, Nanos::from_secs(1));
    assert!(stats.borrow().cgi_completed > 0);
    // The sandbox container exists and has accumulated subtree CPU.
    let cgi_parent = k
        .containers
        .iter()
        .find(|(_, c)| c.attrs().name.as_deref() == Some("cgi-parent"))
        .map(|(id, _)| id)
        .expect("cgi-parent exists");
    let cpu = k.containers.subtree_cpu(cgi_parent).unwrap();
    assert!(cpu > Nanos::from_millis(10), "sandbox cpu = {cpu}");
}

#[test]
fn thread_pool_server_serves() {
    for cfg in [
        KernelConfig::unmodified(),
        KernelConfig::resource_containers(),
    ] {
        let stats = shared_stats();
        let mut k = Kernel::new(cfg);
        let server =
            ThreadPoolServer::new(80, 8, Nanos::from_micros(47), 1024, true, stats.clone());
        k.spawn_process(
            Box::new(server),
            "httpd-mt",
            None,
            Attributes::time_shared(10),
            None,
        );
        let mut clients = ClientSet::new(vec![ReqKind::Static; 6]);
        start_clients(&mut k, 6);
        k.run(&mut clients, Nanos::from_secs(1));
        let s = stats.borrow();
        assert!(s.static_served > 300, "served = {}", s.static_served);
        // A couple of connections may still be in flight at cutoff.
        assert!(s.accepted >= s.closed && s.accepted - s.closed <= 8);
    }
}

#[test]
fn per_request_containers_do_not_leak() {
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
    let mut clients = ClientSet::new(vec![ReqKind::Static; 4]);
    start_clients(&mut k, 4);
    k.run(&mut clients, Nanos::from_secs(1));
    let served = stats.borrow().static_served;
    assert!(served > 200);
    // §5.4: one container per request was created and destroyed; the live
    // set stays bounded (root + per-process + class + in-flight conns).
    assert!(
        k.containers.len() < 32,
        "live containers = {}",
        k.containers.len()
    );
    assert!(k.containers.destroyed_count() >= served / 2);
    k.containers.check_invariants();
}

/// Shared-stats smoke check so the Rc pattern is exercised from outside.
#[test]
fn shared_stats_alias_across_harness() {
    let stats = shared_stats();
    let clone: Rc<RefCell<httpsim::ServerStats>> = stats.clone();
    stats.borrow_mut().accepted = 3;
    assert_eq!(clone.borrow().accepted, 3);
}
