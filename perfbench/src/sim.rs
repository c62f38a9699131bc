//! The four workloads: seeded client generation, system set-up, stepping
//! in fixed slices, invariant checks and the digest of simulated outputs.
//!
//! Every random choice is drawn here from `SimRng::seed_from(seed)`; the
//! simulator only ever sees the resulting `ClientSpec`s.

use std::cell::RefCell;
use std::rc::Rc;

use httpsim::stats::shared_stats;
use httpsim::{
    ClassSpec, EventApi, EventDrivenServer, FileBacking, ReqKind, ServerConfig, ThreadPoolServer,
};
use rescon::Attributes;
use simcluster::{Frontend, LaneSpec, NodeId, NodeSpec, TenantRoute};
use simcore::{Nanos, SimRng, Summary};
use simnet::{CidrFilter, IpAddr, Packet};
use simos::{AppHandler, Kernel, KernelConfig, MemParams, QdiscKind, World, WorldAction};
use workload::{ClientSpec, HttpClients};

use crate::layers::{Spans, TimedApp, TimedWorld};
use crate::Workload;

/// Address of the single priority-20 client of `conn_containers`.
const HIGH_ADDR: IpAddr = IpAddr::new(10, 9, 9, 9);

/// The client world, shared between whoever steps it (a kernel or the
/// cluster frontend) and the benchmark, which reads its metrics.
struct Shared(Rc<RefCell<HttpClients>>);

impl World for Shared {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.0.borrow_mut().on_packet(pkt, now, actions);
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.0.borrow_mut().on_timer(tag, now, actions);
    }
}

enum System {
    Kernel {
        k: Box<Kernel>,
        world: Box<dyn World>,
    },
    Cluster(Box<simcluster::World>),
}

/// One simulated system with its clients, ready to step.
pub struct Instance {
    sys: System,
    clients: Rc<RefCell<HttpClients>>,
}

/// Client requests of one episode, summed over classes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Requests {
    /// Requests completed plus requests abandoned.
    pub attempted: u64,
    /// Requests the clients abandoned.
    pub abandoned: u64,
}

impl Instance {
    /// Boots the workload's kernel(s), spawns its servers, and generates
    /// and arms its seeded clients. With `spans`, every server runs inside
    /// a timing `AppHandler` wrapper and the clients inside a timing
    /// `World` wrapper.
    pub fn setup(w: Workload, seed: u64, end: Nanos, spans: Option<&Spans>) -> Instance {
        let mut rng = SimRng::seed_from(seed);
        match w {
            Workload::HttpBaseline => http_baseline(&mut rng, end, spans),
            Workload::ConnContainers => conn_containers(&mut rng, end, spans),
            Workload::TenantsSmpIo => tenants_smp_io(&mut rng, end, spans),
            Workload::ClusterSparse => cluster_sparse(&mut rng, end, spans),
        }
    }

    /// Advances the system to `until`: one `Kernel::step_until` or one
    /// `simcluster::World::run` call.
    pub fn step(&mut self, until: Nanos) {
        match &mut self.sys {
            System::Kernel { k, world } => {
                k.step_until(world.as_mut(), until);
            }
            System::Cluster(c) => c.run(until),
        }
    }

    /// The kernels of the system, in node order.
    pub fn kernels(&self) -> Vec<&Kernel> {
        match &self.sys {
            System::Kernel { k, .. } => vec![k.as_ref()],
            System::Cluster(c) => (0..c.len() as u32).map(|n| c.kernel(NodeId(n))).collect(),
        }
    }

    /// The cluster, when the workload has one.
    pub fn cluster(&self) -> Option<&simcluster::World> {
        match &self.sys {
            System::Kernel { .. } => None,
            System::Cluster(c) => Some(c),
        }
    }

    /// Mutable access to the cluster, when the workload has one.
    pub fn cluster_mut(&mut self) -> Option<&mut simcluster::World> {
        match &mut self.sys {
            System::Kernel { .. } => None,
            System::Cluster(c) => Some(c),
        }
    }

    /// Kernel events delivered so far, summed over nodes.
    pub fn events(&self) -> u64 {
        self.kernels().iter().map(|k| k.stats().sim_events).sum()
    }

    /// Client requests attempted and abandoned so far.
    pub fn requests(&self) -> Requests {
        let c = self.clients.borrow();
        let m = &c.metrics;
        (0..m.class_count()).fold(Requests::default(), |acc, i| {
            let cm = m.class(i);
            Requests {
                attempted: acc.attempted + cm.completed + cm.abandoned,
                abandoned: acc.abandoned + cm.abandoned,
            }
        })
    }

    /// Checks the invariants every run must satisfy: each CPU accounts
    /// exactly its elapsed clock, cluster lane time conserves, and every
    /// client class completed requests.
    pub fn check(&self) -> Result<(), String> {
        for (n, k) in self.kernels().iter().enumerate() {
            for (i, c) in k.per_cpu_stats().iter().enumerate() {
                if c.total() != k.clock() {
                    return Err(format!(
                        "node {n} cpu {i} accounts {} ns of a {} ns run",
                        c.total().as_nanos(),
                        k.clock().as_nanos()
                    ));
                }
            }
        }
        if let Some(c) = self.cluster() {
            if c.lanes_busy_total() != c.tx_total() {
                return Err("cluster lane wire time does not conserve".into());
            }
        }
        let clients = self.clients.borrow();
        let m = &clients.metrics;
        for i in 0..m.class_count() {
            if m.class(i).completed == 0 {
                return Err(format!("client class {i} completed no request"));
            }
        }
        Ok(())
    }

    /// FNV-1a hash of the simulated outputs: kernel statistics and
    /// per-container subtree usage (the cluster dump for `cluster_sparse`)
    /// plus per-class client counts and latency summaries.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match &self.sys {
            System::Kernel { k, .. } => {
                let s = k.stats();
                for v in [
                    k.clock().as_nanos(),
                    s.charged_cpu.as_nanos(),
                    s.interrupt_cpu.as_nanos(),
                    s.overhead_cpu.as_nanos(),
                    s.idle_cpu.as_nanos(),
                    s.pkts_in,
                    s.pkts_out,
                    s.early_drops,
                    s.upcalls,
                    s.ctx_switches,
                    s.migrations,
                    s.sim_events,
                ] {
                    h.u64(v);
                }
                let mut rows: Vec<[u64; 4]> = k
                    .containers
                    .iter()
                    .map(|(id, _)| {
                        let t = &k.containers;
                        [
                            id.as_u64(),
                            t.subtree_cpu(id).map_or(0, |n| n.as_nanos()),
                            t.subtree_disk(id).map_or(0, |n| n.as_nanos()),
                            t.subtree_tx(id).map_or(0, |n| n.as_nanos()),
                        ]
                    })
                    .collect();
                rows.sort_unstable();
                for v in rows.iter().flatten() {
                    h.u64(*v);
                }
            }
            System::Cluster(c) => h.bytes(c.dump().as_bytes()),
        }
        let clients = self.clients.borrow();
        let m = &clients.metrics;
        for i in 0..m.class_count() {
            let cm = m.class(i);
            h.u64(cm.completed);
            h.u64(cm.abandoned);
            h.u64(cm.completed_in_window);
            summary(&mut h, &cm.latency_ms);
        }
        h.0
    }
}

fn summary(h: &mut Fnv, s: &Summary) {
    h.u64(s.count() as u64);
    for v in [
        s.mean(),
        s.min(),
        s.max(),
        s.quantile(0.5),
        s.quantile(0.99),
    ] {
        h.u64(v.to_bits());
    }
}

/// 64-bit FNV-1a: stable across Rust releases, unlike `DefaultHasher`.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn app(handler: impl AppHandler + 'static, spans: Option<&Spans>) -> Box<dyn AppHandler> {
    match spans {
        Some(s) => Box::new(TimedApp::new(Box::new(handler), s.httpsim.clone())),
        None => Box::new(handler),
    }
}

fn world(clients: &Rc<RefCell<HttpClients>>, spans: Option<&Spans>) -> Box<dyn World> {
    let shared = Box::new(Shared(Rc::clone(clients)));
    match spans {
        Some(s) => Box::new(TimedWorld::new(shared, s.workload.clone())),
        None => shared,
    }
}

fn kernel_instance(
    mut k: Kernel,
    specs: Vec<ClientSpec>,
    end: Nanos,
    spans: Option<&Spans>,
) -> Instance {
    let clients = HttpClients::new(specs, warmup(end), end);
    clients.arm(&mut k);
    let clients = Rc::new(RefCell::new(clients));
    Instance {
        sys: System::Kernel {
            k: Box::new(k),
            world: world(&clients, spans),
        },
        clients,
    }
}

/// Start of the clients' measurement window.
fn warmup(end: Nanos) -> Nanos {
    Nanos::from_secs(1).min(end / 10)
}

/// Address of client `i` in block `b` (`10.b.x.y`).
fn client_addr(b: u8, i: usize) -> IpAddr {
    IpAddr::new(10, b, (i / 250) as u8, (i % 250) as u8 + 1)
}

/// A start offset in `[10 µs, 10 µs + spread)`.
fn start(rng: &mut SimRng, spread: Nanos) -> Nanos {
    Nanos::from_micros(10) + Nanos::from_nanos(rng.uniform_u64(0, spread.as_nanos().max(1)))
}

/// §5.3: the unmodified kernel (interrupt-level protocol processing,
/// decay-usage scheduling), one event-driven server, 24 non-persistent
/// clients saturating the CPU.
fn http_baseline(rng: &mut SimRng, end: Nanos, spans: Option<&Spans>) -> Instance {
    let mut k = Kernel::new(KernelConfig::unmodified());
    let cfg = ServerConfig {
        container_per_connection: false,
        ..ServerConfig::default()
    };
    k.spawn_process(
        app(EventDrivenServer::new(cfg, shared_stats()), spans),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    let specs = (0..24)
        .map(|i| {
            let mut s = ClientSpec::staticloop(client_addr(0, i), 0)
                .starting_at(start(rng, Nanos::from_millis(1)));
            s.doc = rng.uniform_u64(0, 1024) as u32;
            s
        })
        .collect();
    kernel_instance(k, specs, end, spans)
}

/// §4.8/§5.4: the RC kernel, one event-driven server on the scalable
/// event API with a container per connection; Figure 11's classes (one
/// priority-20 client, 256 priority-10 clients, exactly half persistent).
fn conn_containers(rng: &mut SimRng, end: Nanos, spans: Option<&Spans>) -> Instance {
    let mut k = Kernel::new(KernelConfig::resource_containers());
    let class = |name: &str, filter, priority| ClassSpec {
        name: name.to_string(),
        filter,
        priority,
        notify_syn_drops: false,
    };
    let cfg = ServerConfig {
        api: EventApi::Scalable,
        container_per_connection: true,
        classes: vec![
            class("high", CidrFilter::new(HIGH_ADDR, 32), 20),
            class("low", CidrFilter::any(), 10),
        ],
        ..ServerConfig::default()
    };
    k.spawn_process(
        app(EventDrivenServer::new(cfg, shared_stats()), spans),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );
    // Exactly half of the low-priority clients are persistent; the seed
    // picks which (Fisher-Yates), so the load mix is the same every seed.
    let mut persistent: Vec<bool> = (0..256).map(|i| i < 128).collect();
    for i in (1..persistent.len()).rev() {
        persistent.swap(i, rng.index(i + 1));
    }
    let mut specs =
        vec![ClientSpec::staticloop(HIGH_ADDR, 0).starting_at(start(rng, Nanos::from_millis(1)))];
    for (i, &keep_alive) in persistent.iter().enumerate() {
        let kind = if keep_alive {
            ReqKind::StaticKeepAlive
        } else {
            ReqKind::Static
        };
        let mut s = ClientSpec::staticloop(client_addr(0, i), 1)
            .with_kind(kind)
            .starting_at(start(rng, Nanos::from_millis(20)));
        s.doc = rng.uniform_u64(0, 1024) as u32;
        specs.push(s);
    }
    kernel_instance(k, specs, end, spans)
}

/// Kernel-memory limit of the disk tenant's subtree. Its cache pages
/// evict its own least recently used documents once the limit is reached.
const DISK_TENANT_MEM_LIMIT: u64 = 1 << 20;

/// The RC kernel with 4 CPUs, kernel memory accounting and a 1 Gb/s WFQ
/// link: a 70% tenant's thread-pool server with a container per
/// connection, and a 30% tenant's disk-backed event-driven server under a
/// `mem_limit`, sweeping more documents than its part of the cache holds.
fn tenants_smp_io(rng: &mut SimRng, end: Nanos, spans: Option<&Spans>) -> Instance {
    let mut cfg = KernelConfig::resource_containers()
        .with_ncpus(4)
        .with_mem(MemParams::new())
        .with_link(1_000_000_000, QdiscKind::Wfq);
    cfg.disk.buffer_cache_bytes = 4 << 20;
    let mut k = Kernel::new(cfg);
    let pool = k
        .containers
        .create(None, Attributes::fixed_share(0.7).named("tenant-pool"))
        .expect("tenant container");
    let disk = k
        .containers
        .create(
            None,
            Attributes::fixed_share(0.3)
                .with_mem_limit(DISK_TENANT_MEM_LIMIT)
                .named("tenant-disk"),
        )
        .expect("tenant container");
    let pool_clients = 24;
    k.spawn_process(
        app(
            ThreadPoolServer::new(
                8000,
                pool_clients as u32,
                Nanos::from_micros(200),
                1024,
                true,
                shared_stats(),
            ),
            spans,
        ),
        "pool-httpd",
        Some(pool),
        Attributes::time_shared(10),
        None,
    );
    let disk_cfg = ServerConfig {
        port: 8001,
        conn_parent: Some(disk),
        container_per_connection: false,
        response_bytes: 8 * 1024,
        files: FileBacking::Disk { file_base: 1 << 32 },
        ..ServerConfig::default()
    };
    k.spawn_process(
        app(EventDrivenServer::new(disk_cfg, shared_stats()), spans),
        "disk-httpd",
        Some(disk),
        Attributes::time_shared(10),
        None,
    );
    let mut specs = Vec::new();
    for i in 0..pool_clients {
        let mut s = ClientSpec::staticloop(client_addr(100, i), 0)
            .with_kind(ReqKind::StaticKeepAlive)
            .starting_at(start(rng, Nanos::from_millis(1)));
        s.port = 8000;
        specs.push(s);
    }
    // 8 clients x 64 documents x 8 KiB = 4 MiB, four times the tenant's
    // memory limit, so its share of the cache misses steadily.
    for i in 0..8 {
        let mut s = ClientSpec::staticloop(client_addr(101, i), 1)
            .cycling_docs(64)
            .starting_at(start(rng, Nanos::from_millis(1)));
        s.port = 8001;
        s.doc = rng.uniform_u64(0, 4096) as u32;
        specs.push(s);
    }
    kernel_instance(k, specs, end, spans)
}

/// Cluster nodes of `cluster_sparse`.
const NODES: u32 = 8;
/// Closed-loop clients per tenant of `cluster_sparse`.
const CLUSTER_CLIENTS: usize = 2000;
/// Fixed CPU shares of the two cluster tenants.
const CLUSTER_SHARES: [f64; 2] = [0.7, 0.3];

/// A `simcluster::World` of 8 single-CPU RC nodes behind the WRR frontend
/// with 200 µs / 10 Gb/s lanes; both tenants on every node, 2000
/// frontend-hosted clients per tenant thinking about a second.
fn cluster_sparse(rng: &mut SimRng, end: Nanos, spans: Option<&Spans>) -> Instance {
    let mut specs = Vec::with_capacity(CLUSTER_SHARES.len() * CLUSTER_CLIENTS);
    for t in 0..CLUSTER_SHARES.len() {
        for i in 0..CLUSTER_CLIENTS {
            let addr = IpAddr::new(20 + t as u8, (i >> 16) as u8, (i >> 8) as u8, i as u8);
            let mut s =
                ClientSpec::staticloop(addr, t).starting_at(start(rng, Nanos::from_secs(1)));
            s.port = 8000 + t as u16;
            s.think = rng.uniform_duration(Nanos::from_millis(500), Nanos::from_millis(1500));
            specs.push(s);
        }
    }
    let clients = Rc::new(RefCell::new(HttpClients::new(specs, warmup(end), end)));
    let routes = (0..CLUSTER_SHARES.len())
        .map(|t| {
            TenantRoute::new(
                CidrFilter::new(IpAddr::new(20 + t as u8, 0, 0, 0), 8),
                (0..NODES).map(|n| (NodeId(n), 10)).collect(),
            )
        })
        .collect();
    let mut frontend = Frontend::new(world(&clients, spans), routes);
    clients
        .borrow()
        .arm_with(|tag, at| frontend.arm_world_timer(tag, at));
    let nodes = (0..NODES)
        .map(|n| NodeSpec::new(format!("node{n}"), KernelConfig::resource_containers()))
        .collect();
    let mut cluster = simcluster::World::new(
        nodes,
        frontend,
        LaneSpec::new(Nanos::from_micros(200), 10_000_000_000),
    );
    for n in 0..NODES {
        let k = cluster.kernel_mut(NodeId(n));
        for (t, &share) in CLUSTER_SHARES.iter().enumerate() {
            let name = format!("tenant-{t}");
            let tenant = k
                .containers
                .create(None, Attributes::fixed_share(share).named(&name))
                .expect("tenant container");
            k.spawn_process(
                app(
                    ThreadPoolServer::new(
                        8000 + t as u16,
                        8,
                        Nanos::from_micros(200),
                        1024,
                        false,
                        shared_stats(),
                    ),
                    spans,
                ),
                &format!("{name}-httpd"),
                Some(tenant),
                Attributes::time_shared(10),
                None,
            );
        }
    }
    Instance {
        sys: System::Cluster(Box::new(cluster)),
        clients,
    }
}
