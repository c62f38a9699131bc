//! Cluster scale-out: global tenant shares on an N-node cluster behind a
//! front-end load balancer.
//!
//! Single-machine resource containers divide *one* kernel; this scenario
//! asks the cluster question: can two tenants hold a global 70/30 CPU
//! split across eight independent kernels when one tenant starts confined
//! to a quarter of the machines? Per-node fixed shares alone cannot — a
//! tenant absent from a node consumes nothing there however generous its
//! share elsewhere — so two cluster-level control loops close the gap:
//!
//! - [`simcluster::GlobalShare`] re-parameterizes each tenant's per-node
//!   fixed share every epoch from the observed global charge split, and
//! - the [`simcluster::Orchestrator`] places new server replicas when a
//!   tenant lags its target while every node it runs on is saturated
//!   (and drains the busiest replica of a persistently over-target
//!   tenant), with the front-end's weighted round-robin migrating new
//!   connections to the new layout.
//!
//! The workload is closed-loop non-persistent HTTP: every connection is
//! opened fresh, so each request re-enters the load balancer's WRR pick
//! and traffic follows weight changes within one connection lifetime.
//! Running with `rebalance: false` gives the drift baseline: the gold
//! tenant, present everywhere, swallows the capacity of the six nodes
//! bronze cannot reach (~92/8 instead of 70/30).

use std::cell::RefCell;
use std::rc::Rc;

use httpsim::stats::shared_stats;
use httpsim::ThreadPoolServer;
use rescon::Attributes;
use simcluster::{
    Action, Frontend, GlobalShare, LaneSpec, NodeId, NodeSpec, Orchestrator, TenantRoute,
    TenantShare, World,
};
use simcore::Nanos;
use simnet::{CidrFilter, IpAddr, Packet};
use simos::{KernelConfig, WorldAction};

use crate::clients::{ClientSpec, HttpClients};

/// Default WRR weight for an active replica.
const BASE_WEIGHT: u32 = 10;
/// Target global CPU fraction per tenant.
const SHARES: [f64; 2] = [0.7, 0.3];
/// How many nodes each tenant's servers start on (nodes `0..k`), capped
/// at the node count: gold everywhere, bronze on two nodes.
const INITIAL_REPLICAS: [usize; 2] = [usize::MAX, 2];
/// Worker threads per server replica.
const POOL_SIZE: u32 = 8;
/// Control epoch: share rebalance and orchestrator cadence.
const EPOCH: Nanos = Nanos::from_secs(1);

/// Parameters of the cluster tenant experiment.
#[derive(Clone, Debug)]
pub struct ClusterTenantsParams {
    /// Number of single-CPU backend kernel nodes.
    pub nodes: u32,
    /// Closed-loop clients per tenant (hosted at the frontend).
    pub clients_per_tenant: usize,
    /// CPU burned parsing/handling each request.
    pub parse_cost: Nanos,
    /// Client idle time between a response and the next connection
    /// (0 = closed loop at full speed).
    pub think: Nanos,
    /// Client abandon-and-retry timeout.
    pub timeout: Nanos,
    /// Client exponential retry backoff base.
    pub backoff: Nanos,
    /// Simulated run length.
    pub secs: u64,
    /// Final measurement window (the last `measure_secs` of the run).
    pub measure_secs: u64,
    /// Run the control loops; `false` = drift baseline (static shares,
    /// no placement).
    pub rebalance: bool,
    /// Inter-node lane parameters (latency is the conservative
    /// synchronization quantum).
    pub lane: LaneSpec,
}

impl Default for ClusterTenantsParams {
    fn default() -> Self {
        ClusterTenantsParams {
            nodes: 8,
            clients_per_tenant: 50_000,
            parse_cost: Nanos::from_micros(200),
            think: Nanos::from_secs(1),
            timeout: Nanos::from_secs(1),
            backoff: Nanos::from_millis(100),
            secs: 20,
            measure_secs: 5,
            rebalance: true,
            lane: LaneSpec::new(Nanos::from_micros(200), 10_000_000_000),
        }
    }
}

impl ClusterTenantsParams {
    /// A reduced-scale preset for tests and CI smoke runs: few clients
    /// with a fat per-request cost, so every node saturates (the regime
    /// the orchestrator needs) while the event count stays small.
    pub fn reduced() -> Self {
        ClusterTenantsParams {
            clients_per_tenant: 96,
            parse_cost: Nanos::from_millis(2),
            think: Nanos::ZERO,
            timeout: Nanos::from_secs(2),
            backoff: Nanos::from_millis(50),
            secs: 16,
            measure_secs: 4,
            ..ClusterTenantsParams::default()
        }
    }
}

/// Result of the cluster tenant experiment.
#[derive(Clone, Debug)]
pub struct ClusterTenantsResult {
    /// Number of backend nodes.
    pub nodes: u32,
    /// Total clients across tenants.
    pub clients: usize,
    /// Configured target fractions (normalized).
    pub configured: Vec<f64>,
    /// Measured global CPU fraction per tenant over the final window.
    pub measured: Vec<f64>,
    /// Per-epoch measured global fractions (the convergence trajectory).
    pub epoch_split: Vec<Vec<f64>>,
    /// Replica placements executed, as `(tenant, node)` in order.
    pub placements: Vec<(usize, u32)>,
    /// Replica drains executed, as `(tenant, node)` in order.
    pub drains: Vec<(usize, u32)>,
    /// Final active replica count per tenant.
    pub replicas: Vec<usize>,
    /// Per-tenant throughput over the final window (requests/second).
    pub throughputs: Vec<f64>,
    /// Aggregate throughput (requests/second).
    pub total_throughput: f64,
    /// Total inter-node wire (serialization) time, nanoseconds.
    pub lane_busy_ns: u64,
    /// Total wire time charged to source nodes, nanoseconds; equals
    /// `lane_busy_ns` when the double-entry accounting conserves.
    pub tx_wire_ns: u64,
    /// Whether the wire-time conservation identity held.
    pub conserved: bool,
    /// Packets the frontend forwarded to backends.
    pub forwarded: u64,
    /// Connections the frontend assigned by WRR.
    pub assigned: u64,
    /// Packets the frontend could not route.
    pub unroutable: u64,
    /// Kernel events processed across all nodes.
    pub sim_events: u64,
    /// The deterministic cluster state dump (byte-identical across
    /// same-seed runs — the determinism contract the tests diff).
    pub dump: String,
}

/// Most clients per tenant: tenant `t`'s client address block,
/// `(20+t).0.0.0/8`, holds 2^24 unique addresses — enough for the
/// 1M-client nightly configuration.
pub const MAX_CLIENTS_PER_TENANT: usize = 1 << 24;

fn tenant_prefix(t: usize) -> CidrFilter {
    CidrFilter::new(IpAddr::new(20 + t as u8, 0, 0, 0), 8)
}

fn tenant_addr(t: usize, i: usize) -> IpAddr {
    IpAddr::new(20 + t as u8, (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// The hosted client world, shared between the frontend (which steps it)
/// and the scenario (which reads its metrics afterwards). The DES is
/// single-threaded, so `Rc<RefCell>` delegation is safe.
struct Hosted(Rc<RefCell<HttpClients>>);

impl simos::World for Hosted {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.0.borrow_mut().on_packet(pkt, now, actions);
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.0.borrow_mut().on_timer(tag, now, actions);
    }
}

/// Spawns tenant `t`'s server replica on `node`: a per-node container
/// named `tenant-{t}` (created if absent) holding a thread-pool server
/// listening on the tenant's port. Reused for both the initial layout
/// and orchestrator placements.
fn spawn_replica(
    world: &mut World,
    t: usize,
    node: NodeId,
    share: f64,
    params: &ClusterTenantsParams,
) {
    let name = tenant_name(t);
    let k = world.kernel_mut(node);
    if k.containers.find_by_name(&name).is_some() {
        // A drained replica coming back: container and server are still
        // there, only the LB weight was zeroed.
        return;
    }
    let container = k
        .containers
        .create(None, Attributes::fixed_share(share).named(&name))
        .expect("tenant container");
    k.spawn_process(
        Box::new(ThreadPoolServer::new(
            8000 + t as u16,
            POOL_SIZE,
            params.parse_cost,
            1024,
            false,
            shared_stats(),
        )),
        &format!("{name}-httpd"),
        Some(container),
        Attributes::time_shared(10),
        None,
    );
}

/// Runs the cluster tenant experiment.
pub fn run_cluster_tenants(params: ClusterTenantsParams) -> ClusterTenantsResult {
    run_cluster_tenants_inner(params, None).0
}

/// Runs the cluster tenant experiment with per-node tracing: every node
/// records a full [`rctrace::TraceSession`], returned as `(node name,
/// session)` pairs for [`rctrace::cluster_chrome_trace_json`].
pub fn run_cluster_tenants_traced(
    params: ClusterTenantsParams,
    cfg: rctrace::TraceConfig,
) -> (ClusterTenantsResult, Vec<(String, rctrace::TraceSession)>) {
    run_cluster_tenants_inner(params, Some(cfg))
}

fn run_cluster_tenants_inner(
    params: ClusterTenantsParams,
    trace: Option<rctrace::TraceConfig>,
) -> (ClusterTenantsResult, Vec<(String, rctrace::TraceSession)>) {
    let nt = SHARES.len();
    let nodes = params.nodes.max(1);
    let end = Nanos::from_secs(params.secs.max(4));
    let measure_start = end.saturating_sub(Nanos::from_secs(params.measure_secs.max(1)));
    let share_sum: f64 = SHARES.iter().sum();
    let configured: Vec<f64> = SHARES.iter().map(|s| s / share_sum).collect();

    // Initial layout: tenant t's servers on nodes 0..k.
    let initial: Vec<usize> = INITIAL_REPLICAS
        .iter()
        .map(|&replicas| replicas.clamp(1, nodes as usize))
        .collect();

    // Backend nodes: identical resource-container kernels. Backends own
    // no foreign prefixes — the frontend owns the whole client space, so
    // every server reply egresses over the lanes back to it.
    let specs: Vec<NodeSpec> = (0..nodes)
        .map(|n| NodeSpec::new(format!("node{n}"), KernelConfig::resource_containers()))
        .collect();

    // Closed-loop non-persistent clients, one address block per tenant,
    // start times spread over the first second so the connection storm
    // ramps instead of spiking.
    let mut client_specs = Vec::with_capacity(nt * params.clients_per_tenant);
    for t in 0..nt {
        let n = params.clients_per_tenant.max(1);
        for i in 0..n {
            let start = Nanos::from_micros(10)
                + Nanos::from_nanos((i as u64).wrapping_mul(1_000_000_000) / n as u64);
            let mut s = ClientSpec::staticloop(tenant_addr(t, i), t)
                .with_timeout(params.timeout)
                .with_backoff(params.backoff)
                .starting_at(start);
            s.port = 8000 + t as u16;
            s.think = params.think;
            client_specs.push(s);
        }
    }
    let clients = Rc::new(RefCell::new(HttpClients::new(
        client_specs,
        measure_start,
        end,
    )));

    let routes: Vec<TenantRoute> = (0..nt)
        .map(|t| {
            let replicas = (0..initial[t] as u32)
                .map(|n| (NodeId(n), BASE_WEIGHT))
                .collect();
            TenantRoute::new(tenant_prefix(t), replicas)
        })
        .collect();
    let mut frontend = Frontend::new(Box::new(Hosted(Rc::clone(&clients))), routes);
    clients
        .borrow()
        .arm_with(|tag, at| frontend.arm_world_timer(tag, at));

    let mut world = World::new(specs, frontend, params.lane);
    if let Some(cfg) = trace {
        world.start_tracing(cfg);
    }
    for (t, &replicas) in initial.iter().enumerate() {
        for n in 0..replicas as u32 {
            spawn_replica(&mut world, t, NodeId(n), SHARES[t], &params);
        }
    }

    let mut shares = GlobalShare::new(
        (0..nt)
            .map(|t| TenantShare {
                container: tenant_name(t),
                target: configured[t],
            })
            .collect(),
    );
    let targets = shares.targets();
    let mut orch = Orchestrator::new(
        (0..nt)
            .map(|t| (0..initial[t] as u32).map(NodeId).collect())
            .collect(),
    );

    let mut prev_busy = vec![Nanos::ZERO; nodes as usize];
    let mut prev_at = Nanos::ZERO;
    let mut window_cpu0: Vec<Nanos> = vec![Nanos::ZERO; nt];
    let mut epoch_split: Vec<Vec<f64>> = Vec::new();
    let mut placements: Vec<(usize, u32)> = Vec::new();
    let mut drains: Vec<(usize, u32)> = Vec::new();

    let mut now = Nanos::ZERO;
    while now < end {
        let next = (now + EPOCH).min(end).min(if now < measure_start {
            measure_start
        } else {
            end
        });
        world.run(next);
        now = next;

        if now == measure_start {
            // Snapshot the final measurement window's baseline.
            for (t, slot) in window_cpu0.iter_mut().enumerate() {
                *slot = tenant_cpu(&world, t, nodes);
            }
        }

        // Per-node busy fractions over this epoch (the orchestrator's
        // saturation signal).
        let dt = (now - prev_at).as_secs_f64();
        prev_at = now;
        let mut busy = vec![0.0; nodes as usize];
        for (n, b) in busy.iter_mut().enumerate() {
            let s = world.kernel(NodeId(n as u32)).stats();
            let used = s.charged_cpu + s.interrupt_cpu + s.overhead_cpu;
            *b = used.saturating_sub(prev_busy[n]).as_secs_f64() / dt.max(1e-9);
            prev_busy[n] = used;
        }

        if params.rebalance {
            let measured = shares.rebalance(&mut world);
            epoch_split.push(measured.clone());
            for action in orch.tick(&measured, &targets, &busy) {
                match action {
                    Action::Place { tenant, node } => {
                        // Seed with a sliver of the node — the incumbents'
                        // shares may already sum to the headroom cap; the
                        // global balancer renormalizes next epoch.
                        spawn_replica(&mut world, tenant, node, 0.02, &params);
                        world.frontend.set_weight(tenant, node, BASE_WEIGHT);
                        placements.push((tenant, node.0));
                    }
                    Action::Drain { tenant, node } => {
                        world.frontend.set_weight(tenant, node, 0);
                        drains.push((tenant, node.0));
                    }
                }
            }
        } else {
            epoch_split.push(shares.measure(&world));
        }
    }

    let sessions = world.finish_tracing();

    // Final-window global split from container charge deltas.
    let deltas: Vec<Nanos> = (0..nt)
        .map(|t| tenant_cpu(&world, t, nodes).saturating_sub(window_cpu0[t]))
        .collect();
    let total: Nanos = deltas.iter().copied().sum();
    let measured: Vec<f64> = deltas.iter().map(|&d| d.ratio(total)).collect();

    let lane_busy = world.lanes_busy_total();
    let tx_wire = world.tx_total();
    let fs = world.frontend.stats;
    let sim_events: u64 = (0..nodes)
        .map(|n| world.kernel(NodeId(n)).stats().sim_events)
        .sum();
    let metrics = &clients.borrow().metrics;
    let throughputs: Vec<f64> = (0..nt).map(|t| metrics.throughput(t)).collect();

    let result = ClusterTenantsResult {
        nodes,
        clients: nt * params.clients_per_tenant,
        configured,
        measured,
        epoch_split,
        placements,
        drains,
        replicas: (0..nt).map(|t| orch.replicas(t).len()).collect(),
        total_throughput: throughputs.iter().sum(),
        throughputs,
        lane_busy_ns: lane_busy.as_nanos(),
        tx_wire_ns: tx_wire.as_nanos(),
        conserved: lane_busy == tx_wire,
        forwarded: fs.forwarded,
        assigned: fs.assigned,
        unroutable: fs.unroutable,
        sim_events,
        dump: world.dump(),
    };
    (result, sessions)
}

/// A tenant's total subtree CPU charge summed across every node.
fn tenant_cpu(world: &World, t: usize, nodes: u32) -> Nanos {
    let name = tenant_name(t);
    (0..nodes)
        .map(|n| {
            let k = world.kernel(NodeId(n));
            k.containers
                .find_by_name(&name)
                .and_then(|id| k.containers.subtree_cpu(id).ok())
                .unwrap_or(Nanos::ZERO)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ClusterTenantsParams {
        ClusterTenantsParams {
            clients_per_tenant: 48,
            secs: 12,
            measure_secs: 3,
            ..ClusterTenantsParams::reduced()
        }
    }

    #[test]
    fn orchestrator_and_shares_hold_global_split() {
        let r = run_cluster_tenants(ClusterTenantsParams::reduced());
        assert!(r.conserved, "wire accounting must conserve");
        assert!(
            !r.placements.is_empty(),
            "bronze starts capacity-confined; the orchestrator must place"
        );
        for (c, m) in r.configured.iter().zip(&r.measured) {
            assert!(
                (c - m).abs() <= 0.02,
                "configured {c} vs measured {m} (split {:?}, placements {:?})",
                r.measured,
                r.placements
            );
        }
    }

    #[test]
    fn without_rebalance_the_split_drifts() {
        let r = run_cluster_tenants(ClusterTenantsParams {
            rebalance: false,
            ..ClusterTenantsParams::reduced()
        });
        assert!(r.placements.is_empty() && r.drains.is_empty());
        // Gold owns six extra nodes outright: far above its 0.7 target.
        assert!(
            r.measured[0] > 0.80,
            "expected drift without rebalance, got {:?}",
            r.measured
        );
    }

    #[test]
    fn same_seed_clusters_dump_identically() {
        let a = run_cluster_tenants(tiny());
        let b = run_cluster_tenants(tiny());
        assert_eq!(a.dump, b.dump);
        assert!(!a.dump.is_empty());
    }
}
