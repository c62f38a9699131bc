//! The cluster world: N kernels plus the frontend, advanced in
//! barrier-synchronous conservative rounds against a shared horizon.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use simcore::Nanos;
use simnet::Packet;
use simos::{Kernel, KernelConfig, NullWorld};

use crate::frontend::Frontend;
use crate::link::{Lane, LaneSpec};

/// Identifies a cluster node. Kernel nodes are numbered densely from 0;
/// the front-end load balancer is [`FRONTEND`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The front-end load-balancer node's id.
pub const FRONTEND: NodeId = NodeId(u32::MAX);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == FRONTEND {
            write!(f, "frontend")
        } else {
            write!(f, "node{}", self.0)
        }
    }
}

/// Static description of one kernel node: a name and the full per-node
/// kernel configuration (reused wholesale from single-node runs).
pub struct NodeSpec {
    /// Display name (trace track group, dumps).
    pub name: String,
    /// The node's kernel configuration.
    pub kernel: KernelConfig,
}

impl NodeSpec {
    /// A node with the given name and kernel config.
    pub fn new(name: impl Into<String>, kernel: KernelConfig) -> Self {
        NodeSpec {
            name: name.into(),
            kernel,
        }
    }
}

/// One kernel node at runtime.
pub struct Node {
    /// Display name.
    pub name: String,
    /// The node's kernel (public: scenarios spawn processes, read usage).
    /// It steps against a [`NullWorld`]: all foreign traffic is captured
    /// by the egress filter instead.
    pub kernel: Kernel,
    /// The node's detached observability session between steps.
    session: Option<rctrace::PausedSession>,
}

/// The cluster: kernel nodes, the frontend, and the lanes joining them,
/// advanced conservatively in rounds of the minimum lane latency.
pub struct World {
    nodes: Vec<Node>,
    /// The front-end load-balancer node.
    pub frontend: Frontend,
    /// Directed lanes keyed by `(src, dst)` raw node ids (the frontend is
    /// `u32::MAX`); `BTreeMap` for deterministic dump order.
    lanes: BTreeMap<(u32, u32), Lane>,
    /// Wire (serialization) time charged per source node — the cluster
    /// half of the conservation identity with lane busy time.
    tx: BTreeMap<u32, Nanos>,
    quantum: Nanos,
    clock: Nanos,
    tracing: bool,
    /// The caller's own observability session, parked while per-node
    /// sessions run.
    outer_session: Option<rctrace::PausedSession>,
    egress_scratch: Vec<(Nanos, Packet)>,
    fe_scratch: Vec<(Nanos, NodeId, Packet)>,
}

impl World {
    /// Builds a star-topology cluster: every node is joined to the
    /// frontend by a lane pair of `lane`'s parameters. Each kernel's
    /// egress filter is the frontend's client space, so replies to clients
    /// are captured for the node's lane to the frontend and local traffic
    /// stays local.
    pub fn new(specs: Vec<NodeSpec>, frontend: Frontend, lane: LaneSpec) -> Self {
        assert!(
            !lane.latency.is_zero(),
            "inter-node lanes need non-zero latency: it is the conservative lookahead"
        );
        let nodes: Vec<Node> = specs
            .into_iter()
            .map(|spec| {
                let mut kernel = Kernel::new(spec.kernel);
                kernel.set_egress_filter(frontend.owns());
                Node {
                    name: spec.name,
                    kernel,
                    session: None,
                }
            })
            .collect();
        let mut lanes = BTreeMap::new();
        for i in 0..nodes.len() as u32 {
            lanes.insert((i, FRONTEND.0), Lane::new(lane));
            lanes.insert((FRONTEND.0, i), Lane::new(lane));
        }
        World {
            nodes,
            frontend,
            lanes,
            tx: BTreeMap::new(),
            quantum: lane.latency,
            clock: Nanos::ZERO,
            tracing: false,
            outer_session: None,
            egress_scratch: Vec::new(),
            fe_scratch: Vec::new(),
        }
    }

    /// Number of kernel nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the cluster has no kernel nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current cluster-wide virtual time (every node has stepped to it).
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// The node's kernel (scenarios spawn processes and read usage).
    pub fn kernel(&self, node: NodeId) -> &Kernel {
        &self.nodes[node.0 as usize].kernel
    }

    /// Mutable access to a node's kernel.
    pub fn kernel_mut(&mut self, node: NodeId) -> &mut Kernel {
        &mut self.nodes[node.0 as usize].kernel
    }

    /// Starts one observability session per node (node id order). Any
    /// session the caller had active is parked and restored by
    /// [`World::finish_tracing`]. Call before the first [`World::run`].
    pub fn start_tracing(&mut self, cfg: rctrace::TraceConfig) {
        self.outer_session = Some(rctrace::pause());
        for node in &mut self.nodes {
            rctrace::start(cfg);
            node.session = Some(rctrace::pause());
        }
        self.tracing = true;
    }

    /// Finishes every node's session (flushing end-of-run totals) and
    /// returns them as `(node name, session)` pairs in node id order,
    /// restoring the caller's parked session.
    pub fn finish_tracing(&mut self) -> Vec<(String, rctrace::TraceSession)> {
        let mut out = Vec::new();
        if self.tracing {
            for node in &mut self.nodes {
                if let Some(s) = node.session.take() {
                    rctrace::resume(s);
                    node.kernel.flush_observability();
                    if let Some(sess) = rctrace::finish() {
                        out.push((node.name.clone(), sess));
                    }
                }
            }
            self.tracing = false;
        }
        if let Some(outer) = self.outer_session.take() {
            rctrace::resume(outer);
        }
        out
    }

    /// Advances the whole cluster to `until` in conservative rounds: each
    /// round steps every kernel node to the shared horizon, then the
    /// frontend, then carries all captured egress over the lanes. Every
    /// carried packet arrives at `departure + serialization + latency ≥`
    /// the horizon, so no node ever receives an event in its past.
    pub fn run(&mut self, until: Nanos) {
        while self.clock < until {
            let horizon = (self.clock + self.quantum).min(until);
            for i in 0..self.nodes.len() {
                let node = &mut self.nodes[i];
                if let Some(s) = node.session.take() {
                    rctrace::resume(s);
                }
                node.kernel.step_until(&mut NullWorld, horizon);
                node.kernel.drain_egress_into(&mut self.egress_scratch);
                if self.tracing {
                    node.session = Some(rctrace::pause());
                }
                let mut pkts = std::mem::take(&mut self.egress_scratch);
                for (departure, pkt) in pkts.drain(..) {
                    self.carry(NodeId(i as u32), FRONTEND, departure, pkt);
                }
                self.egress_scratch = pkts;
            }
            self.frontend.step_until(horizon);
            let mut deps = std::mem::take(&mut self.fe_scratch);
            self.frontend.drain_departures_into(&mut deps);
            for (departure, dst, pkt) in deps.drain(..) {
                self.carry(FRONTEND, dst, departure, pkt);
            }
            self.fe_scratch = deps;
            self.clock = horizon;
        }
    }

    /// Carries one packet over the `(src, dst)` lane, charging the
    /// serialization to the source node. A route may name a node this
    /// world lacks (a [`TenantRoute`](crate::TenantRoute) or
    /// [`Frontend::set_weight`] can); with no lane to it, the packet
    /// counts as unroutable and is dropped.
    fn carry(&mut self, src: NodeId, dst: NodeId, departure: Nanos, pkt: Packet) {
        let Some(lane) = self.lanes.get_mut(&(src.0, dst.0)) else {
            self.frontend.stats.unroutable += 1;
            return;
        };
        let (arrival, ser) = lane.transmit(departure, pkt.wire_bytes() as u64);
        if !ser.is_zero() {
            *self.tx.entry(src.0).or_insert(Nanos::ZERO) += ser;
        }
        if dst == FRONTEND {
            self.frontend.deliver(pkt, arrival);
        } else {
            self.nodes[dst.0 as usize]
                .kernel
                .inject_packet(pkt, arrival);
        }
    }

    /// Total lane busy (serialization) time across the cluster.
    pub fn lanes_busy_total(&self) -> Nanos {
        self.lanes.values().fold(Nanos::ZERO, |acc, l| acc + l.busy)
    }

    /// Total wire time charged to source nodes — equals
    /// [`World::lanes_busy_total`] by construction (the conservation
    /// identity the cluster tests assert).
    pub fn tx_total(&self) -> Nanos {
        self.tx.values().fold(Nanos::ZERO, |acc, &t| acc + t)
    }

    /// One lane's accounting, if the lane exists.
    pub fn lane(&self, src: NodeId, dst: NodeId) -> Option<&Lane> {
        self.lanes.get(&(src.0, dst.0))
    }

    /// A deterministic plain-text dump of the whole cluster state:
    /// per-node kernel counters and per-container usage, frontend
    /// counters, and per-lane accounting. Two same-seed runs must produce
    /// byte-identical dumps — the cluster determinism contract.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cluster clock={}", self.clock.as_nanos());
        for (i, node) in self.nodes.iter().enumerate() {
            let k = &node.kernel;
            let s = k.stats();
            let _ = writeln!(
                out,
                "node{} name={} clock={} charged={} interrupt={} idle={} pkts_in={} pkts_out={} drops={} ctx={} events={}",
                i,
                node.name,
                k.clock().as_nanos(),
                s.charged_cpu.as_nanos(),
                s.interrupt_cpu.as_nanos(),
                s.idle_cpu.as_nanos(),
                s.pkts_in,
                s.pkts_out,
                s.early_drops,
                s.ctx_switches,
                s.sim_events,
            );
            let mut rows: Vec<(u64, String, u64, u64, u64)> = k
                .containers
                .iter()
                .map(|(id, c)| {
                    (
                        id.as_u64(),
                        c.attrs().name.clone().unwrap_or_default(),
                        k.containers
                            .subtree_cpu(id)
                            .unwrap_or(Nanos::ZERO)
                            .as_nanos(),
                        k.containers
                            .subtree_disk(id)
                            .unwrap_or(Nanos::ZERO)
                            .as_nanos(),
                        k.containers
                            .subtree_tx(id)
                            .unwrap_or(Nanos::ZERO)
                            .as_nanos(),
                    )
                })
                .collect();
            rows.sort();
            for (id, name, cpu, disk, tx) in rows {
                let _ = writeln!(
                    out,
                    "  container{id} name={name} cpu={cpu} disk={disk} tx={tx}"
                );
            }
        }
        let fs = self.frontend.stats;
        let _ = writeln!(
            out,
            "frontend forwarded={} assigned={} unroutable={} sticky={}",
            fs.forwarded,
            fs.assigned,
            fs.unroutable,
            self.frontend.sticky_flows(),
        );
        for (&(src, dst), lane) in &self.lanes {
            let _ = writeln!(
                out,
                "lane {}->{} busy={} bytes={} pkts={}",
                NodeId(src),
                NodeId(dst),
                lane.busy.as_nanos(),
                lane.wire_bytes,
                lane.pkts,
            );
        }
        for (&src, &t) in &self.tx {
            let _ = writeln!(out, "tx {} wire={}", NodeId(src), t.as_nanos());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::TenantRoute;
    use simnet::{CidrFilter, FlowKey, IpAddr, PacketKind};
    use simos::{World as HostedWorld, WorldAction};

    /// A client that opens one connection when its timer fires.
    struct OneSyn;

    impl HostedWorld for OneSyn {
        fn on_packet(&mut self, _pkt: Packet, _now: Nanos, _actions: &mut Vec<WorldAction>) {}
        fn on_timer(&mut self, _tag: u64, _now: Nanos, actions: &mut Vec<WorldAction>) {
            let flow = FlowKey::new(IpAddr::new(10, 0, 0, 1), 1000, 80);
            actions.push(WorldAction::SendPacket {
                pkt: Packet::new(flow, PacketKind::Syn),
                delay: Nanos::ZERO,
            });
        }
    }

    #[test]
    fn a_route_to_a_missing_node_is_an_unroutable_drop() {
        let clients = CidrFilter::new(IpAddr::new(10, 0, 0, 0), 8);
        // The route names node 3; the world has node 0 only.
        let route = TenantRoute::new(clients, vec![(NodeId(3), 1)]);
        let mut frontend = Frontend::new(Box::new(OneSyn), vec![route]);
        frontend.arm_world_timer(0, Nanos::from_micros(10));
        let specs = vec![NodeSpec::new("node0", KernelConfig::resource_containers())];
        let lane = LaneSpec::new(Nanos::from_micros(200), 10_000_000_000);
        let mut world = World::new(specs, frontend, lane);
        world.run(Nanos::from_millis(1));
        assert_eq!(world.frontend.stats.forwarded, 1);
        assert_eq!(world.frontend.stats.unroutable, 1);
        assert_eq!(world.lanes_busy_total(), Nanos::ZERO);
        assert_eq!(world.tx_total(), Nanos::ZERO);
    }
}
