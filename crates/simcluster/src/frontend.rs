//! The front-end load-balancer node.
//!
//! The frontend is the cluster node that *hosts the client worlds*: it
//! owns the client address space, runs client timers on its own event
//! queue, and sprays each new connection across the backend replicas of
//! the client's tenant. It is not a kernel — a load balancer that only
//! rewrites and forwards frames would contribute nothing to the resource
//! accounting story — so it steps a plain DES loop instead.
//!
//! Routing is two-level and deterministic:
//!
//! - **Tenant match**: the packet's client (source) address is matched
//!   against each [`TenantRoute`]'s prefix filter.
//! - **Replica pick**: a `SYN` starts a new connection and is assigned by
//!   smooth weighted round-robin over the tenant's replicas; every later
//!   packet of the flow follows the sticky entry, so a connection never
//!   straddles backends. Clients open each connection from a fresh source
//!   port, so reconnects re-enter WRR and *traffic migrates* when the
//!   orchestrator changes weights — no address rewriting is needed,
//!   because backend replies name the client address and route back here
//!   by prefix ownership.

use std::collections::HashMap;

use simcore::{EventQueue, Nanos};
use simnet::{CidrFilter, FlowKey, Packet, PacketKind};
use simos::{World, WorldAction};

use crate::world::NodeId;

/// Routing state for one tenant: which clients it owns and where its
/// server replicas live.
#[derive(Clone, Debug)]
pub struct TenantRoute {
    /// Client source prefix identifying the tenant's traffic.
    pub filter: CidrFilter,
    /// `(backend node, weight)` per replica; weight 0 = draining (no new
    /// connections, existing flows finish).
    pub replicas: Vec<(NodeId, u32)>,
    /// Smooth-WRR running credit, one per replica.
    current: Vec<i64>,
}

impl TenantRoute {
    /// A route for clients matching `filter`, initially served by
    /// `replicas`.
    pub fn new(filter: CidrFilter, replicas: Vec<(NodeId, u32)>) -> Self {
        let current = vec![0; replicas.len()];
        TenantRoute {
            filter,
            replicas,
            current,
        }
    }

    /// Smooth weighted round-robin: each pick adds every replica's weight
    /// to its credit, takes the highest-credit replica (lowest node id on
    /// ties), and debits it by the total weight. Deterministic and
    /// drift-free: over any window the pick counts track the weights.
    fn pick(&mut self) -> Option<NodeId> {
        let total: i64 = self.replicas.iter().map(|&(_, w)| w as i64).sum();
        if total == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for (i, &(node, w)) in self.replicas.iter().enumerate() {
            if w == 0 {
                // Draining: keeps its residual credit but takes no picks.
                continue;
            }
            self.current[i] += w as i64;
            match best {
                Some(b)
                    if self.current[i] > self.current[b]
                        || (self.current[i] == self.current[b] && node < self.replicas[b].0) =>
                {
                    best = Some(i)
                }
                None => best = Some(i),
                _ => {}
            }
        }
        let b = best?;
        self.current[b] -= total;
        Some(self.replicas[b].0)
    }

    /// Sets (or adds) a replica's weight.
    pub fn set_weight(&mut self, node: NodeId, weight: u32) {
        if let Some(i) = self.replicas.iter().position(|&(n, _)| n == node) {
            self.replicas[i].1 = weight;
        } else {
            self.replicas.push((node, weight));
            self.current.push(0);
        }
    }

    /// The current weight of a replica (0 if absent).
    pub fn weight(&self, node: NodeId) -> u32 {
        self.replicas
            .iter()
            .find(|&&(n, _)| n == node)
            .map_or(0, |&(_, w)| w)
    }
}

/// Internal frontend events.
enum FeEvent {
    /// A packet arrived from a backend for a hosted client world.
    Deliver(Packet),
    /// A hosted world timer fired.
    Timer(u64),
}

/// Aggregate frontend counters (read after the run).
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontendStats {
    /// Packets forwarded towards backends.
    pub forwarded: u64,
    /// New connections assigned by WRR.
    pub assigned: u64,
    /// Packets dropped because no tenant route matched, every replica
    /// was draining, or the route named a node with no lane.
    pub unroutable: u64,
}

/// The front-end load-balancer node: hosts client worlds, sprays new
/// connections over backend replicas, and books per-flow stickiness.
pub struct Frontend {
    /// The hosted client world (compose multiple with a composite world).
    world: Box<dyn World>,
    routes: Vec<TenantRoute>,
    /// Live flow → backend assignments.
    sticky: HashMap<FlowKey, NodeId>,
    events: EventQueue<FeEvent>,
    clock: Nanos,
    /// Packets departing towards backends this step: `(departure, dst,
    /// packet)`, harvested by the cluster world after each step.
    departures: Vec<(Nanos, NodeId, Packet)>,
    /// Reusable action buffer for world upcalls.
    actions: Vec<WorldAction>,
    /// Aggregate counters.
    pub stats: FrontendStats,
}

impl Frontend {
    /// A frontend hosting `world`, routing tenants per `routes`.
    pub fn new(world: Box<dyn World>, routes: Vec<TenantRoute>) -> Self {
        Frontend {
            world,
            routes,
            sticky: HashMap::new(),
            events: EventQueue::new(),
            clock: Nanos::ZERO,
            departures: Vec::new(),
            actions: Vec::new(),
            stats: FrontendStats::default(),
        }
    }

    /// The union of all tenant prefixes — the client address space this
    /// node owns, which every kernel node's egress filter captures.
    pub fn owns(&self) -> Vec<CidrFilter> {
        self.routes.iter().map(|r| r.filter).collect()
    }

    /// Arms a hosted-world timer at an absolute time (the frontend
    /// analogue of [`simos::Kernel::arm_world_timer`]).
    pub fn arm_world_timer(&mut self, tag: u64, at: Nanos) {
        self.events
            .schedule(at.max(self.clock), FeEvent::Timer(tag));
    }

    /// Enqueues a backend packet for delivery to the hosted world at
    /// `at` (lane arrival time). A server-side close (FIN/RST) retires
    /// the flow's sticky entry, so the table tracks live connections.
    pub fn deliver(&mut self, pkt: Packet, at: Nanos) {
        if matches!(pkt.kind, PacketKind::Fin | PacketKind::Rst) {
            self.sticky.remove(&pkt.flow);
        }
        self.events
            .schedule(at.max(self.clock), FeEvent::Deliver(pkt));
    }

    /// Sets a tenant replica's WRR weight (orchestrator actuation).
    pub fn set_weight(&mut self, tenant: usize, node: NodeId, weight: u32) {
        self.routes[tenant].set_weight(node, weight);
    }

    /// Read access to a tenant's route (weights, replicas).
    pub fn route(&self, tenant: usize) -> &TenantRoute {
        &self.routes[tenant]
    }

    /// Number of tenant routes.
    pub fn tenants(&self) -> usize {
        self.routes.len()
    }

    /// Live sticky-flow entries (open or recently opened connections).
    pub fn sticky_flows(&self) -> usize {
        self.sticky.len()
    }

    /// Steps the frontend to `horizon`, delivering due events to the
    /// hosted world and translating its send actions into routed
    /// departures (harvest them with [`Frontend::drain_departures_into`]).
    pub fn step_until(&mut self, horizon: Nanos) {
        while let Some((at, ev)) = self.events.pop_due(horizon) {
            self.clock = at;
            let mut actions = std::mem::take(&mut self.actions);
            match ev {
                FeEvent::Deliver(pkt) => self.world.on_packet(pkt, at, &mut actions),
                FeEvent::Timer(tag) => self.world.on_timer(tag, at, &mut actions),
            }
            for a in actions.drain(..) {
                match a {
                    WorldAction::SendPacket { pkt, delay } => self.route_out(pkt, at + delay),
                    WorldAction::SetTimer { tag, delay } => {
                        self.events.schedule(at + delay, FeEvent::Timer(tag));
                    }
                }
            }
            self.actions = actions;
        }
        self.clock = horizon;
    }

    /// Moves this step's routed departures into `out`.
    pub fn drain_departures_into(&mut self, out: &mut Vec<(Nanos, NodeId, Packet)>) {
        out.append(&mut self.departures);
    }

    /// Routes one client packet towards a backend: tenant match on the
    /// source prefix, then sticky lookup (SYNs re-enter WRR).
    fn route_out(&mut self, pkt: Packet, departure: Nanos) {
        let Some(route) = self
            .routes
            .iter_mut()
            .find(|r| r.filter.matches(pkt.flow.src))
        else {
            self.stats.unroutable += 1;
            return;
        };
        let dst = if matches!(pkt.kind, PacketKind::Syn) {
            match route.pick() {
                Some(node) => {
                    self.sticky.insert(pkt.flow, node);
                    self.stats.assigned += 1;
                    node
                }
                None => {
                    self.stats.unroutable += 1;
                    return;
                }
            }
        } else {
            match self.sticky.get(&pkt.flow) {
                Some(&node) => node,
                None => {
                    // Stale flow (e.g. an RST after the entry was dropped):
                    // nothing to tear down, drop it.
                    self.stats.unroutable += 1;
                    return;
                }
            }
        };
        // A FIN or RST ends the flow; retire the sticky entry so the
        // table tracks live connections, not history.
        if matches!(pkt.kind, PacketKind::Fin | PacketKind::Rst) {
            self.sticky.remove(&pkt.flow);
        }
        self.stats.forwarded += 1;
        self.departures.push((departure, dst, pkt));
    }
}
