//! Replica placement: the profile-then-rebalance loop over *placement*
//! rather than shares.
//!
//! Share balancing alone cannot fix a tenant that simply isn't present
//! where the capacity is: a tenant confined to 2 of 8 nodes can never
//! exceed 25% of cluster CPU however its per-node shares are tuned. The
//! [`Orchestrator`] watches the same epoch observations as
//! [`crate::GlobalShare`] and, when a tenant lags its target persistently
//! *and* its current nodes are saturated, decides to **place** a new
//! replica on the least-loaded node without one (lowest node id on ties
//! — determinism is part of the contract). Conversely a tenant
//! persistently over target with replicas to spare gets its
//! busiest-node replica **drained** (load-balancer weight to zero;
//! in-flight connections finish). Placing on one side and draining on
//! the other is how traffic migrates.
//!
//! The orchestrator is pure decision logic: it returns [`Action`]s and
//! the harness executes them (spawning server processes needs
//! application knowledge a placement layer shouldn't have).

use std::collections::BTreeSet;

use crate::world::NodeId;

/// A tenant lags when `target − measured > LAG_THRESHOLD`.
const LAG_THRESHOLD: f64 = 0.05;
/// Consecutive lagging epochs before acting.
const PATIENCE: u32 = 2;
/// A node is saturated when its busy fraction is at least this.
const SATURATION: f64 = 0.80;
/// Never drain a tenant below this many active replicas.
const MIN_REPLICAS: usize = 1;

/// A placement decision for the harness to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Spawn a replica of `tenant`'s server on `node` and give it
    /// load-balancer weight.
    Place {
        /// Tenant index.
        tenant: usize,
        /// Target node.
        node: NodeId,
    },
    /// Set `tenant`'s load-balancer weight on `node` to zero; the
    /// process stays up until its flows finish.
    Drain {
        /// Tenant index.
        tenant: usize,
        /// Node being drained.
        node: NodeId,
    },
}

/// One tenant's streak counters.
#[derive(Clone, Copy, Debug, Default)]
struct Streaks {
    lagging: u32,
    over: u32,
}

/// The placement orchestrator.
pub struct Orchestrator {
    /// Active (non-drained) replica nodes per tenant.
    replicas: Vec<BTreeSet<u32>>,
    streaks: Vec<Streaks>,
}

impl Orchestrator {
    /// An orchestrator for `initial_replicas[tenant]` = the nodes each
    /// tenant starts on.
    pub fn new(initial_replicas: Vec<Vec<NodeId>>) -> Self {
        let streaks = vec![Streaks::default(); initial_replicas.len()];
        let replicas = initial_replicas
            .into_iter()
            .map(|nodes| nodes.into_iter().map(|n| n.0).collect())
            .collect();
        Orchestrator { replicas, streaks }
    }

    /// The active replica nodes of a tenant.
    pub fn replicas(&self, tenant: usize) -> Vec<NodeId> {
        self.replicas[tenant].iter().map(|&n| NodeId(n)).collect()
    }

    /// One epoch of decisions. `measured`/`targets` are global CPU
    /// fractions per tenant (from [`crate::GlobalShare`]); `node_busy` is
    /// each node's busy fraction over the epoch. Placements and drains
    /// are applied to the internal replica sets immediately, so the next
    /// epoch reasons about the new layout.
    pub fn tick(&mut self, measured: &[f64], targets: &[f64], node_busy: &[f64]) -> Vec<Action> {
        let mut actions = Vec::new();
        for t in 0..self.replicas.len() {
            let err = targets[t] - measured[t];
            {
                let s = &mut self.streaks[t];
                if err > LAG_THRESHOLD {
                    s.lagging += 1;
                    s.over = 0;
                } else if -err > LAG_THRESHOLD {
                    s.over += 1;
                    s.lagging = 0;
                } else {
                    s.lagging = 0;
                    s.over = 0;
                }
            }
            let s = self.streaks[t];
            if s.lagging >= PATIENCE && self.saturated(t, node_busy) {
                if let Some(node) = self.spread_target(t, node_busy) {
                    self.replicas[t].insert(node.0);
                    self.streaks[t].lagging = 0;
                    actions.push(Action::Place { tenant: t, node });
                }
            } else if s.over >= PATIENCE && self.replicas[t].len() > MIN_REPLICAS {
                if let Some(node) = self.drain_target(t, node_busy) {
                    self.replicas[t].remove(&node.0);
                    self.streaks[t].over = 0;
                    actions.push(Action::Drain { tenant: t, node });
                }
            }
        }
        actions
    }

    /// A tenant expands only when every node it already runs on is
    /// saturated — otherwise the share balancer still has local headroom
    /// to exploit and placement would be premature.
    fn saturated(&self, tenant: usize, node_busy: &[f64]) -> bool {
        self.replicas[tenant]
            .iter()
            .all(|&n| node_busy.get(n as usize).copied().unwrap_or(0.0) >= SATURATION)
    }

    /// Least-busy node without a replica of the tenant (lowest id ties).
    fn spread_target(&self, tenant: usize, node_busy: &[f64]) -> Option<NodeId> {
        let mut best: Option<(f64, u32)> = None;
        for (n, &busy) in node_busy.iter().enumerate() {
            let n = n as u32;
            if self.replicas[tenant].contains(&n) {
                continue;
            }
            if best.is_none_or(|(b, _)| busy < b) {
                best = Some((busy, n));
            }
        }
        best.map(|(_, n)| NodeId(n))
    }

    /// Busiest replica node (lowest id ties) — draining where contention
    /// is worst frees the most capacity for the lagging tenants.
    fn drain_target(&self, tenant: usize, node_busy: &[f64]) -> Option<NodeId> {
        let mut best: Option<(f64, u32)> = None;
        for &n in &self.replicas[tenant] {
            let busy = node_busy.get(n as usize).copied().unwrap_or(0.0);
            if best.is_none_or(|(b, _)| busy > b) {
                best = Some((busy, n));
            }
        }
        best.map(|(_, n)| NodeId(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn places_only_after_patience_and_saturation() {
        let mut o = Orchestrator::new(vec![vec![NodeId(0)]]);
        let busy = [0.95, 0.2, 0.4];
        // First lagging epoch: patience not yet met.
        assert!(o.tick(&[0.10], &[0.30], &busy).is_empty());
        // Second: place on the least-busy node without a replica.
        assert_eq!(
            o.tick(&[0.10], &[0.30], &busy),
            vec![Action::Place {
                tenant: 0,
                node: NodeId(1)
            }]
        );
        assert_eq!(o.replicas(0), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn no_placement_with_local_headroom() {
        let mut o = Orchestrator::new(vec![vec![NodeId(0)]]);
        let busy = [0.30, 0.10];
        for _ in 0..5 {
            assert!(o.tick(&[0.05], &[0.50], &busy).is_empty());
        }
    }

    #[test]
    fn drains_busiest_replica_when_over_target() {
        let mut o = Orchestrator::new(vec![vec![NodeId(0), NodeId(1), NodeId(2)]]);
        let busy = [0.5, 0.9, 0.7];
        assert!(o.tick(&[0.80], &[0.30], &busy).is_empty());
        assert_eq!(
            o.tick(&[0.80], &[0.30], &busy),
            vec![Action::Drain {
                tenant: 0,
                node: NodeId(1)
            }]
        );
        assert_eq!(o.replicas(0), vec![NodeId(0), NodeId(2)]);
    }
}
