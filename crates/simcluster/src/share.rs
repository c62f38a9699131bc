//! Cross-machine share balancing: the cluster-level analogue of the SMP
//! lag-ranked balancer.
//!
//! A tenant's resource container hierarchy spans machines *logically*:
//! one container per node, all named the same. Per-node fixed shares
//! divide each node locally, so with skewed placement or skewed traffic a
//! tenant's *global* CPU fraction drifts off target. [`GlobalShare`]
//! closes the loop: each epoch it measures every tenant's charge growth
//! across all nodes, compares the global fraction against the target, and
//! nudges the per-node weights multiplicatively
//! (`w *= 1 + GAIN·(target − measured)`, with `GAIN` = 0.8),
//! renormalizing per node and actuating through
//! `ContainerTable::set_attrs` — the same
//! observe-then-re-parameterize loop as C-Balancer's
//! profile-then-rebalance, expressed over resource-container attributes.

use std::collections::HashMap;

use rescon::SchedPolicy;
use simcore::Nanos;

use crate::world::{NodeId, World};

/// One tenant's balancing state.
#[derive(Clone, Debug)]
pub struct TenantShare {
    /// The per-node container name (e.g. `"tenant-gold"`).
    pub container: String,
    /// Target global CPU fraction in `(0, 1)`.
    pub target: f64,
}

/// The periodic cross-node share balancer.
pub struct GlobalShare {
    tenants: Vec<TenantShare>,
    /// Per-`(tenant, node)` weight, seeded from the target.
    weights: HashMap<(usize, u32), f64>,
    /// Per-`(tenant, node)` subtree CPU at the previous epoch.
    prev: HashMap<(usize, u32), Nanos>,
    /// Most recent measured global fraction per tenant.
    measured: Vec<f64>,
}

/// Weight clamp: no tenant's per-node weight collapses to zero or
/// starves the others entirely.
const MIN_W: f64 = 0.02;
const MAX_W: f64 = 50.0;
/// Per-node share headroom left for non-tenant (root/system) work.
const HEADROOM: f64 = 0.95;
/// Proportional gain on the multiplicative weight update (0.5–2.0
/// converges in a handful of epochs; higher oscillates).
const GAIN: f64 = 0.8;

impl GlobalShare {
    /// A balancer for `tenants`.
    pub fn new(tenants: Vec<TenantShare>) -> Self {
        let measured = vec![0.0; tenants.len()];
        GlobalShare {
            tenants,
            weights: HashMap::new(),
            prev: HashMap::new(),
            measured,
        }
    }

    /// The most recent epoch's measured global CPU fraction per tenant
    /// (zeros before the first [`GlobalShare::rebalance`]).
    pub fn measured(&self) -> &[f64] {
        &self.measured
    }

    /// The tenant targets, index-aligned with [`GlobalShare::measured`].
    pub fn targets(&self) -> Vec<f64> {
        self.tenants.iter().map(|t| t.target).collect()
    }

    /// Measurement half of an epoch: per-tenant charge growth since the
    /// last call, folded into a global CPU fraction per tenant. Updates
    /// the internal snapshots and [`GlobalShare::measured`] without
    /// touching any weight — the observation arm for no-rebalance
    /// (drift) baselines.
    pub fn measure(&mut self, world: &World) -> Vec<f64> {
        let nodes = world.len() as u32;
        let mut delta: Vec<Vec<Nanos>> = vec![Vec::new(); self.tenants.len()];
        for (t, tenant) in self.tenants.iter().enumerate() {
            for n in 0..nodes {
                let k = world.kernel(NodeId(n));
                let cpu = k
                    .containers
                    .find_by_name(&tenant.container)
                    .and_then(|id| k.containers.subtree_cpu(id).ok())
                    .unwrap_or(Nanos::ZERO);
                let prev = self.prev.insert((t, n), cpu).unwrap_or(Nanos::ZERO);
                delta[t].push(cpu.saturating_sub(prev));
            }
        }
        let total: f64 = delta
            .iter()
            .flat_map(|d| d.iter())
            .map(|d| d.as_secs_f64())
            .sum();
        for (t, _) in self.tenants.iter().enumerate() {
            let mine: f64 = delta[t].iter().map(|d| d.as_secs_f64()).sum();
            self.measured[t] = if total > 0.0 { mine / total } else { 0.0 };
        }
        self.measured.clone()
    }

    /// One epoch: measure per-tenant charge growth since the last call,
    /// update per-node weights towards the global targets, and actuate
    /// the resulting fixed shares on every node hosting the tenant.
    /// Returns the measured global fractions, index-aligned with the
    /// tenants.
    pub fn rebalance(&mut self, world: &mut World) -> Vec<f64> {
        let nodes = world.len() as u32;
        let measured = self.measure(world);
        // Control: one multiplicative nudge per tenant from its global
        // error, applied to every node where the tenant runs.
        for (t, tenant) in self.tenants.iter().enumerate() {
            let frac = measured[t];
            if frac <= 0.0 && measured.iter().all(|&m| m <= 0.0) {
                continue;
            }
            let err = tenant.target - frac;
            for n in 0..nodes {
                let w = self
                    .weights
                    .entry((t, n))
                    .or_insert(tenant.target.max(MIN_W));
                *w = (*w * (1.0 + GAIN * err)).clamp(MIN_W, MAX_W);
            }
        }
        // 3. Actuate: renormalize per node over the tenants present there
        // and install the fixed shares.
        for n in 0..nodes {
            let k = world.kernel_mut(NodeId(n));
            let present: Vec<(usize, rescon::ContainerId)> = self
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(t, tenant)| {
                    k.containers
                        .find_by_name(&tenant.container)
                        .map(|id| (t, id))
                })
                .collect();
            let sum: f64 = present
                .iter()
                .map(|&(t, _)| self.weights.get(&(t, n)).copied().unwrap_or(MIN_W))
                .sum();
            if sum <= 0.0 {
                continue;
            }
            // Install decreases before increases: the new shares sum to
            // at most the headroom, but an increase applied while another
            // tenant still holds its old (larger) share could transiently
            // overcommit the node and be rejected.
            let mut planned: Vec<(rescon::ContainerId, f64, f64)> = present
                .iter()
                .map(|&(t, id)| {
                    let w = self.weights.get(&(t, n)).copied().unwrap_or(MIN_W);
                    let share = (w / sum * HEADROOM).clamp(0.01, HEADROOM);
                    let old = match k.containers.attrs(id) {
                        Ok(a) => match a.policy {
                            SchedPolicy::FixedShare { share } => share,
                            _ => 0.0,
                        },
                        Err(_) => 0.0,
                    };
                    (id, share, share - old)
                })
                .collect();
            planned.sort_by(|a, b| a.2.total_cmp(&b.2));
            for &(id, share, _) in &planned {
                let Ok(attrs) = k.containers.attrs(id) else {
                    continue;
                };
                let mut attrs = attrs.clone();
                attrs.policy = SchedPolicy::FixedShare { share };
                let _ = k.containers.set_attrs(id, attrs);
            }
        }
        self.measured.clone()
    }
}
