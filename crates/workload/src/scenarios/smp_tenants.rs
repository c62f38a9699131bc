//! SMP share enforcement: two fixed-share tenants on an `ncpus`-way
//! kernel.
//!
//! The paper's fixed-share guarantee is a statement about the *machine*,
//! not about any one CPU: a container entitled to 70% must receive 70% of
//! total capacity even when run queues are per-CPU. This scenario drives
//! two CPU-bound thread-pool web servers — one per tenant container, with
//! fixed shares that sum to 1 — with enough closed-loop persistent
//! clients to saturate every CPU (keep-alive keeps the per-request
//! protocol work negligible next to the parse cost, so the split is
//! decided by the CPU scheduler rather than by the network pipeline), and
//! measures each tenant's fraction of consumed CPU plus the aggregate
//! throughput. On a multiprocessor the
//! container-aware load balancer is what keeps the split at the
//! configured shares; the same scenario at `ncpus = 1` exercises the
//! classic uniprocessor path and serves as the scaling baseline.

use httpsim::stats::shared_stats;
use httpsim::ThreadPoolServer;
use rescon::{Attributes, ContainerId};
use simcore::Nanos;
use simnet::Packet;
use simos::{Kernel, KernelConfig, World, WorldAction};

use crate::clients::{ClientSpec, HttpClients};
use crate::scenarios::virtual_servers::guest_addr;

/// Parameters of the SMP tenant experiment.
#[derive(Clone, Debug)]
pub struct SmpTenantsParams {
    /// Number of simulated CPUs.
    pub ncpus: u32,
    /// Fixed CPU share per tenant (summing to at most 1).
    pub shares: Vec<f64>,
    /// Closed-loop persistent clients per tenant (enough runnable workers
    /// to cover every CPU).
    pub clients_per_tenant: usize,
    /// Worker threads per tenant's server pool; `0` means one per client
    /// (each keep-alive connection parks on its worker).
    pub pool_size: u32,
    /// CPU burned parsing/handling each request (the knob that makes the
    /// workload CPU-bound).
    pub parse_cost: Nanos,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for SmpTenantsParams {
    fn default() -> Self {
        SmpTenantsParams {
            ncpus: 4,
            shares: vec![0.7, 0.3],
            clients_per_tenant: 24,
            pool_size: 0,
            parse_cost: Nanos::from_micros(200),
            secs: 10,
        }
    }
}

/// Result of the SMP tenant experiment.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SmpTenantsResult {
    /// Number of simulated CPUs.
    pub ncpus: u32,
    /// Configured shares (normalized).
    pub configured: Vec<f64>,
    /// Measured fraction of total tenant CPU consumed by each tenant over
    /// the measurement window.
    pub measured: Vec<f64>,
    /// Per-tenant static throughput (requests/second).
    pub throughputs: Vec<f64>,
    /// Aggregate throughput across tenants (requests/second).
    pub total_throughput: f64,
    /// Threads migrated by the load balancer (zero at `ncpus = 1`).
    pub migrations: u64,
    /// Per-CPU busy fraction (charged + interrupt + overhead over
    /// elapsed), one entry per CPU.
    pub busy_fraction: Vec<f64>,
}

/// Per-tenant client sets, routed by tenant address block (tenant `t`
/// clients live in `10.{100+t}.x.x`, like the virtual-server guests).
struct TenantWorld {
    tenants: Vec<HttpClients>,
}

/// Tag block per tenant.
const TENANT_SHIFT: u32 = 32;

impl World for TenantWorld {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        let (_, b, _, _) = pkt.flow.src.octets();
        let t = (b as usize).saturating_sub(100);
        if let Some(c) = self.tenants.get_mut(t) {
            let mut local = Vec::new();
            c.on_packet(pkt, now, &mut local);
            relabel(&mut local, t);
            actions.extend(local);
        }
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        let t = (tag >> TENANT_SHIFT) as usize;
        if let Some(c) = self.tenants.get_mut(t) {
            let mut local = Vec::new();
            c.on_timer(tag & ((1 << TENANT_SHIFT) - 1), now, &mut local);
            relabel(&mut local, t);
            actions.extend(local);
        }
    }
}

fn relabel(actions: &mut [WorldAction], t: usize) {
    for a in actions.iter_mut() {
        if let WorldAction::SetTimer { tag, .. } = a {
            *tag |= (t as u64) << TENANT_SHIFT;
        }
    }
}

/// Runs the SMP tenant experiment on the RC kernel with `ncpus` CPUs.
pub fn run_smp_tenants(params: SmpTenantsParams) -> SmpTenantsResult {
    let n = params.shares.len();
    assert!(n >= 1, "need at least one tenant");
    let ncpus = params.ncpus.max(1);
    let pool = if params.pool_size == 0 {
        params.clients_per_tenant as u32
    } else {
        params.pool_size
    };
    let secs = params.secs.max(4);
    let end = Nanos::from_secs(secs);
    let warmup = Nanos::from_secs(2).min(end / 4);

    let mut k = Kernel::new(KernelConfig::resource_containers().with_ncpus(ncpus));

    // Top-level tenant containers with fixed shares.
    let tenants: Vec<ContainerId> = params
        .shares
        .iter()
        .enumerate()
        .map(|(t, &share)| {
            k.containers
                .create(
                    None,
                    Attributes::fixed_share(share).named(&format!("tenant-{t}")),
                )
                .expect("tenant container")
        })
        .collect();

    // One CPU-bound thread-pool server per tenant, inside its container.
    // All connections charge the tenant (no per-connection containers):
    // the experiment is about dividing the machine between tenants.
    for (t, &tenant) in tenants.iter().enumerate() {
        let stats = shared_stats();
        k.spawn_process(
            Box::new(ThreadPoolServer::new(
                8000 + t as u16,
                pool,
                params.parse_cost,
                1024,
                false,
                stats,
            )),
            &format!("tenant-httpd-{t}"),
            Some(tenant),
            Attributes::time_shared(10),
            None,
        );
    }

    // Closed-loop client sets, one per tenant.
    let mut world = TenantWorld {
        tenants: Vec::new(),
    };
    for t in 0..n {
        let specs: Vec<ClientSpec> = (0..params.clients_per_tenant)
            .map(|i| {
                let mut s = ClientSpec::staticloop(guest_addr(t, i), 0)
                    .with_kind(httpsim::ReqKind::StaticKeepAlive)
                    .starting_at(Nanos::from_micros(10 + 7 * i as u64));
                s.port = 8000 + t as u16;
                s
            })
            .collect();
        let clients = HttpClients::new(specs, warmup, end);
        for i in 0..clients.len() {
            k.arm_world_timer(
                ((t as u64) << TENANT_SHIFT) | (i as u64 * 4),
                Nanos::from_micros(10 + 7 * i as u64),
            );
        }
        world.tenants.push(clients);
    }

    // Warmup, snapshot per-tenant CPU, measure.
    k.run(&mut world, warmup);
    let cpu0: Vec<Nanos> = tenants
        .iter()
        .map(|&t| k.containers.subtree_cpu(t).unwrap())
        .collect();
    k.run(&mut world, end);
    let deltas: Vec<Nanos> = tenants
        .iter()
        .zip(&cpu0)
        .map(|(&t, &c0)| k.containers.subtree_cpu(t).unwrap() - c0)
        .collect();
    let total: Nanos = deltas.iter().copied().sum();

    let share_sum: f64 = params.shares.iter().sum();
    let throughputs: Vec<f64> = (0..n)
        .map(|t| world.tenants[t].metrics.throughput(0))
        .collect();
    SmpTenantsResult {
        ncpus,
        configured: params.shares.iter().map(|s| s / share_sum).collect(),
        measured: deltas.iter().map(|&d| d.ratio(total)).collect(),
        total_throughput: throughputs.iter().sum(),
        throughputs,
        migrations: k.stats().migrations,
        busy_fraction: k
            .per_cpu_stats()
            .iter()
            .map(|c| {
                let busy = c.charged_cpu + c.interrupt_cpu + c.overhead_cpu;
                busy.ratio(c.total())
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced(ncpus: u32) -> SmpTenantsParams {
        SmpTenantsParams {
            ncpus,
            clients_per_tenant: 16,
            secs: 4,
            ..SmpTenantsParams::default()
        }
    }

    #[test]
    fn four_cpus_hold_global_shares_and_scale() {
        let r1 = run_smp_tenants(reduced(1));
        let r4 = run_smp_tenants(reduced(4));
        for (c, m) in r4.configured.iter().zip(&r4.measured) {
            assert!(
                (c - m).abs() < 0.05,
                "configured {c} vs measured {m} ({:?})",
                r4.measured
            );
        }
        assert!(
            r4.total_throughput > 2.0 * r1.total_throughput,
            "4-CPU {} req/s vs 1-CPU {} req/s",
            r4.total_throughput,
            r1.total_throughput
        );
        assert!(r4.migrations > 0, "balancer never migrated");
        assert_eq!(r1.migrations, 0, "uniprocessor must never migrate");
        assert_eq!(r4.busy_fraction.len(), 4);
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_smp_tenants(reduced(2));
        let b = run_smp_tenants(reduced(2));
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.throughputs, b.throughputs);
        assert_eq!(a.migrations, b.migrations);
    }
}
