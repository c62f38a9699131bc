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
use simos::{Kernel, KernelConfig};

use super::{tenant_client, Window};

/// Fixed CPU share of each tenant.
const SHARES: [f64; 2] = [0.7, 0.3];
/// CPU burned parsing/handling each request (the knob that makes the
/// workload CPU-bound).
const PARSE_COST: Nanos = Nanos::from_micros(200);

/// Parameters of the SMP tenant experiment.
#[derive(Clone, Debug)]
pub struct SmpTenantsParams {
    /// Number of simulated CPUs.
    pub ncpus: u32,
    /// Closed-loop persistent clients per tenant (enough runnable workers
    /// to cover every CPU). Each tenant's server pool has one worker per
    /// client: each keep-alive connection parks on its worker.
    pub clients_per_tenant: usize,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for SmpTenantsParams {
    fn default() -> Self {
        SmpTenantsParams {
            ncpus: 4,
            clients_per_tenant: 24,
            secs: 10,
        }
    }
}

/// Result of the SMP tenant experiment.
#[derive(Clone, Debug)]
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

/// Runs the SMP tenant experiment on the RC kernel with `ncpus` CPUs.
pub fn run_smp_tenants(params: SmpTenantsParams) -> SmpTenantsResult {
    let n = SHARES.len();
    let ncpus = params.ncpus.max(1);
    let window = Window::new(params.secs);

    let mut k = Kernel::new(KernelConfig::resource_containers().with_ncpus(ncpus));

    // Top-level tenant containers with fixed shares.
    let tenants: Vec<ContainerId> = SHARES
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
                params.clients_per_tenant as u32,
                PARSE_COST,
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

    // Closed-loop persistent clients, one class per tenant.
    let specs = (0..n)
        .flat_map(|t| {
            (0..params.clients_per_tenant)
                .map(move |i| tenant_client(t, i).with_kind(httpsim::ReqKind::StaticKeepAlive))
        })
        .collect();
    let mut world = window.clients(&mut k, specs);
    let deltas = window.measure(&mut k, &mut world, |k| {
        tenants
            .iter()
            .map(|&t| k.containers.subtree_cpu(t).unwrap())
            .collect()
    });
    let total: Nanos = deltas.iter().copied().sum();

    let share_sum: f64 = SHARES.iter().sum();
    let throughputs: Vec<f64> = (0..n).map(|t| world.metrics.throughput(t)).collect();
    SmpTenantsResult {
        ncpus,
        configured: SHARES.iter().map(|s| s / share_sum).collect(),
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
