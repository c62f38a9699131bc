//! Disk-bandwidth isolation between tenants (§7 "other resources").
//!
//! The paper's prototype charges CPU to resource containers; §7 argues the
//! same abstraction covers "other system resources, such as disk
//! bandwidth". This experiment demonstrates it on the simulated disk: two
//! tenants with fixed shares (0.7 / 0.3) run disk-bound web
//! servers — a *hog* streaming large files and a *victim* serving small
//! ones, both sweeping document sets too large to cache — and we measure
//! how the disk's busy time divides between them.
//!
//! Under the FIFO scheduler (the "unmodified kernel" ablation) the hog's
//! long transfers queue ahead of the victim and the victim's throughput
//! collapses as the hog's load grows. Under the share-aware scheduler the
//! split tracks the configured shares and the victim's throughput stays
//! flat regardless of the hog.

use httpsim::stats::shared_stats;
use httpsim::{EventDrivenServer, FileBacking, ServerConfig};
use rescon::{Attributes, ContainerId};
use simcore::Nanos;
use simos::{DiskSchedKind, Kernel, KernelConfig};

use super::{tenant_client, Window};
use crate::clients::ClientSpec;

/// Fixed disk/CPU shares of [hog, victim].
const SHARES: [f64; 2] = [0.7, 0.3];
/// Closed-loop clients driving the victim tenant.
const VICTIM_CLIENTS: usize = 8;
/// File sizes in KiB of [hog, victim]: large sequential reads against
/// small files.
const FILE_KIB: [u64; 2] = [64, 4];
/// Documents each client of [hog, victim] sweeps. The hog's are never
/// cached; the victim's are sized to defeat the cache, giving the steady
/// miss rate of a tenant whose working set does not quite fit.
const DOCS: [u32; 2] = [4096, 1024];
/// Buffer-cache capacity in bytes.
const CACHE_BYTES: u64 = 2 * 1024 * 1024;

/// Parameters of the two-tenant disk experiment.
#[derive(Clone, Debug)]
pub struct DiskTenantsParams {
    /// Closed-loop clients driving the hog tenant (the swept variable).
    pub hog_clients: usize,
    /// I/O scheduler under test.
    pub sched: DiskSchedKind,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for DiskTenantsParams {
    fn default() -> Self {
        DiskTenantsParams {
            hog_clients: 8,
            sched: DiskSchedKind::Share,
            secs: 12,
        }
    }
}

/// Result of the two-tenant disk experiment.
#[derive(Clone, Debug)]
pub struct DiskTenantsResult {
    /// Scheduler name ("fifo" or "share").
    pub sched: String,
    /// Configured shares, normalized: [hog, victim].
    pub configured: Vec<f64>,
    /// Measured fraction of charged disk time: [hog, victim].
    pub disk_fractions: Vec<f64>,
    /// Disk utilization over the measurement window (busy / wall).
    pub utilization: f64,
    /// Windowed request throughput per tenant: [hog, victim].
    pub throughputs: Vec<f64>,
    /// Mean response time per tenant in ms: [hog, victim].
    pub latencies_ms: Vec<f64>,
}

/// Runs the two-tenant disk experiment and reports the disk-time split.
pub fn run_disk_tenants(params: DiskTenantsParams) -> DiskTenantsResult {
    let window = Window::new(params.secs);

    let mut cfg = KernelConfig::resource_containers();
    cfg.disk.sched = params.sched;
    cfg.disk.buffer_cache_bytes = CACHE_BYTES;
    let mut k = Kernel::new(cfg);

    let tenants: Vec<ContainerId> = SHARES
        .iter()
        .enumerate()
        .map(|(g, &share)| {
            k.containers
                .create(
                    None,
                    Attributes::fixed_share(share).named(&format!("tenant-{g}")),
                )
                .expect("tenant container")
        })
        .collect();

    // One disk-backed server per tenant. Connections share the tenant's
    // (process-default) container, so each tenant is one principal at the
    // disk — the hierarchical case (per-connection containers *under* a
    // fixed-share tenant) is covered by the scheduler's use of effective
    // shares, but a single queue per tenant is what the split measures.
    for (g, &tenant) in tenants.iter().enumerate() {
        let cfg = ServerConfig {
            port: 8000 + g as u16,
            conn_parent: Some(tenant),
            container_per_connection: false,
            response_bytes: FILE_KIB[g] * 1024,
            files: FileBacking::Disk {
                file_base: (g as u64) << 32,
            },
            ..ServerConfig::default()
        };
        k.spawn_process(
            Box::new(EventDrivenServer::new(cfg, shared_stats())),
            &format!("tenant-httpd-{g}"),
            Some(tenant),
            Attributes::time_shared(10),
            None,
        );
    }

    // Clients: each sweeps its own slice of the tenant's document space
    // so no two clients share documents.
    let n_clients = [params.hog_clients, VICTIM_CLIENTS];
    let specs: Vec<ClientSpec> = (0..tenants.len())
        .flat_map(|g| {
            (0..n_clients[g]).map(move |i| ClientSpec {
                doc: i as u32 * DOCS[g],
                ..tenant_client(g, i).cycling_docs(DOCS[g])
            })
        })
        .collect();
    let mut world = window.clients(&mut k, specs);

    // Per-tenant disk time, then the disk's busy time.
    let mut deltas = window.measure(&mut k, &mut world, |k| {
        tenants
            .iter()
            .map(|&t| k.containers.subtree_disk(t).unwrap())
            .chain([k.disk.total_busy()])
            .collect()
    });
    let busy = deltas.pop().expect("busy time");
    let total: Nanos = deltas.iter().copied().sum();

    let share_sum: f64 = SHARES.iter().sum();
    DiskTenantsResult {
        sched: params.sched.name().to_string(),
        configured: SHARES.iter().map(|s| s / share_sum).collect(),
        disk_fractions: deltas.iter().map(|&d| d.ratio(total)).collect(),
        utilization: busy.ratio(window.duration()),
        throughputs: (0..tenants.len())
            .map(|g| world.metrics.throughput(g))
            .collect(),
        latencies_ms: (0..tenants.len())
            .map(|g| world.metrics.mean_latency_ms(g))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(sched: DiskSchedKind, hog_clients: usize) -> DiskTenantsResult {
        run_disk_tenants(DiskTenantsParams {
            hog_clients,
            secs: 6,
            sched,
        })
    }

    #[test]
    fn share_sched_splits_disk_by_share() {
        let r = quick(DiskSchedKind::Share, 8);
        assert!(r.utilization > 0.9, "disk not saturated: {r:?}");
        for (c, m) in r.configured.iter().zip(&r.disk_fractions) {
            assert!(
                (c - m).abs() < 0.05,
                "configured {c} vs measured {m}: {r:?}"
            );
        }
    }

    #[test]
    fn victim_flat_under_share_degrades_under_fifo() {
        // FIFO serves requests in arrival order, so the victim's share of
        // the disk tracks its share of *requests*: as the hog's client
        // count grows the victim's throughput collapses. The share
        // scheduler pins the victim to its 30% regardless of hog load.
        let share_lo = quick(DiskSchedKind::Share, 2);
        let share_hi = quick(DiskSchedKind::Share, 16);
        let fifo_lo = quick(DiskSchedKind::Fifo, 2);
        let fifo_hi = quick(DiskSchedKind::Fifo, 16);
        assert!(
            share_hi.throughputs[1] > 0.75 * share_lo.throughputs[1],
            "victim not flat under share: lo {share_lo:?} vs hi {share_hi:?}"
        );
        assert!(
            fifo_hi.throughputs[1] < 0.6 * fifo_lo.throughputs[1],
            "victim did not degrade under fifo: lo {fifo_lo:?} vs hi {fifo_hi:?}"
        );
        assert!(
            share_hi.throughputs[1] > fifo_hi.throughputs[1],
            "share does not beat fifo for the victim at high hog load: \
             share {share_hi:?} vs fifo {fifo_hi:?}"
        );
    }
}
