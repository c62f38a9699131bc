//! Link-bandwidth isolation between tenants (§4.1 `NetQos`, §7).
//!
//! The paper's §4.1 attaches network QoS attributes (a transmit weight
//! and a socket-buffer limit) to resource containers; §7 argues the
//! container abstraction covers "other system resources" beyond CPU.
//! This experiment demonstrates it on the simulated transmit link: two
//! tenants share a finite-bandwidth NIC — a *gold* tenant with transmit
//! weight 3 and a well-behaved socket-buffer limit, and a *blast* tenant
//! with weight 1, no socket-buffer limit, and three times as many
//! clients — and we measure how the wire time divides between them.
//!
//! Under the FIFO qdisc (the "unmodified kernel" ablation) packets go
//! out in arrival order, so the split tracks offered load: the blast
//! tenant's firehose of queued responses crowds the gold tenant off the
//! link. Under the hierarchical weighted-fair qdisc the split tracks the
//! configured 3:1 weights (~75/25) regardless of the blast tenant's
//! offered load, and the gold tenant's throughput stays flat.

use httpsim::stats::shared_stats;
use httpsim::{EventDrivenServer, FileBacking, ServerConfig};
use rescon::{Attributes, ContainerId};
use simcore::Nanos;
use simos::{Kernel, KernelConfig, QdiscKind};

use crate::clients::{ClientSpec, HttpClients};
use crate::scenarios::disk_tenants::{tenant_addr, TenantWorld, TENANT_SHIFT};

/// Parameters of the two-tenant link-bandwidth experiment.
#[derive(Clone, Debug)]
pub struct QosTenantsParams {
    /// Transmit weights of (gold, blast) — the paper's §4.1 `NetQos`.
    pub weights: (u32, u32),
    /// Closed-loop clients driving the gold tenant.
    pub gold_clients: usize,
    /// Closed-loop clients driving the blast tenant (the swept variable).
    pub blast_clients: usize,
    /// Static response size in KiB (large enough that the link, not the
    /// CPU, is the bottleneck).
    pub response_kib: u64,
    /// Link bandwidth in Mbit/s.
    pub link_mbps: u64,
    /// Socket-buffer limit of the gold tenant in KiB (`None` = unlimited).
    /// The blast tenant never has one — it queues as fast as its clients
    /// complete, which is exactly the overload FIFO cannot contain.
    pub gold_sockbuf_kib: Option<u64>,
    /// Transmit qdisc under test.
    pub qdisc: QdiscKind,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for QosTenantsParams {
    fn default() -> Self {
        QosTenantsParams {
            weights: (3, 1),
            gold_clients: 6,
            blast_clients: 18,
            response_kib: 32,
            link_mbps: 80,
            gold_sockbuf_kib: Some(64),
            qdisc: QdiscKind::Wfq,
            secs: 8,
        }
    }
}

/// Result of the two-tenant link-bandwidth experiment.
#[derive(Clone, Debug, serde::Serialize)]
pub struct QosTenantsResult {
    /// Qdisc name ("fifo" or "wfq").
    pub qdisc: String,
    /// Configured weights, normalized: [gold, blast].
    pub configured: Vec<f64>,
    /// Measured fraction of charged wire time: [gold, blast].
    pub tx_fractions: Vec<f64>,
    /// Link utilization over the measurement window (busy / wall).
    pub utilization: f64,
    /// Windowed response throughput per tenant: [gold, blast].
    pub throughputs: Vec<f64>,
    /// Mean response time per tenant in ms: [gold, blast].
    pub latencies_ms: Vec<f64>,
}

/// Runs the two-tenant link experiment and reports the wire-time split.
pub fn run_qos_tenants(params: QosTenantsParams) -> QosTenantsResult {
    let secs = params.secs.max(4);
    let end = Nanos::from_secs(secs);
    let warmup = Nanos::from_secs(2).min(end / 4);

    let cfg =
        KernelConfig::resource_containers().with_link(params.link_mbps * 1_000_000, params.qdisc);
    let mut k = Kernel::new(cfg);

    let weights = [params.weights.0.max(1), params.weights.1.max(1)];
    let tenants: Vec<ContainerId> = weights
        .iter()
        .enumerate()
        .map(|(g, &w)| {
            let mut attrs = Attributes::fixed_share(0.5)
                .named(if g == 0 { "gold" } else { "blast" })
                .with_net_weight(w);
            if g == 0 {
                if let Some(kib) = params.gold_sockbuf_kib {
                    attrs = attrs.with_sockbuf_limit(kib * 1024);
                }
            }
            k.containers.create(None, attrs).expect("tenant container")
        })
        .collect();

    // One in-memory server per tenant; connections share the tenant's
    // (process-default) container, so each tenant is one principal at the
    // link and the weight resolves over the hierarchy (root → tenant →
    // server default).
    for (g, &tenant) in tenants.iter().enumerate() {
        let cfg = ServerConfig {
            port: 8000 + g as u16,
            conn_parent: Some(tenant),
            container_per_connection: false,
            response_bytes: params.response_kib * 1024,
            files: FileBacking::AlwaysCached,
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

    let mut world = TenantWorld {
        tenants: Vec::new(),
    };
    let n_clients = [params.gold_clients, params.blast_clients];
    for (g, &n) in n_clients.iter().enumerate() {
        let specs: Vec<ClientSpec> = (0..n)
            .map(|i| {
                let mut s = ClientSpec::staticloop(tenant_addr(g, i), 0)
                    .starting_at(Nanos::from_micros(10 + 7 * i as u64));
                s.port = 8000 + g as u16;
                s
            })
            .collect();
        let clients = HttpClients::new(specs, warmup, end);
        for i in 0..clients.len() {
            k.arm_world_timer(
                ((g as u64) << TENANT_SHIFT) | (i as u64 * 4),
                Nanos::from_micros(10 + 7 * i as u64),
            );
        }
        world.tenants.push(clients);
    }

    // Warmup, snapshot per-tenant wire time, measure.
    k.run(&mut world, warmup);
    let tx0: Vec<Nanos> = tenants.iter().map(|&t| k.subtree_tx_of(t)).collect();
    let busy0 = k.link_totals().0;
    k.run(&mut world, end);
    let deltas: Vec<Nanos> = tenants
        .iter()
        .zip(&tx0)
        .map(|(&t, &d0)| k.subtree_tx_of(t) - d0)
        .collect();
    let total: Nanos = deltas.iter().copied().sum();
    let busy = k.link_totals().0 - busy0;

    let weight_sum: u32 = weights.iter().sum();
    QosTenantsResult {
        qdisc: match params.qdisc {
            QdiscKind::Fifo => "fifo".to_string(),
            QdiscKind::Wfq => "wfq".to_string(),
        },
        configured: weights
            .iter()
            .map(|&w| w as f64 / weight_sum as f64)
            .collect(),
        tx_fractions: deltas.iter().map(|&d| d.ratio(total)).collect(),
        utilization: busy.ratio(end - warmup),
        throughputs: (0..tenants.len())
            .map(|g| world.tenants[g].metrics.throughput(0))
            .collect(),
        latencies_ms: (0..tenants.len())
            .map(|g| world.tenants[g].metrics.mean_latency_ms(0))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(qdisc: QdiscKind, blast_clients: usize) -> QosTenantsResult {
        run_qos_tenants(QosTenantsParams {
            qdisc,
            blast_clients,
            secs: 6,
            ..QosTenantsParams::default()
        })
    }

    #[test]
    fn wfq_splits_link_by_weight() {
        let r = quick(QdiscKind::Wfq, 18);
        assert!(r.utilization > 0.9, "link not saturated: {r:?}");
        for (c, m) in r.configured.iter().zip(&r.tx_fractions) {
            assert!(
                (c - m).abs() < 0.05,
                "configured {c} vs measured {m}: {r:?}"
            );
        }
    }

    #[test]
    fn gold_flat_under_wfq_collapses_under_fifo() {
        // FIFO transmits in arrival order, so the blast tenant's
        // unthrottled queue crowds out the gold tenant; WFQ pins the gold
        // tenant to its 75% weight share regardless of the blast load.
        let wfq = quick(QdiscKind::Wfq, 18);
        let fifo = quick(QdiscKind::Fifo, 18);
        assert!(
            fifo.tx_fractions[0] < 0.45,
            "gold kept its share under fifo: {fifo:?}"
        );
        assert!(
            wfq.throughputs[0] > 1.5 * fifo.throughputs[0],
            "wfq does not protect the gold tenant: wfq {wfq:?} vs fifo {fifo:?}"
        );
    }
}
