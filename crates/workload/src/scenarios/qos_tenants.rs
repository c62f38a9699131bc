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

use super::{tenant_client, Window};

/// Transmit weights of [gold, blast] — the paper's §4.1 `NetQos`.
const WEIGHTS: [u32; 2] = [3, 1];
/// Closed-loop clients driving the gold tenant.
const GOLD_CLIENTS: usize = 6;
/// Static response size in KiB (large enough that the link, not the CPU,
/// is the bottleneck).
const RESPONSE_KIB: u64 = 32;
/// Link bandwidth in Mbit/s.
const LINK_MBPS: u64 = 80;
/// Socket-buffer limit of the gold tenant in KiB. The blast tenant never
/// has one — it queues as fast as its clients complete, which is exactly
/// the overload FIFO cannot contain.
const GOLD_SOCKBUF_KIB: u64 = 64;

/// Parameters of the two-tenant link-bandwidth experiment.
#[derive(Clone, Debug)]
pub struct QosTenantsParams {
    /// Closed-loop clients driving the blast tenant (the swept variable).
    pub blast_clients: usize,
    /// Transmit qdisc under test.
    pub qdisc: QdiscKind,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for QosTenantsParams {
    fn default() -> Self {
        QosTenantsParams {
            blast_clients: 18,
            qdisc: QdiscKind::Wfq,
            secs: 8,
        }
    }
}

/// Result of the two-tenant link-bandwidth experiment.
#[derive(Clone, Debug)]
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
    let window = Window::new(params.secs);

    let cfg = KernelConfig::resource_containers().with_link(LINK_MBPS * 1_000_000, params.qdisc);
    let mut k = Kernel::new(cfg);

    let tenants: Vec<ContainerId> = WEIGHTS
        .iter()
        .enumerate()
        .map(|(g, &w)| {
            let mut attrs = Attributes::fixed_share(0.5)
                .named(if g == 0 { "gold" } else { "blast" })
                .with_net_weight(w);
            if g == 0 {
                attrs = attrs.with_sockbuf_limit(GOLD_SOCKBUF_KIB * 1024);
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
            response_bytes: RESPONSE_KIB * 1024,
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

    let n_clients = [GOLD_CLIENTS, params.blast_clients];
    let specs = (0..tenants.len())
        .flat_map(|g| (0..n_clients[g]).map(move |i| tenant_client(g, i)))
        .collect();
    let mut world = window.clients(&mut k, specs);

    // Per-tenant wire time, then the link's busy time.
    let mut deltas = window.measure(&mut k, &mut world, |k| {
        tenants
            .iter()
            .map(|&t| k.subtree_tx_of(t))
            .chain([k.link_totals().0])
            .collect()
    });
    let busy = deltas.pop().expect("busy time");
    let total: Nanos = deltas.iter().copied().sum();

    let weight_sum: u32 = WEIGHTS.iter().sum();
    QosTenantsResult {
        qdisc: match params.qdisc {
            QdiscKind::Fifo => "fifo".to_string(),
            QdiscKind::Wfq => "wfq".to_string(),
        },
        configured: WEIGHTS
            .iter()
            .map(|&w| w as f64 / weight_sum as f64)
            .collect(),
        tx_fractions: deltas.iter().map(|&d| d.ratio(total)).collect(),
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

    fn quick(qdisc: QdiscKind, blast_clients: usize) -> QosTenantsResult {
        run_qos_tenants(QosTenantsParams {
            qdisc,
            blast_clients,
            secs: 6,
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
