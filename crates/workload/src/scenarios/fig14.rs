//! Figure 14: immunity against SYN-flooding.
//!
//! "A set of 'malicious' clients sent bogus SYN packets to the server's
//! HTTP port, at a high rate. We then measured the server's throughput for
//! requests from well-behaved clients. ... the throughput of the
//! unmodified system falls drastically as the SYN-flood rate increases,
//! and is effectively zero at about 10,000 SYNs/sec. ... With these
//! modifications, even at 70,000 SYNs/sec., the useful throughput remains
//! at about 73% of maximum."

use httpsim::stats::shared_stats;
use httpsim::{ClassSpec, EventDrivenServer, ServerConfig};
use rescon::Attributes;
use simcore::Nanos;
use simnet::{CidrFilter, IpAddr};
use simos::{Kernel, KernelConfig};

use crate::clients::{ClientSpec, HttpClients};
use crate::synflood::{FloodedClients, SynFlood};

/// Base address of the attacker block (192.168/16).
pub const ATTACK_BASE: IpAddr = IpAddr::new(192, 168, 0, 0);

/// Parameters of one Figure 14 point.
#[derive(Clone, Debug)]
pub struct Fig14Params {
    /// `true` = the paper's defended system (resource containers,
    /// SYN-drop notification, filter + priority-zero isolation);
    /// `false` = the unmodified system.
    pub defended: bool,
    /// Aggregate SYN-flood rate in SYNs/second.
    pub syn_rate: f64,
    /// Number of well-behaved closed-loop clients.
    pub clients: usize,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for Fig14Params {
    fn default() -> Self {
        Fig14Params {
            defended: false,
            syn_rate: 0.0,
            clients: 24,
            secs: 10,
        }
    }
}

/// Result of one Figure 14 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig14Result {
    /// Useful (well-behaved) throughput in requests/second.
    pub throughput: f64,
    /// SYNs the flooder sent.
    pub syns_sent: u64,
    /// Packets dropped at early demultiplexing (defended system).
    pub early_drops: u64,
    /// Flood prefixes the server isolated.
    pub isolations: u64,
    /// Requests well-behaved clients abandoned (timed out).
    pub abandoned: u64,
    /// Fraction of CPU charged to containers over the whole run.
    pub charged_frac: f64,
    /// Fraction of CPU at interrupt level.
    pub interrupt_frac: f64,
    /// Idle CPU fraction.
    pub idle_frac: f64,
    /// CPU charged to priority-zero (isolated) containers.
    pub isolated_cpu_frac: f64,
}

/// Runs one Figure 14 point.
pub fn run_fig14(params: Fig14Params) -> Fig14Result {
    let secs = params.secs.max(4);
    let end = Nanos::from_secs(secs);
    // Measure steady state: the flood's first seconds poison the default
    // listener's SYN queue with half-open entries that only expire after
    // the SYN timeout (5 s), even once the source is isolated.
    let warmup = Nanos::from_secs(7).min(end / 2);

    let kernel = if params.defended {
        KernelConfig::resource_containers()
    } else {
        KernelConfig::unmodified()
    };

    let stats = shared_stats();
    let mut k = Kernel::new(kernel);
    let cfg = ServerConfig {
        defense: params.defended,
        classes: vec![ClassSpec {
            name: "default".to_string(),
            filter: CidrFilter::any(),
            priority: 10,
            // §5.7: "We modified the kernel to notify the application when
            // it drops a SYN."
            notify_syn_drops: params.defended,
        }],
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(cfg, stats.clone())),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );

    // Well-behaved clients: S-Client behaviour (abandon + retry after 1 s)
    // so offered load is sustained through SYN drops.
    let specs: Vec<ClientSpec> = (0..params.clients)
        .map(|i| {
            ClientSpec::staticloop(good_addr(i), 0)
                .with_timeout(Nanos::from_secs(1))
                .starting_at(Nanos::from_micros(10 + 7 * i as u64))
        })
        .collect();
    let mut world = FloodedClients {
        clients: HttpClients::new(specs, warmup, end),
        flood: SynFlood::new(ATTACK_BASE, 1024, params.syn_rate, 80),
    };
    world.arm(&mut k);
    k.run(&mut world, end);

    let isolations = stats.borrow().isolations;
    let s = k.stats();
    let total = s.total();
    let isolated_cpu: simcore::Nanos = k
        .containers
        .iter()
        .filter(|(_, c)| c.attrs().name.as_deref() == Some("isolated"))
        .map(|(id, _)| k.containers.subtree_cpu(id).unwrap_or(Nanos::ZERO))
        .sum();
    Fig14Result {
        throughput: world.clients.metrics.throughput(0),
        syns_sent: world.flood.sent,
        early_drops: s.early_drops,
        isolations,
        abandoned: world.clients.metrics.class(0).abandoned,
        charged_frac: s.charged_cpu.ratio(total),
        interrupt_frac: s.interrupt_cpu.ratio(total),
        idle_frac: s.idle_cpu.ratio(total),
        isolated_cpu_frac: isolated_cpu.ratio(total),
    }
}

/// Address of well-behaved client `i`.
pub fn good_addr(i: usize) -> IpAddr {
    IpAddr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_flood_baselines_agree() {
        let plain = run_fig14(Fig14Params {
            defended: false,
            syn_rate: 0.0,
            clients: 16,
            secs: 5,
        });
        let defended = run_fig14(Fig14Params {
            defended: true,
            syn_rate: 0.0,
            clients: 16,
            secs: 5,
        });
        assert!(plain.throughput > 2500.0, "plain {}", plain.throughput);
        // §5.4: containers cost (almost) nothing.
        let delta = (plain.throughput - defended.throughput).abs() / plain.throughput;
        assert!(delta < 0.08, "delta = {delta}");
    }

    #[test]
    fn unmodified_collapses_but_defended_survives() {
        let rate = 12_000.0;
        let plain = run_fig14(Fig14Params {
            defended: false,
            syn_rate: rate,
            clients: 16,
            secs: 8,
        });
        let defended = run_fig14(Fig14Params {
            defended: true,
            syn_rate: rate,
            clients: 16,
            secs: 8,
        });
        // The unmodified system is effectively dead at ~10k SYN/s...
        assert!(
            plain.throughput < 300.0,
            "unmodified throughput {} at {rate} SYN/s",
            plain.throughput
        );
        // ...while the defended system holds most of its capacity.
        assert!(
            defended.throughput > 2000.0,
            "defended throughput {}",
            defended.throughput
        );
        assert!(defended.isolations >= 1);
        assert!(defended.syns_sent > 50_000);
    }
}
