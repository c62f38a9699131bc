//! §5.8: isolation of virtual servers (the Rent-A-Server experiment).
//!
//! "We created 3 top-level containers and restricted their CPU consumption
//! to fixed CPU shares. Each container was then used as the root container
//! for a guest server. Subsequently, three sets of clients placed varying
//! request loads on these servers; the requests included CGI resources. We
//! observed that the total CPU time consumed by each guest server exactly
//! matched its allocation."

use httpsim::event_driven::CgiSandbox;
use httpsim::stats::shared_stats;
use httpsim::{EventDrivenServer, ReqKind, ServerConfig};
use rescon::{Attributes, ContainerId};
use simcore::Nanos;
use simos::{Kernel, KernelConfig};

use super::{tenant_client, Window};
use crate::clients::ClientSpec;

/// Parameters of the virtual-server experiment.
#[derive(Clone, Debug)]
pub struct VsParams {
    /// Fixed CPU share of each guest (must sum to at most 1).
    pub shares: Vec<f64>,
    /// Closed-loop static clients per guest (varying loads are fine; every
    /// guest should be able to saturate its share).
    pub clients_per_guest: Vec<usize>,
    /// Add CGI load inside each guest ("the requests included CGI
    /// resources"), with this CPU burn (None = static only).
    pub cgi_cpu: Option<Nanos>,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for VsParams {
    fn default() -> Self {
        VsParams {
            shares: vec![0.5, 0.3, 0.2],
            clients_per_guest: vec![16, 16, 16],
            cgi_cpu: Some(Nanos::from_millis(500)),
            secs: 20,
        }
    }
}

/// Result of the virtual-server experiment.
#[derive(Clone, Debug)]
pub struct VsResult {
    /// Configured shares (normalized).
    pub configured: Vec<f64>,
    /// Measured fraction of total guest CPU consumed by each guest.
    pub measured: Vec<f64>,
    /// Static throughput per guest.
    pub throughputs: Vec<f64>,
}

/// Runs the virtual-server isolation experiment on the RC kernel.
pub fn run_virtual_servers(params: VsParams) -> VsResult {
    assert_eq!(params.shares.len(), params.clients_per_guest.len());
    let n = params.shares.len();
    let window = Window::new(params.secs);

    let mut k = Kernel::new(KernelConfig::resource_containers());

    // The three top-level guest containers with fixed shares.
    let guests: Vec<ContainerId> = params
        .shares
        .iter()
        .enumerate()
        .map(|(g, &share)| {
            k.containers
                .create(
                    None,
                    Attributes::fixed_share(share).named(&format!("guest-{g}")),
                )
                .expect("guest container")
        })
        .collect();

    // One server per guest, on its own port, entirely inside its guest
    // container (process, connections, classes, CGI sandbox).
    for (g, &guest) in guests.iter().enumerate() {
        let stats = shared_stats();
        let cfg = ServerConfig {
            port: 8000 + g as u16,
            conn_parent: Some(guest),
            cgi_sandbox: params.cgi_cpu.map(|_| CgiSandbox {
                share: 0.5,
                limit: 0.5,
                window: Nanos::from_millis(200),
            }),
            cgi_cpu: params.cgi_cpu.unwrap_or(Nanos::from_secs(2)),
            ..ServerConfig::default()
        };
        k.spawn_process(
            Box::new(EventDrivenServer::new(cfg, stats)),
            &format!("guest-httpd-{g}"),
            Some(guest),
            Attributes::time_shared(10),
            None,
        );
    }

    // Static clients of class `g` for guest `g`, guest by guest; when
    // asked, each guest's list ends with one CGI client (class `n`, shared
    // by all guests) starting 7 µs after the guest's last static client.
    let mut specs = Vec::new();
    for (g, &count) in params.clients_per_guest.iter().enumerate() {
        specs.extend((0..count).map(|i| tenant_client(g, i)));
        if params.cgi_cpu.is_some() {
            specs.push(ClientSpec {
                class: n,
                ..tenant_client(g, count).with_kind(ReqKind::Cgi)
            });
        }
    }
    let mut world = window.clients(&mut k, specs);
    let deltas = window.measure(&mut k, &mut world, |k| {
        guests
            .iter()
            .map(|&g| k.containers.subtree_cpu(g).unwrap())
            .collect()
    });
    let total: Nanos = deltas.iter().copied().sum();

    let share_sum: f64 = params.shares.iter().sum();
    VsResult {
        configured: params.shares.iter().map(|s| s / share_sum).collect(),
        measured: deltas.iter().map(|&d| d.ratio(total)).collect(),
        throughputs: (0..n).map(|g| world.metrics.throughput(g)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_cpu_matches_allocation() {
        let r = run_virtual_servers(VsParams {
            shares: vec![0.5, 0.3, 0.2],
            clients_per_guest: vec![10, 10, 10],
            cgi_cpu: None,
            secs: 8,
        });
        for (c, m) in r.configured.iter().zip(&r.measured) {
            assert!(
                (c - m).abs() < 0.04,
                "configured {c} vs measured {m} ({:?})",
                r.measured
            );
        }
        // Throughputs scale with shares.
        assert!(r.throughputs[0] > r.throughputs[1]);
        assert!(r.throughputs[1] > r.throughputs[2]);
    }

    #[test]
    fn isolation_holds_with_cgi_load() {
        let r = run_virtual_servers(VsParams {
            shares: vec![0.6, 0.4],
            clients_per_guest: vec![10, 10],
            cgi_cpu: Some(Nanos::from_millis(100)),
            secs: 8,
        });
        for (c, m) in r.configured.iter().zip(&r.measured) {
            assert!(
                (c - m).abs() < 0.05,
                "configured {c} vs measured {m} ({:?})",
                r.measured
            );
        }
    }
}
