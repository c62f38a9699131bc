//! Figure 11: prioritized handling of clients.
//!
//! "Our experiment used an increasing number of low-priority clients to
//! saturate a server, while a single high-priority client made requests of
//! the server. ... The y-axis shows the response time seen by the
//! high-priority client as a function of the number of concurrent
//! low-priority clients."
//!
//! Three systems:
//! - **Without containers** (the unmodified kernel; the application tries
//!   to prefer the high-priority client at user level, futilely);
//! - **With containers + `select()`** — kernel processing is prioritized
//!   but the `select()` scan cost grows with the connection count;
//! - **With containers + the scalable event API** — nearly flat response
//!   time; only interrupt-level demultiplexing of low-priority packets
//!   remains uncontrolled.

use httpsim::stats::shared_stats;
use httpsim::{ClassSpec, EventApi, EventDrivenServer, ServerConfig};
use rescon::Attributes;
use simcore::Nanos;
use simnet::{CidrFilter, IpAddr};
use simos::{Kernel, KernelConfig};

use crate::clients::{ClientSpec, HttpClients};

/// Address of the single high-priority client.
pub const HIGH_ADDR: IpAddr = IpAddr::new(10, 9, 9, 9);

/// The three systems of Figure 11.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig11System {
    /// Unmodified kernel; app-level preference only.
    Unmodified,
    /// Resource containers, `select()`-based server.
    RcSelect,
    /// Resource containers, scalable event API.
    RcEventApi,
}

impl Fig11System {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Fig11System::Unmodified => "without containers",
            Fig11System::RcSelect => "containers + select()",
            Fig11System::RcEventApi => "containers + event API",
        }
    }
}

/// Parameters of one Figure 11 point.
#[derive(Clone, Debug)]
pub struct Fig11Params {
    /// Which system variant.
    pub system: Fig11System,
    /// Number of concurrent low-priority closed-loop clients.
    pub low_clients: usize,
    /// Simulated run length.
    pub secs: u64,
}

/// Result of one Figure 11 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig11Result {
    /// Mean response time of the high-priority client, in ms.
    pub t_high_ms: f64,
    /// 95th-percentile high-priority response time, in ms.
    pub t_high_p95_ms: f64,
    /// Low-priority aggregate throughput (sanity: the server is saturated).
    pub low_throughput: f64,
    /// High-priority requests completed in the window.
    pub high_completed: u64,
}

/// Runs one Figure 11 point.
pub fn run_fig11(params: Fig11Params) -> Fig11Result {
    let secs = params.secs.max(2);
    let end = Nanos::from_secs(secs);
    let warmup = Nanos::from_secs(1).min(end / 4);

    let (kernel, api, classes, preferred) = match params.system {
        Fig11System::Unmodified => (
            KernelConfig::unmodified(),
            EventApi::Select,
            vec![ClassSpec::default_class()],
            // The app's futile best effort (§5.5: "The application
            // attempted to give preference to requests from the
            // high-priority client").
            Some(CidrFilter::new(HIGH_ADDR, 32)),
        ),
        Fig11System::RcSelect | Fig11System::RcEventApi => (
            KernelConfig::resource_containers(),
            if params.system == Fig11System::RcSelect {
                EventApi::Select
            } else {
                EventApi::Scalable
            },
            vec![
                ClassSpec {
                    name: "high".to_string(),
                    filter: CidrFilter::new(HIGH_ADDR, 32),
                    priority: 20,
                    notify_syn_drops: false,
                },
                ClassSpec {
                    name: "low".to_string(),
                    filter: CidrFilter::any(),
                    priority: 10,
                    notify_syn_drops: false,
                },
            ],
            Some(CidrFilter::new(HIGH_ADDR, 32)),
        ),
    };

    let stats = shared_stats();
    let mut k = Kernel::new(kernel);
    let cfg = ServerConfig {
        api,
        classes,
        preferred,
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(cfg, stats)),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );

    // Class 0 = high-priority client, class 1 = the low-priority mob.
    let mut specs = vec![ClientSpec::staticloop(HIGH_ADDR, 0)];
    for i in 0..params.low_clients {
        specs.push(
            ClientSpec::staticloop(low_addr(i), 1)
                .starting_at(Nanos::from_micros(100 + 13 * i as u64)),
        );
    }
    let mut clients = HttpClients::new(specs, warmup, end);
    clients.arm(&mut k);
    k.run(&mut clients, end);

    let m = &clients.metrics;
    let t_high_p95_ms = m.class(0).latency_ms.quantile(0.95);
    Fig11Result {
        t_high_ms: m.mean_latency_ms(0),
        t_high_p95_ms,
        low_throughput: m.throughput(1),
        high_completed: m.class(0).completed_in_window,
    }
}

/// Address of low-priority client `i`.
pub fn low_addr(i: usize) -> IpAddr {
    IpAddr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_priority_isolated_by_containers() {
        let n = 20;
        let unmod = run_fig11(Fig11Params {
            system: Fig11System::Unmodified,
            low_clients: n,
            secs: 3,
        });
        let rc_sel = run_fig11(Fig11Params {
            system: Fig11System::RcSelect,
            low_clients: n,
            secs: 3,
        });
        let rc_ev = run_fig11(Fig11Params {
            system: Fig11System::RcEventApi,
            low_clients: n,
            secs: 3,
        });
        // Qualitative ordering of the paper's three curves.
        assert!(
            unmod.t_high_ms > 2.0 * rc_sel.t_high_ms,
            "unmod {} vs rc+select {}",
            unmod.t_high_ms,
            rc_sel.t_high_ms
        );
        assert!(
            rc_ev.t_high_ms <= rc_sel.t_high_ms * 1.2,
            "rc+event {} vs rc+select {}",
            rc_ev.t_high_ms,
            rc_sel.t_high_ms
        );
        // The server stays saturated by low-priority clients in all cases.
        assert!(unmod.low_throughput > 1000.0);
        assert!(rc_ev.low_throughput > 1000.0);
    }

    #[test]
    fn no_load_means_low_latency_everywhere() {
        for system in [
            Fig11System::Unmodified,
            Fig11System::RcSelect,
            Fig11System::RcEventApi,
        ] {
            let r = run_fig11(Fig11Params {
                system,
                low_clients: 0,
                secs: 2,
            });
            assert!(
                r.t_high_ms < 1.0,
                "{}: unloaded latency {}",
                system.label(),
                r.t_high_ms
            );
        }
    }
}
