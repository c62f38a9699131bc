//! Figures 12 and 13: controlling the resource usage of CGI processing.
//!
//! "We measured the throughput of our Web server (for cached, 1 KB static
//! documents) while increasing the number of concurrent requests for a
//! dynamic (CGI) resource. Each CGI request process consumed about 2
//! seconds of CPU time."
//!
//! Four systems:
//! - **Unmodified**: CGI processes each get a fair CPU share, *and* the
//!   server's kernel network processing is free (interrupt level), so the
//!   server keeps slightly more CPU than a fair share — yet static
//!   throughput still collapses as CGI processes multiply.
//! - **LRP**: accounting is fixed, so the server gets exactly `1/(n+1)` —
//!   static throughput drops *further*.
//! - **RC (30%)** and **RC (10%)**: the CGI-parent container caps total
//!   CGI CPU; static throughput stays flat (the "resource sandbox").

use httpsim::event_driven::CgiSandbox;
use httpsim::stats::shared_stats;
use httpsim::{EventDrivenServer, ReqKind, ServerConfig};
use rescon::Attributes;
use simcore::Nanos;
use simnet::IpAddr;
use simos::{Kernel, KernelConfig};

use super::Window;
use crate::clients::ClientSpec;

/// The systems compared in Figures 12/13.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fig12System {
    /// Classic kernel, interrupt-level network processing.
    Unmodified,
    /// LRP kernel: accurate per-process accounting.
    Lrp,
    /// Resource containers with the CGI-parent limited to this fraction.
    Rc {
        /// CPU-limit fraction of the CGI sandbox (0.30 and 0.10 in the
        /// paper).
        limit: f64,
    },
}

impl Fig12System {
    /// Label used in reports.
    pub fn label(self) -> String {
        match self {
            Fig12System::Unmodified => "Unmodified System".to_string(),
            Fig12System::Lrp => "LRP System".to_string(),
            Fig12System::Rc { limit } => format!("RC System ({:.0}%)", limit * 100.0),
        }
    }
}

/// Parameters of one Figure 12/13 point.
#[derive(Clone, Debug)]
pub struct Fig12Params {
    /// System variant.
    pub system: Fig12System,
    /// Number of concurrent CGI requests (closed-loop CGI clients).
    pub cgi_clients: usize,
    /// Number of closed-loop static clients (enough to saturate).
    pub static_clients: usize,
    /// CPU burned per CGI request.
    pub cgi_cpu: Nanos,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for Fig12Params {
    fn default() -> Self {
        Fig12Params {
            system: Fig12System::Unmodified,
            cgi_clients: 0,
            static_clients: 24,
            cgi_cpu: Nanos::from_secs(2),
            secs: 30,
        }
    }
}

/// Result of one Figure 12/13 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Result {
    /// Static-document throughput (Figure 12's y-axis).
    pub static_throughput: f64,
    /// Fraction of total CPU consumed by CGI processing in the window
    /// (Figure 13's y-axis).
    pub cgi_cpu_share: f64,
    /// CGI requests completed in the run.
    pub cgi_completed: u64,
}

/// Runs one Figure 12/13 point.
pub fn run_fig12(params: Fig12Params) -> Fig12Result {
    let window = Window::new(params.secs);

    let (kernel, sandbox) = match params.system {
        Fig12System::Unmodified => (KernelConfig::unmodified(), None),
        Fig12System::Lrp => (KernelConfig::lrp(), None),
        Fig12System::Rc { limit } => (
            KernelConfig::resource_containers(),
            Some(CgiSandbox {
                share: limit,
                limit,
                window: Nanos::from_millis(200),
            }),
        ),
    };

    let stats = shared_stats();
    let mut k = Kernel::new(kernel);

    // Accounting container for baseline CGI processes: inert under the
    // decay-usage scheduler, but lets us read total CGI CPU from one
    // subtree in every system.
    let cgi_acct = if sandbox.is_none() {
        Some(
            k.containers
                .create(None, Attributes::fixed_share(0.95).named("cgi-acct"))
                .expect("accounting container"),
        )
    } else {
        None
    };

    let cfg = ServerConfig {
        cgi_cpu: params.cgi_cpu,
        cgi_sandbox: sandbox,
        cgi_container_parent: cgi_acct,
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(cfg, stats.clone())),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );

    // Class 0: static clients; class 1: CGI clients.
    let mut specs: Vec<ClientSpec> = (0..params.static_clients)
        .map(|i| {
            ClientSpec::staticloop(static_addr(i), 0)
                .starting_at(Nanos::from_micros(10 + 7 * i as u64))
        })
        .collect();
    for i in 0..params.cgi_clients {
        specs.push(
            ClientSpec::staticloop(cgi_addr(i), 1)
                .with_kind(ReqKind::Cgi)
                .starting_at(Nanos::from_micros(100 + 11 * i as u64)),
        );
    }
    let mut clients = window.clients(&mut k, specs);
    let cgi = window.measure(&mut k, &mut clients, |k| {
        vec![cgi_root_container(k, cgi_acct)
            .and_then(|c| k.containers.subtree_cpu(c).ok())
            .unwrap_or(Nanos::ZERO)]
    });

    let cgi_completed = stats.borrow().cgi_completed;
    Fig12Result {
        static_throughput: clients.metrics.throughput(0),
        cgi_cpu_share: cgi[0].ratio(window.duration()),
        cgi_completed,
    }
}

fn cgi_root_container(
    k: &Kernel,
    acct: Option<rescon::ContainerId>,
) -> Option<rescon::ContainerId> {
    if let Some(a) = acct {
        return Some(a);
    }
    k.containers
        .iter()
        .find(|(_, c)| c.attrs().name.as_deref() == Some("cgi-parent"))
        .map(|(id, _)| id)
}

/// Address of static client `i`.
pub fn static_addr(i: usize) -> IpAddr {
    IpAddr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1)
}

/// Address of CGI client `i`.
pub fn cgi_addr(i: usize) -> IpAddr {
    IpAddr::new(10, 50, 0, i as u8 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down run (0.2 s CGI bursts, short window) asserting the
    /// qualitative shape of Figures 12 and 13 at n = 3.
    #[test]
    fn shape_matches_paper_at_three_cgi_clients() {
        let run = |system| {
            run_fig12(Fig12Params {
                system,
                cgi_clients: 3,
                static_clients: 12,
                cgi_cpu: Nanos::from_millis(200),
                secs: 8,
            })
        };
        let unmod = run(Fig12System::Unmodified);
        let lrp = run(Fig12System::Lrp);
        let rc30 = run(Fig12System::Rc { limit: 0.30 });
        let rc10 = run(Fig12System::Rc { limit: 0.10 });

        // Figure 12: static throughput ordering.
        assert!(
            unmod.static_throughput > lrp.static_throughput,
            "unmod {} vs lrp {}",
            unmod.static_throughput,
            lrp.static_throughput
        );
        assert!(
            rc30.static_throughput > unmod.static_throughput,
            "rc30 {} vs unmod {}",
            rc30.static_throughput,
            unmod.static_throughput
        );
        assert!(
            rc10.static_throughput > rc30.static_throughput,
            "rc10 {} vs rc30 {}",
            rc10.static_throughput,
            rc30.static_throughput
        );

        // Figure 13: CGI CPU shares. LRP gives CGI n/(n+1) = 0.75;
        // unmodified slightly less (server over-served); RC clamps.
        assert!(
            (lrp.cgi_cpu_share - 0.75).abs() < 0.12,
            "lrp share {}",
            lrp.cgi_cpu_share
        );
        assert!(
            unmod.cgi_cpu_share < lrp.cgi_cpu_share,
            "unmod {} vs lrp {}",
            unmod.cgi_cpu_share,
            lrp.cgi_cpu_share
        );
        assert!(
            (rc30.cgi_cpu_share - 0.30).abs() < 0.06,
            "rc30 share {}",
            rc30.cgi_cpu_share
        );
        assert!(
            (rc10.cgi_cpu_share - 0.10).abs() < 0.05,
            "rc10 share {}",
            rc10.cgi_cpu_share
        );
    }

    #[test]
    fn no_cgi_means_full_static_throughput() {
        let r = run_fig12(Fig12Params {
            system: Fig12System::Unmodified,
            cgi_clients: 0,
            static_clients: 12,
            cgi_cpu: Nanos::from_millis(100),
            secs: 5,
        });
        assert!(
            (r.static_throughput - 2954.0).abs() / 2954.0 < 0.12,
            "throughput {}",
            r.static_throughput
        );
        assert!(r.cgi_cpu_share < 0.01);
    }
}
