//! §5.3 baseline throughput, and the §5.4 overhead check.
//!
//! Paper: "our server achieved a rate of 2954 requests/sec. using
//! connection-per-request HTTP, and 9487 requests/sec. using
//! persistent-connection HTTP. These rates saturated the CPU,
//! corresponding to per-request CPU costs of 338 µs and 105 µs."
//!
//! §5.4 then verifies that creating a new resource container for each
//! request leaves throughput "effectively unchanged".

use httpsim::stats::shared_stats;
use httpsim::{EventDrivenServer, ReqKind, ServerConfig};
use rescon::Attributes;
use simcore::Nanos;
use simnet::IpAddr;
use simos::{Kernel, KernelConfig};

use crate::clients::{ClientSpec, HttpClients};

/// Parameters of a baseline-throughput run.
#[derive(Clone, Debug)]
pub struct BaselineParams {
    /// Persistent-connection HTTP (vs one connection per request).
    pub persistent: bool,
    /// Number of concurrent closed-loop clients (enough to saturate).
    pub clients: usize,
    /// Kernel variant.
    pub kernel: KernelConfig,
    /// Create a container per request (the §5.4 overhead check; only
    /// meaningful on a containers-enabled kernel).
    pub per_request_containers: bool,
    /// Simulated run length.
    pub secs: u64,
}

impl Default for BaselineParams {
    fn default() -> Self {
        BaselineParams {
            persistent: false,
            clients: 24,
            kernel: KernelConfig::unmodified(),
            per_request_containers: false,
            secs: 10,
        }
    }
}

/// Result of a baseline-throughput run.
#[derive(Clone, Copy, Debug)]
pub struct BaselineResult {
    /// Sustained requests per second in the measurement window.
    pub requests_per_sec: f64,
    /// Implied CPU cost per request in microseconds (busy fraction divided
    /// by throughput).
    pub cpu_per_request_us: f64,
    /// Total completed requests.
    pub completed: u64,
    /// Fraction of CPU busy during the run.
    pub busy_fraction: f64,
}

/// Runs the baseline-throughput experiment.
pub fn run_baseline(params: BaselineParams) -> BaselineResult {
    let secs = params.secs.max(2);
    let end = Nanos::from_secs(secs);
    let warmup = Nanos::from_secs(1).min(end / 4);

    let stats = shared_stats();
    let mut k = Kernel::new(params.kernel.clone());
    let cfg = ServerConfig {
        container_per_connection: params.per_request_containers,
        ..ServerConfig::default()
    };
    k.spawn_process(
        Box::new(EventDrivenServer::new(cfg, stats.clone())),
        "httpd",
        None,
        Attributes::time_shared(10),
        None,
    );

    let kind = if params.persistent {
        ReqKind::StaticKeepAlive
    } else {
        ReqKind::Static
    };
    let specs: Vec<ClientSpec> = (0..params.clients)
        .map(|i| {
            ClientSpec::staticloop(client_addr(i), 0)
                .with_kind(kind)
                .starting_at(Nanos::from_micros(10 + 7 * i as u64))
        })
        .collect();
    let mut clients = HttpClients::new(specs, warmup, end);
    clients.arm(&mut k);

    // Warmup, snapshot, measure.
    k.run(&mut clients, warmup);
    let busy0 = k.stats().busy();
    k.run(&mut clients, end);
    let busy1 = k.stats().busy();

    let window = end - warmup;
    let throughput = clients.metrics.throughput(0);
    let busy_fraction = (busy1 - busy0).ratio(window);
    let cpu_per_request_us = if throughput > 0.0 {
        busy_fraction * 1e6 / throughput
    } else {
        0.0
    };
    BaselineResult {
        requests_per_sec: throughput,
        cpu_per_request_us,
        completed: clients.metrics.class(0).completed,
        busy_fraction,
    }
}

/// Address of baseline client `i`.
pub fn client_addr(i: usize) -> IpAddr {
    IpAddr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_request_throughput_matches_paper_within_ten_percent() {
        let r = run_baseline(BaselineParams {
            secs: 4,
            ..BaselineParams::default()
        });
        // Paper: 2954 req/s, 338 us per request.
        assert!(
            (r.requests_per_sec - 2954.0).abs() / 2954.0 < 0.10,
            "throughput = {}",
            r.requests_per_sec
        );
        assert!(
            (r.cpu_per_request_us - 338.0).abs() / 338.0 < 0.12,
            "cpu/request = {}",
            r.cpu_per_request_us
        );
        assert!(r.busy_fraction > 0.95, "busy = {}", r.busy_fraction);
    }

    #[test]
    fn persistent_throughput_matches_paper_within_ten_percent() {
        let r = run_baseline(BaselineParams {
            persistent: true,
            secs: 4,
            ..BaselineParams::default()
        });
        // Paper: 9487 req/s, 105 us per request.
        assert!(
            (r.requests_per_sec - 9487.0).abs() / 9487.0 < 0.10,
            "throughput = {}",
            r.requests_per_sec
        );
        assert!(
            (r.cpu_per_request_us - 105.0).abs() / 105.0 < 0.12,
            "cpu/request = {}",
            r.cpu_per_request_us
        );
    }

    #[test]
    fn container_per_request_overhead_negligible() {
        // §5.4: "The throughput of the system remained effectively
        // unchanged."
        let base = run_baseline(BaselineParams {
            kernel: KernelConfig::resource_containers(),
            per_request_containers: false,
            secs: 3,
            ..BaselineParams::default()
        });
        let with = run_baseline(BaselineParams {
            kernel: KernelConfig::resource_containers(),
            per_request_containers: true,
            secs: 3,
            ..BaselineParams::default()
        });
        let delta = (base.requests_per_sec - with.requests_per_sec).abs() / base.requests_per_sec;
        assert!(delta < 0.05, "overhead = {:.1}%", delta * 100.0);
    }
}
