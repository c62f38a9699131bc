//! One self-contained driver per experiment in the paper's §5.
//!
//! Every driver builds a kernel + server + client world, runs it for a
//! warmup period and a measurement window, and returns a structured
//! result. The single-kernel tenant scenarios and Figures 12/13 share one
//! window: the run lasts at least 4 s and its first 2 s (or first
//! quarter) are warmup. The `rcbench` entries print these as the paper's
//! tables and figures; the workspace integration tests assert the
//! qualitative shapes at reduced scale.

use simcore::Nanos;
use simnet::IpAddr;
use simos::Kernel;

use crate::clients::{ClientSpec, HttpClients};

pub mod baseline;
pub mod cluster_tenants;
pub mod disk_tenants;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod memhog_tenants;
pub mod qos_tenants;
pub mod smp_tenants;
pub mod span_tenants;
pub mod synflood_fault;
pub mod virtual_servers;

pub use baseline::{run_baseline, BaselineParams, BaselineResult};
pub use cluster_tenants::{
    run_cluster_tenants, run_cluster_tenants_traced, ClusterTenantsParams, ClusterTenantsResult,
};
pub use disk_tenants::{run_disk_tenants, DiskTenantsParams, DiskTenantsResult};
pub use fig11::{run_fig11, Fig11Params, Fig11Result, Fig11System};
pub use fig12::{run_fig12, Fig12Params, Fig12Result, Fig12System};
pub use fig14::{run_fig14, Fig14Params, Fig14Result};
pub use memhog_tenants::{
    run_memhog_tenants, HogSnapshot, MemCounters, MemhogTenantsResult, TenantSnapshot,
};
pub use qos_tenants::{run_qos_tenants, QosTenantsParams, QosTenantsResult};
pub use smp_tenants::{run_smp_tenants, SmpTenantsParams, SmpTenantsResult};
pub use span_tenants::{run_span_tenants, SpanTenantsParams, SpanTenantsResult, TENANT_NAMES};
pub use synflood_fault::{run_synflood_fault, SynfloodFaultParams, SynfloodFaultResult};
pub use virtual_servers::{run_virtual_servers, VsParams, VsResult};

/// Address of client `i` of tenant `t`: tenant `t`'s clients live in
/// `10.{100+t}.x.x`.
fn tenant_addr(t: usize, i: usize) -> IpAddr {
    IpAddr::new(10, 100 + t as u8, (i / 250) as u8, (i % 250) as u8 + 1)
}

/// Client `i` of tenant `t` in a single-kernel tenant scenario: a
/// closed-loop static client of metrics class `t` aimed at the tenant's
/// server on port `8000 + t`, starting at `10 + 7·i` µs. Scenarios list
/// their clients tenant by tenant in one [`crate::HttpClients`].
fn tenant_client(t: usize, i: usize) -> ClientSpec {
    let mut s = ClientSpec::staticloop(tenant_addr(t, i), t)
        .starting_at(Nanos::from_micros(10 + 7 * i as u64));
    s.port = 8000 + t as u16;
    s
}

/// The measurement window of a scenario run for `secs` seconds: the run
/// lasts at least 4 s, and its first 2 s (or first quarter, if shorter)
/// are warmup that client metrics and counter deltas leave out.
#[derive(Clone, Copy, Debug)]
struct Window {
    warmup: Nanos,
    end: Nanos,
}

impl Window {
    fn new(secs: u64) -> Window {
        let end = Nanos::from_secs(secs.max(4));
        Window {
            warmup: Nanos::from_secs(2).min(end / 4),
            end,
        }
    }

    /// Length of the measured part, warmup excluded.
    fn duration(self) -> Nanos {
        self.end - self.warmup
    }

    /// Clients running `specs`, with metrics over this window, armed on
    /// `k`.
    fn clients(self, k: &mut Kernel, specs: Vec<ClientSpec>) -> HttpClients {
        let world = HttpClients::new(specs, self.warmup, self.end);
        world.arm(k);
        world
    }

    /// Runs `k` through the warmup, reads `counters`, runs to the end and
    /// returns how much each counter grew in between (zero if it shrank).
    fn measure(
        self,
        k: &mut Kernel,
        world: &mut HttpClients,
        counters: impl Fn(&Kernel) -> Vec<Nanos>,
    ) -> Vec<Nanos> {
        k.run(world, self.warmup);
        let before = counters(k);
        k.run(world, self.end);
        counters(k)
            .into_iter()
            .zip(before)
            .map(|(after, before)| after.saturating_sub(before))
            .collect()
    }
}
