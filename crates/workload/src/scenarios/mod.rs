//! One self-contained driver per experiment in the paper's §5.
//!
//! Every driver builds a kernel + server + client world, runs it for a
//! warmup period and a measurement window, and returns a structured
//! result. The `rcbench` entries print these as the paper's tables and
//! figures; the workspace integration tests assert the qualitative shapes
//! at reduced scale.

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
    run_memhog_tenants, HogSnapshot, MemCounters, MemhogTenantsParams, MemhogTenantsResult,
    TenantSnapshot,
};
pub use qos_tenants::{run_qos_tenants, QosTenantsParams, QosTenantsResult};
pub use smp_tenants::{run_smp_tenants, SmpTenantsParams, SmpTenantsResult};
pub use span_tenants::{run_span_tenants, SpanTenantsParams, SpanTenantsResult, TENANT_NAMES};
pub use synflood_fault::{run_synflood_fault, SynfloodFaultParams, SynfloodFaultResult};
pub use virtual_servers::{run_virtual_servers, VsParams, VsResult};
