//! Reproduction of *"Resource Containers: A New Facility for Resource
//! Management in Server Systems"* (Gaurav Banga, Peter Druschel, Jeffrey
//! C. Mogul — OSDI '99) as a deterministic discrete-event simulation in
//! safe Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`rescon`] — **the paper's contribution**: resource containers,
//!   hierarchy, attributes, accounting, bindings, descriptors (§4).
//! - [`sched`] — CPU schedulers over container principals: the baseline
//!   decay-usage scheduler, the prototype's multi-level scheduler
//!   (fixed shares + priorities + CPU limits), and stride/lottery
//!   ablations.
//! - [`simnet`] — the simulated TCP/IP subsystem: sockets, SYN/accept
//!   queues, the filter sockaddr namespace (§4.8), and per-principal LRP
//!   queues (§4.7).
//! - [`simdisk`] — the simulated disk: seek/rotation/transfer service
//!   times charged to containers, FIFO vs container-share I/O scheduling,
//!   and a buffer cache whose residency is charged to container memory
//!   (the §7 extension to "other system resources").
//! - [`simos`] — the simulated monolithic kernel: processes, threads, the
//!   container syscall surface (§4.6), software interrupts, and the cost
//!   model calibrated to §5.3.
//! - [`httpsim`] — the server applications: event-driven (thttpd-style),
//!   thread-pool, CGI workers, the SYN-flood defense.
//! - [`workload`] — clients, attackers, and one driver per experiment in
//!   the evaluation (§5.3–§5.8).
//! - [`rctrace`] — observability: session control for the kernel-wide
//!   structured trace, per-container metrics timelines, and the
//!   Chrome-trace / metrics-dump exporters.
//! - [`simcluster`] — cluster scale-out: a steppable multi-kernel
//!   `World` with inter-node lanes, a WRR frontend, a cross-node share
//!   balancer, and a replica-placement orchestrator.
//! - [`simcore`] — the deterministic discrete-event substrate.
//!
//! # Quickstart
//!
//! ```
//! use resource_containers::prelude::*;
//!
//! // A web server whose CGI work is sandboxed to 30% of the CPU (§5.6).
//! let result = run_fig12(Fig12Params {
//!     system: Fig12System::Rc { limit: 0.30 },
//!     cgi_clients: 2,
//!     static_clients: 8,
//!     cgi_cpu: Nanos::from_millis(100),
//!     secs: 4,
//! });
//! assert!(result.cgi_cpu_share < 0.40);
//! ```

pub use httpsim;
pub use rctrace;
pub use rescon;
pub use sched;
pub use simcluster;
pub use simcore;
pub use simdisk;
pub use simnet;
pub use simos;
pub use workload;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use httpsim::{
        encode_request, ClassSpec, EventApi, EventDrivenServer, FileBacking, ReqKind, ServerConfig,
        ThreadPoolServer,
    };
    pub use rctrace::{chrome_trace_json, metrics_json, TraceConfig, TraceSession};
    pub use rescon::{Attributes, ContainerTable, SchedPolicy, SchedulerBinding};
    pub use simcluster::{
        Frontend, GlobalShare, Lane, LaneSpec, NodeId, NodeSpec, Orchestrator, TenantRoute,
        TenantShare, World as ClusterWorld, FRONTEND,
    };
    pub use simcore::Nanos;
    pub use simdisk::{BufferCache, FifoIoSched, ShareIoSched, SimDisk};
    pub use simnet::{CidrFilter, IpAddr, NetDiscipline};
    pub use simos::{
        AppEvent, AppHandler, DiskConfig, DiskSchedKind, Kernel, KernelConfig, ListenSpec,
        NetConfig, NodeYield, QdiscKind, SchedConfig, SchedPolicyKind, SysCtx, SysError, World,
        WorldAction,
    };
    pub use workload::scenarios::{
        run_baseline, run_cluster_tenants, run_disk_tenants, run_fig11, run_fig12, run_fig14,
        run_qos_tenants, run_smp_tenants, run_virtual_servers, BaselineParams,
        ClusterTenantsParams, ClusterTenantsResult, DiskTenantsParams, Fig11Params, Fig11System,
        Fig12Params, Fig12System, Fig14Params, QosTenantsParams, SmpTenantsParams, VsParams,
    };
    pub use workload::{ClientSpec, HttpClients, SynFlood};
}
