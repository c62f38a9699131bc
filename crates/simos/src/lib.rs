//! A deterministic simulated monolithic kernel for the resource-containers
//! reproduction.
//!
//! `simos` stands in for the modified Digital UNIX 4.0D kernel of the
//! paper's prototype (§5.1). It provides:
//!
//! - **Processes and threads** with a syscall surface ([`SysCtx`]) that
//!   includes the full container API of §4.6 (create, parent, attributes,
//!   usage, thread resource binding, scheduler-binding reset, socket
//!   binding, descriptor passing) plus sockets, `select()`, and the
//!   scalable event API of [Banga/Druschel/Mogul '98] used in Figure 11.
//! - **A cost model** ([`cost`]) calibrated against §5.3: ~338 µs of
//!   CPU per non-persistent HTTP request and ~105 µs per persistent
//!   request on the paper's 500 MHz Alpha.
//! - **Three network-processing disciplines** (§3.2, §4.7): classic eager
//!   interrupt-level processing charged to no one, LRP with per-process
//!   queues, and the paper's per-container queues drained in container
//!   priority order by a per-process kernel network thread.
//! - **Pluggable CPU schedulers** from the `sched` crate; the kernel
//!   charges every consumed nanosecond to a resource container (the
//!   process's default container when the application does not manage
//!   containers itself), so accounting is exact in every mode.
//!
//! Applications are state machines implementing [`AppHandler`]; the kernel
//! delivers upcalls (select readiness, event-API batches, continuations)
//! only after the CPU cost of the preceding work has actually been
//! consumed on the simulated CPU, so response-time measurements reflect
//! scheduling and queueing faithfully.
//!
//! The simulated machine has `ncpus` CPUs (one by default, matching the
//! uniprocessor used in the paper's evaluation). Each CPU owns a run
//! queue and its own accounting; fixed-share guarantees stay global via a
//! periodic container-aware load balancer (see [`kernel`]).

pub mod app;
pub mod cost;
pub mod ids;
pub mod kernel;
pub mod mem;
pub mod process;
pub mod slab;
pub mod stats;
pub mod syscall;
pub mod thread;
pub mod world;

pub use app::{AppEvent, AppHandler};
pub use ids::Pid;
pub use kernel::{
    DiskConfig, DiskSchedKind, Kernel, KernelConfig, NetConfig, NodeYield, SchedConfig,
    SchedPolicyKind,
};
pub use mem::{MemAccountant, MemParams};
pub use simnet::{LinkParams, QdiscKind};
pub use stats::{CpuStats, KernelStats};
pub use syscall::{ListenSpec, SysCtx, SysError};
pub use thread::WaitFor;
pub use world::{NullWorld, World, WorldAction};
