//! The policy plane: the registry and spec parsers for the kernel's
//! three scheduling seams.
//!
//! The simulated kernel has three scheduling seams — CPU
//! ([`sched::PerCpu`], one [`sched::CoreScheduler`] per CPU), disk
//! ([`simdisk::IoSched`]), and link ([`simnet::LinkSched`]) — and each
//! holds a policy that can be replaced mid-run. The paper frames resource
//! containers as *mechanism*, explicitly separate from scheduling
//! *policy* (§4.4); a swap makes that separation operational. The kernel
//! swaps each plane through one entry point, called by the code driving
//! the kernel (`Kernel::set_cpu_policy`, `set_disk_policy`,
//! `set_link_policy`; applications have no swap syscall): the detaching
//! policy exports its in-flight state as policy-neutral snapshots
//! ([`sched::PerCpu::export_tasks`], [`simdisk::IoSched::drain`],
//! [`simnet::LinkSched::drain`]) and a freshly built replacement replays
//! them.
//!
//! Three rules make mid-run swaps safe:
//!
//! 1. **Snapshots carry only what the kernel said.** A CPU snapshot is
//!    (task, home CPU, binding, runnable); a disk snapshot is the queued
//!    requests; a link snapshot is the queued packets with their class
//!    chains. Nothing the detaching policy *invented* — passes, virtual
//!    times, decayed usages, token buckets — crosses the swap.
//! 2. **Fresh ledgers for everyone at once.** The attaching policy starts
//!    every principal at its own notion of "just joined". This is the
//!    repo-wide sleeper-rejoin rule (no banked credit) applied to the
//!    whole machine simultaneously, so no principal gains or loses
//!    relative standing from the swap itself.
//! 3. **Accounting lives below the policy.** Charged CPU/disk/wire time
//!    is recorded in [`rescon::ContainerTable`] and device totals, which a
//!    swap never touches — so conservation invariants hold across any
//!    swap schedule, and a run that never swaps is byte-identical to one
//!    built before this crate existed.
//!
//! [`build_cpu`], [`build_disk`], and [`build_link`] form the policy
//! registry: the single place where policy kinds become instances, so
//! boot-time construction and mid-run swaps build policies identically.
//! [`spec`] parses human-written policy specs (`"edf"`,
//! `"decay->edf@2s"`) for CLIs and the A/B harness.

pub mod registry;
pub mod spec;

pub use registry::{build_cpu, build_disk, build_link, CpuPolicyKind, DiskPolicyKind};
pub use spec::{
    parse_cpu, parse_cpu_schedule, parse_disk, parse_duration, parse_link, CpuSchedule,
};
