//! The policy plane: the registry and spec parsers for the kernel's
//! three scheduling seams.
//!
//! The simulated kernel has three scheduling seams — CPU
//! ([`sched::PerCpu`], one [`sched::CoreScheduler`] per CPU), disk
//! ([`simdisk::IoSched`]), and link ([`simnet::LinkSched`]). The paper
//! frames resource containers as *mechanism*, explicitly separate from
//! scheduling *policy* (§4.4). Each seam's policy is chosen at boot; the
//! CPU policy can also be replaced mid-run, which makes that separation
//! operational. The code driving the kernel swaps it through
//! `Kernel::set_cpu_policy` (applications have no swap syscall): the
//! detaching scheduler exports its tasks as policy-neutral snapshots
//! ([`sched::PerCpu::export_tasks`]) and a freshly built replacement
//! replays them ([`sched::PerCpu::import_tasks`]).
//!
//! Three rules make a mid-run swap safe:
//!
//! 1. **Snapshots carry only what the kernel said.** A task snapshot is
//!    (task, home CPU, binding, runnable). Nothing the detaching policy
//!    *invented* — passes, virtual times, decayed usages, token buckets —
//!    crosses the swap.
//! 2. **Fresh ledgers for everyone at once.** The attaching policy starts
//!    every principal at its own notion of "just joined". This is the
//!    repo-wide sleeper-rejoin rule (no banked credit) applied to the
//!    whole machine simultaneously, so no principal gains or loses
//!    relative standing from the swap itself.
//! 3. **Accounting lives below the policy.** Charged CPU time is recorded
//!    in [`rescon::ContainerTable`] and the kernel's per-CPU totals, which
//!    a swap never touches — so conservation invariants hold across any
//!    swap schedule, and a run that never swaps is byte-identical to one
//!    built before this crate existed.
//!
//! [`build_cpu`], [`build_disk`], and [`build_link`] form the policy
//! registry: the single place where policy kinds become instances, so
//! boot-time construction and a mid-run CPU swap build policies
//! identically.
//! [`spec`] parses human-written policy specs (`"edf"`,
//! `"decay->edf@2s"`) for CLIs and the A/B harness.

pub mod registry;
pub mod spec;

pub use registry::{build_cpu, build_disk, build_link, CpuPolicyKind, DiskPolicyKind};
pub use spec::{parse_cpu, parse_cpu_schedule, parse_duration, parse_link, CpuSchedule};
