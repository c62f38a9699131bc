//! The scheduler protocol: how the kernel talks to a CPU scheduler.
//!
//! [`CoreScheduler`] is the per-CPU policy protocol. Every policy in this
//! crate (decay, multilevel, stride, lottery, EDF) implements it and
//! manages exactly one run queue; policies are entirely unaware of
//! multiprocessing. The kernel drives them through
//! [`PerCpu`](crate::PerCpu), which routes every call to the right
//! CPU's core and migrates tasks between cores.

use rescon::{ContainerId, ContainerTable};
use simcore::Nanos;

/// Identifier of a schedulable task (a thread in the simulated kernel).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl simcore::slab::SlabKey for TaskId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        TaskId(i as u32)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a simulated CPU, dense from zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u32);

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// The outcome of a scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    /// The task to run next.
    pub task: TaskId,
    /// Maximum uninterrupted slice before the kernel must call
    /// [`PerCpu::pick`](crate::PerCpu::pick) again (the quantum).
    pub slice: Nanos,
}

/// The policy-neutral state of one registered task: everything the kernel
/// told the scheduler, nothing the policy invented.
///
/// A mid-run policy swap exports one snapshot per task from the detaching
/// scheduler and replays them into the freshly built replacement
/// ([`PerCpu::export_tasks`](crate::PerCpu::export_tasks) /
/// [`PerCpu::import_tasks`](crate::PerCpu::import_tasks)). Policy
/// ledgers — decayed usage, stride passes, limit buckets — deliberately do
/// *not* cross the swap: the new policy starts every principal at its own
/// notion of "just joined", which is the repo-wide sleeper-rejoin rule
/// (no banked credit) applied to the whole machine at once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSnapshot {
    /// The registered task.
    pub task: TaskId,
    /// Its home CPU.
    pub cpu: CpuId,
    /// Its current scheduler binding (paper §4.3).
    pub binding: Vec<ContainerId>,
    /// Whether it was runnable at export time.
    pub runnable: bool,
}

/// A single-CPU scheduling policy whose resource principals are
/// containers.
///
/// The kernel (through [`PerCpu`](crate::PerCpu)):
///
/// 1. registers each thread with [`CoreScheduler::add_task`], giving its
///    scheduler binding (the containers it serves, paper §4.3);
/// 2. keeps the binding current via [`CoreScheduler::set_binding`] as the
///    thread's resource binding moves between containers;
/// 3. flips [`CoreScheduler::set_runnable`] as the thread blocks and
///    wakes;
/// 4. calls [`CoreScheduler::pick`] whenever the CPU is free or an event
///    may have changed the best choice, runs the picked task for at most
///    `slice`, and then
/// 5. reports the CPU actually consumed — and which container it was
///    charged to — via [`CoreScheduler::charge`].
///
/// Implementations must be deterministic given the same call sequence.
pub trait CoreScheduler {
    /// Registers a task with its initial scheduler binding. The task starts
    /// not runnable.
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos);

    /// Unregisters a task (thread exit).
    fn remove_task(&mut self, task: TaskId);

    /// Replaces the task's scheduler binding (paper §4.3: the set of
    /// containers a multiplexed thread currently serves).
    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos);

    /// Marks the task runnable or blocked.
    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos);

    /// Returns `true` if the task is currently marked runnable.
    fn is_runnable(&self, task: TaskId) -> bool;

    /// Chooses the next task to run, or `None` if no runnable task may run
    /// now (all blocked, or all throttled by CPU limits).
    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick>;

    /// Accounts `dt` of CPU consumed by `task` while resource-bound to
    /// `container`. The kernel has already charged the container table;
    /// this call updates policy state (decayed usage, stride passes,
    /// limit buckets).
    fn charge(
        &mut self,
        task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    );

    /// If every runnable task is throttled by a CPU limit, returns the
    /// earliest time at which one becomes eligible again; otherwise `None`.
    fn next_release_time(&mut self, table: &ContainerTable, now: Nanos) -> Option<Nanos>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(7).to_string(), "t7");
    }

    #[test]
    fn task_id_ordering() {
        assert!(TaskId(1) < TaskId(2));
        assert_eq!(TaskId(3), TaskId(3));
    }

    #[test]
    fn cpu_id_display_and_ordering() {
        assert_eq!(CpuId(2).to_string(), "cpu2");
        assert!(CpuId(0) < CpuId(1));
    }
}
