//! [`PerCpu`]: the SMP scheduler the kernel drives, routing each call to
//! one single-CPU [`CoreScheduler`] policy per simulated CPU.
//!
//! Each core owns its run queue and never learns about the others.
//! `PerCpu` keeps the task → home-CPU map plus a cache of each task's
//! binding and runnable flag so a migration can unregister the task from
//! its old core and re-register it — binding and runnable state intact —
//! on the new one. With one CPU the router is a pure pass-through: the
//! call sequence a core observes is identical to what the policy saw
//! before the SMP refactor, which is what keeps single-CPU runs
//! byte-identical.

use rescon::{ContainerId, ContainerTable};
use simcore::slab::IdSlab;
use simcore::Nanos;

use crate::api::{CoreScheduler, CpuId, Pick, TaskId, TaskSnapshot};

struct TaskMeta {
    cpu: u32,
    binding: Vec<ContainerId>,
    runnable: bool,
}

/// Per-CPU run queues with task-to-CPU placement and migration, built
/// from one [`CoreScheduler`] instance per CPU.
///
/// Calls that identify the CPU explicitly ([`PerCpu::add_task`],
/// [`PerCpu::pick`], [`PerCpu::next_release_time`]) address a specific
/// core; the rest resolve the owning core from the task's current home
/// CPU.
pub struct PerCpu {
    cores: Vec<Box<dyn CoreScheduler>>,
    tasks: IdSlab<TaskId, TaskMeta>,
}

impl PerCpu {
    /// Builds the router from pre-constructed cores, one per CPU.
    /// Panics if `cores` is empty.
    pub fn new(cores: Vec<Box<dyn CoreScheduler>>) -> Self {
        assert!(!cores.is_empty(), "PerCpu requires at least one core");
        Self {
            cores,
            tasks: IdSlab::new(),
        }
    }

    fn core_of(&self, task: TaskId) -> Option<u32> {
        self.tasks.get(task).map(|m| m.cpu)
    }

    /// Registers a task on `cpu` with its initial scheduler binding. The
    /// task starts not runnable.
    pub fn add_task(&mut self, task: TaskId, binding: &[ContainerId], cpu: CpuId, now: Nanos) {
        let cpu = cpu.0.min(self.cores.len() as u32 - 1);
        self.tasks.insert(
            task,
            TaskMeta {
                cpu,
                binding: binding.to_vec(),
                runnable: false,
            },
        );
        self.cores[cpu as usize].add_task(task, binding, now);
    }

    /// Unregisters a task (thread exit).
    pub fn remove_task(&mut self, task: TaskId) {
        if let Some(meta) = self.tasks.remove(task) {
            self.cores[meta.cpu as usize].remove_task(task);
        }
    }

    /// Replaces the task's scheduler binding on its home CPU. Every call
    /// reaches the core, an unchanged binding included: a policy may act
    /// on the rebind itself (EDF re-resolves its deadline at the next
    /// pick).
    pub fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos) {
        if let Some(meta) = self.tasks.get_mut(task) {
            if meta.binding != binding {
                meta.binding.clear();
                meta.binding.extend_from_slice(binding);
            }
            self.cores[meta.cpu as usize].set_binding(task, binding, now);
        }
    }

    /// Marks the task runnable or blocked on its home CPU.
    pub fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        if let Some(meta) = self.tasks.get_mut(task) {
            meta.runnable = runnable;
            self.cores[meta.cpu as usize].set_runnable(task, runnable, now);
        }
    }

    /// Returns `true` if the task is currently marked runnable.
    pub fn is_runnable(&self, task: TaskId) -> bool {
        match self.core_of(task) {
            Some(cpu) => self.cores[cpu as usize].is_runnable(task),
            None => false,
        }
    }

    /// Returns the task's current home CPU, if registered.
    pub fn cpu_of(&self, task: TaskId) -> Option<CpuId> {
        self.core_of(task).map(CpuId)
    }

    /// Moves a task to `to`, preserving its binding and runnable state.
    /// Returns `false` if the task is unknown or already homed there.
    pub fn migrate(&mut self, task: TaskId, to: CpuId, now: Nanos) -> bool {
        if to.0 as usize >= self.cores.len() {
            return false;
        }
        let Some(meta) = self.tasks.get_mut(task) else {
            return false;
        };
        if meta.cpu == to.0 {
            return false;
        }
        let from = meta.cpu;
        meta.cpu = to.0;
        let binding = meta.binding.clone();
        let runnable = meta.runnable;
        self.cores[from as usize].remove_task(task);
        self.cores[to.0 as usize].add_task(task, &binding, now);
        if runnable {
            self.cores[to.0 as usize].set_runnable(task, true, now);
        }
        true
    }

    /// Chooses the next task to run on `cpu`.
    pub fn pick(&mut self, cpu: CpuId, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        self.cores[cpu.0 as usize].pick(table, now)
    }

    /// Accounts `dt` of CPU consumed by `task` (on its home CPU).
    pub fn charge(
        &mut self,
        task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    ) {
        if let Some(cpu) = self.core_of(task) {
            self.cores[cpu as usize].charge(task, container, dt, table, now);
        }
    }

    /// If every runnable task on `cpu` is throttled by a CPU limit,
    /// returns the earliest time one becomes eligible again.
    pub fn next_release_time(
        &mut self,
        cpu: CpuId,
        table: &ContainerTable,
        now: Nanos,
    ) -> Option<Nanos> {
        self.cores[cpu.0 as usize].next_release_time(table, now)
    }

    /// Number of simulated CPUs.
    pub fn ncpus(&self) -> u32 {
        self.cores.len() as u32
    }

    /// Exports every registered task as a policy-neutral
    /// [`TaskSnapshot`], in ascending task id order so the replay order
    /// on import is deterministic.
    pub fn export_tasks(&self) -> Vec<TaskSnapshot> {
        self.tasks
            .iter()
            .map(|(task, meta)| TaskSnapshot {
                task,
                cpu: CpuId(meta.cpu),
                binding: meta.binding.clone(),
                runnable: meta.runnable,
            })
            .collect()
    }

    /// Replays exported task snapshots into this (freshly built)
    /// scheduler: registration, home CPU, binding, and runnable state are
    /// restored; policy-internal ledgers start fresh.
    pub fn import_tasks(&mut self, tasks: &[TaskSnapshot], now: Nanos) {
        for t in tasks {
            self.add_task(t.task, &t.binding, t.cpu, now);
            if t.runnable {
                self.set_runnable(t.task, true, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrideScheduler;
    use rescon::{Attributes, ContainerTable};

    fn two_cpu() -> (PerCpu, ContainerTable, ContainerId) {
        let mut table = ContainerTable::new();
        let c = table
            .create(Some(table.root()), Attributes::time_shared(10))
            .unwrap();
        let pc = PerCpu::new(vec![
            Box::new(StrideScheduler::new()),
            Box::new(StrideScheduler::new()),
        ]);
        (pc, table, c)
    }

    #[test]
    fn tasks_stay_on_their_home_cpu() {
        let (mut pc, table, c) = two_cpu();
        pc.add_task(TaskId(1), &[c], CpuId(0), Nanos::ZERO);
        pc.add_task(TaskId(2), &[c], CpuId(1), Nanos::ZERO);
        pc.set_runnable(TaskId(1), true, Nanos::ZERO);
        pc.set_runnable(TaskId(2), true, Nanos::ZERO);
        assert_eq!(pc.cpu_of(TaskId(1)), Some(CpuId(0)));
        assert_eq!(pc.cpu_of(TaskId(2)), Some(CpuId(1)));
        let p0 = pc.pick(CpuId(0), &table, Nanos::ZERO).unwrap();
        let p1 = pc.pick(CpuId(1), &table, Nanos::ZERO).unwrap();
        assert_eq!(p0.task, TaskId(1));
        assert_eq!(p1.task, TaskId(2));
    }

    #[test]
    fn migrate_preserves_binding_and_runnable_state() {
        let (mut pc, table, c) = two_cpu();
        pc.add_task(TaskId(1), &[c], CpuId(0), Nanos::ZERO);
        pc.set_runnable(TaskId(1), true, Nanos::ZERO);
        assert!(pc.migrate(TaskId(1), CpuId(1), Nanos::ZERO));
        assert_eq!(pc.cpu_of(TaskId(1)), Some(CpuId(1)));
        assert!(pc.is_runnable(TaskId(1)));
        assert!(pc.pick(CpuId(0), &table, Nanos::ZERO).is_none());
        let p = pc.pick(CpuId(1), &table, Nanos::ZERO).unwrap();
        assert_eq!(p.task, TaskId(1));
    }

    #[test]
    fn migrate_rejects_unknown_noop_and_out_of_range() {
        let (mut pc, _table, c) = two_cpu();
        pc.add_task(TaskId(1), &[c], CpuId(0), Nanos::ZERO);
        assert!(!pc.migrate(TaskId(9), CpuId(1), Nanos::ZERO));
        assert!(!pc.migrate(TaskId(1), CpuId(0), Nanos::ZERO));
        assert!(!pc.migrate(TaskId(1), CpuId(7), Nanos::ZERO));
        assert_eq!(pc.cpu_of(TaskId(1)), Some(CpuId(0)));
    }

    #[test]
    fn ncpus_reflects_cores() {
        let (pc, _, _) = two_cpu();
        assert_eq!(pc.ncpus(), 2);
    }
}
