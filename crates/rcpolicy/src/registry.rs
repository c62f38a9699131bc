//! The policy registry: the single place where policy kinds become
//! running instances. The kernel's old hard-coded constructor matches
//! (one in `Kernel::new` per plane) moved here so boot-time construction
//! and a mid-run CPU swap build policies identically.

use sched::{
    CoreScheduler, DecayUsageScheduler, EdfScheduler, LotteryScheduler, MultiLevelScheduler,
    PerCpu, StrideScheduler,
};
use simdisk::{FifoIoSched, IoSched, ShareIoSched};
use simnet::{LinkSched, QdiscKind};

/// Which CPU scheduling policy to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuPolicyKind {
    /// Classic decay-usage time sharing over tasks (the "unmodified"
    /// baseline and the LRP configuration).
    DecayUsage,
    /// The paper's container-aware multi-level scheduler.
    MultiLevel,
    /// Flat stride scheduling (ablation).
    Stride,
    /// Flat lottery scheduling with the given seed (stride's randomized
    /// ablation twin).
    Lottery(u64),
    /// Earliest-deadline-first over per-container latency targets
    /// ([`rescon::Attributes::with_deadline`]).
    Edf,
}

impl CpuPolicyKind {
    /// The policy's name in reports, traces and metrics dumps.
    pub fn name(self) -> &'static str {
        match self {
            CpuPolicyKind::DecayUsage => "decay-usage",
            CpuPolicyKind::MultiLevel => "multilevel-rc",
            CpuPolicyKind::Stride => "stride",
            CpuPolicyKind::Lottery(_) => "lottery",
            CpuPolicyKind::Edf => "edf",
        }
    }
}

/// Which disk request-ordering policy to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskPolicyKind {
    /// Arrival order — the unmodified kernel's single disk queue, where a
    /// container with a deep backlog delays every other principal.
    Fifo,
    /// Per-container virtual-time dispatch weighted by effective share
    /// (the disk-bandwidth analogue of the container CPU guarantee).
    Share,
}

impl DiskPolicyKind {
    /// The policy's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            DiskPolicyKind::Fifo => "fifo",
            DiskPolicyKind::Share => "share",
        }
    }
}

/// Builds the SMP CPU scheduler: one core policy instance per CPU behind
/// a [`PerCpu`] router. With one CPU this is a pure pass-through, so each
/// policy observes exactly the uniprocessor call sequence.
pub fn build_cpu(kind: CpuPolicyKind, ncpus: u32) -> PerCpu {
    let core = |cpu: usize| -> Box<dyn CoreScheduler> {
        match kind {
            CpuPolicyKind::DecayUsage => Box::new(DecayUsageScheduler::new()),
            CpuPolicyKind::MultiLevel => Box::new(MultiLevelScheduler::new()),
            CpuPolicyKind::Stride => Box::new(StrideScheduler::new()),
            // Distinct per-CPU seeds keep the cores' draws independent;
            // CPU 0 keeps the configured seed, so a single-CPU run is
            // unchanged.
            CpuPolicyKind::Lottery(seed) => {
                Box::new(LotteryScheduler::new(seed.wrapping_add(cpu as u64)))
            }
            CpuPolicyKind::Edf => Box::new(EdfScheduler::new()),
        }
    };
    PerCpu::new((0..ncpus.max(1) as usize).map(core).collect())
}

/// Builds a disk request-ordering policy.
pub fn build_disk(kind: DiskPolicyKind) -> Box<dyn IoSched> {
    match kind {
        DiskPolicyKind::Fifo => Box::new(FifoIoSched::new()),
        DiskPolicyKind::Share => Box::new(ShareIoSched::new()),
    }
}

/// Builds a transmit link queueing policy.
pub fn build_link(qdisc: QdiscKind) -> Box<dyn LinkSched> {
    match qdisc {
        QdiscKind::Fifo => Box::new(simnet::FifoLink::new()),
        QdiscKind::Wfq => Box::new(simnet::WfqLink::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescon::{Attributes, ContainerTable};
    use sched::{CpuId, TaskId, TaskSnapshot};
    use simcore::Nanos;

    const CPU_KINDS: [CpuPolicyKind; 5] = [
        CpuPolicyKind::DecayUsage,
        CpuPolicyKind::MultiLevel,
        CpuPolicyKind::Stride,
        CpuPolicyKind::Lottery(7),
        CpuPolicyKind::Edf,
    ];

    #[test]
    fn build_cpu_clamps_zero_cpus() {
        assert_eq!(build_cpu(CpuPolicyKind::Stride, 0).ncpus(), 1);
        assert_eq!(build_cpu(CpuPolicyKind::Edf, 4).ncpus(), 4);
    }

    /// Six tasks spread round-robin over `ncpus`, bound to one or two
    /// containers, every third one runnable.
    fn tasks(table: &mut ContainerTable, ncpus: u32) -> Vec<TaskSnapshot> {
        let c = table.create(None, Attributes::time_shared(5)).unwrap();
        let d = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        (0..6)
            .map(|i| TaskSnapshot {
                task: TaskId(i + 1),
                cpu: CpuId(i % ncpus),
                binding: if i % 2 == 0 { vec![c] } else { vec![c, d] },
                runnable: i % 3 == 0,
            })
            .collect()
    }

    /// Boots `kind` at `now` with `snaps` registered the way the kernel
    /// does: one `add_task`, then `set_runnable` for runnable tasks.
    fn boot(kind: CpuPolicyKind, ncpus: u32, snaps: &[TaskSnapshot], now: Nanos) -> PerCpu {
        let mut s = build_cpu(kind, ncpus);
        for t in snaps {
            s.add_task(t.task, &t.binding, t.cpu, now);
            if t.runnable {
                s.set_runnable(t.task, true, now);
            }
        }
        s
    }

    #[test]
    fn cpu_export_import_export_is_a_fixpoint() {
        for ncpus in [1, 2] {
            let mut table = ContainerTable::new();
            let snaps = tasks(&mut table, ncpus);
            for from in CPU_KINDS {
                let snap = boot(from, ncpus, &snaps, Nanos::ZERO).export_tasks();
                assert_eq!(snap, snaps, "{} on {ncpus} CPUs", from.name());
                for to in CPU_KINDS {
                    let mut b = build_cpu(to, ncpus);
                    b.import_tasks(&snap, Nanos::ZERO);
                    assert_eq!(b.export_tasks(), snap, "{} on {ncpus} CPUs", to.name());
                }
            }
        }
    }

    #[test]
    fn cpu_swap_preserves_tasks_bindings_runnability_and_next_pick() {
        for ncpus in [1, 2] {
            let mut table = ContainerTable::new();
            let snaps = tasks(&mut table, ncpus);
            for from in CPU_KINDS {
                for to in CPU_KINDS {
                    let label = format!("{} -> {} on {ncpus} CPUs", from.name(), to.name());
                    let mut old = boot(from, ncpus, &snaps, Nanos::ZERO);
                    // Give the detaching policy ledgers that must not
                    // cross the swap.
                    let mut now = Nanos::ZERO;
                    for cpu in (0..ncpus).map(CpuId).cycle().take(8) {
                        if let Some(p) = old.pick(cpu, &table, now) {
                            let c = snaps[p.task.0 as usize - 1].binding[0];
                            old.charge(p.task, c, p.slice, &table, now);
                        }
                        now += Nanos::from_millis(1);
                    }
                    let mut fresh = build_cpu(to, ncpus);
                    fresh.import_tasks(&old.export_tasks(), now);
                    for t in &snaps {
                        assert_eq!(fresh.cpu_of(t.task), Some(t.cpu), "{label}");
                        assert_eq!(fresh.is_runnable(t.task), t.runnable, "{label}");
                    }
                    assert_eq!(fresh.export_tasks(), snaps, "{label}");
                    // The swapped-in policy picks exactly what it would
                    // have picked had it booted with these tasks at the
                    // swap instant.
                    let mut booted = boot(to, ncpus, &snaps, now);
                    for cpu in (0..ncpus).map(CpuId) {
                        let p = fresh.pick(cpu, &table, now);
                        assert_eq!(p, booted.pick(cpu, &table, now), "{label}");
                        let p = p.unwrap_or_else(|| panic!("{label}: {cpu} picked nothing"));
                        assert_eq!(fresh.cpu_of(p.task), Some(cpu), "{label}");
                        assert!(fresh.is_runnable(p.task), "{label}");
                    }
                }
            }
        }
    }
}
