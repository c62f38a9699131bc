//! A flat lottery scheduler (Waldspurger & Weihl, OSDI '94), used as an
//! ablation: probabilistic proportional share over tasks, with tickets
//! derived from container bindings exactly as in the stride scheduler.

use rescon::{ContainerId, ContainerTable};
use simcore::slab::IdSlab;
use simcore::trace::{self, TraceEventKind};
use simcore::{Nanos, SimRng};

use crate::api::{CoreScheduler, Pick, TaskId};
use crate::stride::StrideScheduler;

/// The slice a pick grants.
const QUANTUM: Nanos = Nanos::from_millis(1);

#[derive(Debug)]
struct LotteryTask {
    binding: Vec<ContainerId>,
    runnable: bool,
}

/// A lottery scheduler: each pick draws a winner with probability
/// proportional to its tickets.
///
/// Deterministic for a fixed seed, like everything else in the simulation.
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable};
/// use sched::{CoreScheduler, LotteryScheduler, TaskId};
/// use simcore::Nanos;
///
/// let mut table = ContainerTable::new();
/// let c = table.create(None, Attributes::time_shared(1)).unwrap();
/// let mut s = LotteryScheduler::new(42);
/// s.add_task(TaskId(1), &[c], Nanos::ZERO);
/// s.set_runnable(TaskId(1), true, Nanos::ZERO);
/// assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
/// ```
pub struct LotteryScheduler {
    tasks: IdSlab<TaskId, LotteryTask>,
    rng: SimRng,
}

impl LotteryScheduler {
    /// Creates a lottery scheduler seeded with `seed`, 1 ms quantum.
    pub fn new(seed: u64) -> Self {
        LotteryScheduler {
            tasks: IdSlab::new(),
            rng: SimRng::seed_from(seed),
        }
    }
}

impl CoreScheduler for LotteryScheduler {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.tasks.insert(
            task,
            LotteryTask {
                binding: binding.to_vec(),
                runnable: false,
            },
        );
    }

    fn remove_task(&mut self, task: TaskId) {
        self.tasks.remove(task);
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        if let Some(t) = self.tasks.get_mut(task) {
            t.binding = binding.to_vec();
        }
    }

    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        if let Some(t) = self.tasks.get_mut(task) {
            if t.runnable != runnable {
                trace::emit_at(now, || TraceEventKind::ThreadState {
                    task: task.0,
                    runnable,
                });
            }
            t.runnable = runnable;
        }
    }

    fn is_runnable(&self, task: TaskId) -> bool {
        self.tasks.get(task).map(|t| t.runnable).unwrap_or(false)
    }

    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        let mut total = 0.0;
        let mut entries: Vec<(TaskId, f64)> = Vec::new();
        // Tickets are summed in ascending id order, so the draw is a
        // deterministic function of the seed.
        for (id, t) in self.tasks.iter() {
            if !t.runnable {
                continue;
            }
            let tickets = StrideScheduler::tickets(table, &t.binding);
            total += tickets;
            entries.push((id, tickets));
        }
        if entries.is_empty() {
            return None;
        }
        let draw = self.rng.uniform_f64() * total;
        let mut acc = 0.0;
        // Floating-point edge: fall back to the last entry.
        let mut winner = entries.last().map(|&(id, _)| id)?;
        for (id, tickets) in &entries {
            acc += tickets;
            if draw < acc {
                winner = *id;
                break;
            }
        }
        trace::emit_at(now, || TraceEventKind::SchedPick {
            task: winner.0,
            slice: QUANTUM,
        });
        Some(Pick {
            task: winner,
            slice: QUANTUM,
        })
    }

    fn charge(
        &mut self,
        _task: TaskId,
        _container: ContainerId,
        _dt: Nanos,
        _table: &ContainerTable,
        _now: Nanos,
    ) {
        // Lottery scheduling is memoryless.
    }

    fn next_release_time(&mut self, _table: &ContainerTable, _now: Nanos) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescon::Attributes;

    #[test]
    fn proportions_converge_to_tickets() {
        let mut table = ContainerTable::new();
        let c3 = table.create(None, Attributes::time_shared(2)).unwrap();
        let c1 = table.create(None, Attributes::time_shared(0)).unwrap();
        let mut s = LotteryScheduler::new(7);
        s.add_task(TaskId(1), &[c3], Nanos::ZERO);
        s.add_task(TaskId(2), &[c1], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let mut wins = [0u32; 3];
        for _ in 0..20_000 {
            let p = s.pick(&table, Nanos::ZERO).unwrap();
            wins[p.task.0 as usize] += 1;
        }
        let r = wins[1] as f64 / (wins[1] + wins[2]) as f64;
        assert!((r - 0.75).abs() < 0.02, "r = {r}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut table = ContainerTable::new();
        let c = table.create(None, Attributes::time_shared(1)).unwrap();
        let mk = |seed| {
            let mut s = LotteryScheduler::new(seed);
            for i in 0..4 {
                s.add_task(TaskId(i), &[c], Nanos::ZERO);
                s.set_runnable(TaskId(i), true, Nanos::ZERO);
            }
            (0..64)
                .map(|_| s.pick(&table, Nanos::ZERO).unwrap().task)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
    }

    #[test]
    fn no_runnable_tasks_is_none() {
        let table = ContainerTable::new();
        let mut s = LotteryScheduler::new(1);
        s.add_task(TaskId(1), &[], Nanos::ZERO);
        assert!(s.pick(&table, Nanos::ZERO).is_none());
    }
}
