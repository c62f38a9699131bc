//! A flat stride scheduler (Waldspurger '95) over tasks, used as an
//! ablation against the multi-level scheduler.
//!
//! Each task receives tickets equal to the sum of `priority + 1` over its
//! scheduler binding (fixed-share containers contribute
//! `share × 100` tickets). Stride scheduling then allocates CPU
//! proportionally to tickets with deterministic O(log n)-style behaviour —
//! here O(n) per pick, which is fine at simulation scale.

use rescon::{ContainerId, ContainerTable, SchedPolicy};
use simcore::slab::IdSlab;
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;

use crate::api::{CoreScheduler, Pick, TaskId};

/// The slice a pick grants.
const QUANTUM: Nanos = Nanos::from_millis(1);

#[derive(Debug)]
struct StrideTask {
    binding: Vec<ContainerId>,
    runnable: bool,
    /// Virtual pass value; lowest runs next.
    pass: f64,
}

/// A flat proportional-share stride scheduler over tasks.
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable};
/// use sched::{CoreScheduler, StrideScheduler, TaskId};
/// use simcore::Nanos;
///
/// let mut table = ContainerTable::new();
/// let c = table.create(None, Attributes::time_shared(9)).unwrap();
/// let mut s = StrideScheduler::new();
/// s.add_task(TaskId(1), &[c], Nanos::ZERO);
/// s.set_runnable(TaskId(1), true, Nanos::ZERO);
/// assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
/// ```
pub struct StrideScheduler {
    tasks: IdSlab<TaskId, StrideTask>,
    /// Global virtual time: max pass ever charged; wakers join here.
    vtime: f64,
}

impl Default for StrideScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl StrideScheduler {
    /// Creates a stride scheduler with a 1 ms quantum.
    pub fn new() -> Self {
        StrideScheduler {
            tasks: IdSlab::new(),
            vtime: 0.0,
        }
    }

    /// Tickets for a binding: priorities + 1, or `share × 100` for
    /// fixed-share containers; at least 1.
    pub fn tickets(table: &ContainerTable, binding: &[ContainerId]) -> f64 {
        let mut t = 0.0;
        for &c in binding {
            match table.policy(c) {
                Ok(SchedPolicy::TimeShared { priority }) => t += (priority + 1) as f64,
                Ok(SchedPolicy::FixedShare { share }) => t += share * 100.0,
                Err(_) => {}
            }
        }
        t.max(1.0)
    }
}

impl CoreScheduler for StrideScheduler {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.tasks.insert(
            task,
            StrideTask {
                binding: binding.to_vec(),
                runnable: false,
                pass: self.vtime,
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
        let vt = self.vtime;
        if let Some(t) = self.tasks.get_mut(task) {
            if runnable && !t.runnable {
                // Idle-credit revocation: a waking task joins at the
                // current virtual time rather than cashing in idle time.
                t.pass = t.pass.max(vt);
            }
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

    fn pick(&mut self, _table: &ContainerTable, now: Nanos) -> Option<Pick> {
        // Ascending id order: on equal passes the smallest id wins.
        let mut best: Option<(f64, TaskId)> = None;
        for (id, t) in self.tasks.iter() {
            if t.runnable && best.is_none_or(|(bp, _)| t.pass < bp) {
                best = Some((t.pass, id));
            }
        }
        let (_, task) = best?;
        trace::emit_at(now, || TraceEventKind::SchedPick {
            task: task.0,
            slice: QUANTUM,
        });
        Some(Pick {
            task,
            slice: QUANTUM,
        })
    }

    fn charge(
        &mut self,
        task: TaskId,
        _container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        _now: Nanos,
    ) {
        let Some(t) = self.tasks.get_mut(task) else {
            return;
        };
        t.pass += dt.as_secs_f64() / Self::tickets(table, &t.binding);
        if t.pass > self.vtime {
            self.vtime = t.pass;
        }
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
    fn proportional_to_tickets() {
        let mut table = ContainerTable::new();
        let c3 = table.create(None, Attributes::time_shared(2)).unwrap(); // 3 tickets
        let c1 = table.create(None, Attributes::time_shared(0)).unwrap(); // 1 ticket
        let mut s = StrideScheduler::new();
        s.add_task(TaskId(1), &[c3], Nanos::ZERO);
        s.add_task(TaskId(2), &[c1], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let mut cpu = [Nanos::ZERO; 3];
        let mut now = Nanos::ZERO;
        for _ in 0..4000 {
            let p = s.pick(&table, now).unwrap();
            s.charge(p.task, c3, p.slice, &table, now);
            cpu[p.task.0 as usize] += p.slice;
            now += p.slice;
        }
        let r = cpu[1].ratio(cpu[1] + cpu[2]);
        assert!((r - 0.75).abs() < 0.01, "r = {r}");
    }

    #[test]
    fn waker_joins_at_current_vtime() {
        let mut table = ContainerTable::new();
        let c = table.create(None, Attributes::time_shared(1)).unwrap();
        let mut s = StrideScheduler::new();
        s.add_task(TaskId(1), &[c], Nanos::ZERO);
        s.add_task(TaskId(2), &[c], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        // Task 1 runs alone for a while.
        for _ in 0..100 {
            let p = s.pick(&table, Nanos::ZERO).unwrap();
            s.charge(p.task, c, p.slice, &table, Nanos::ZERO);
        }
        // Task 2 wakes; it must not monopolize to "catch up".
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let mut t2_run = 0;
        for _ in 0..100 {
            let p = s.pick(&table, Nanos::ZERO).unwrap();
            s.charge(p.task, c, p.slice, &table, Nanos::ZERO);
            if p.task == TaskId(2) {
                t2_run += 1;
            }
        }
        assert!((40..=60).contains(&t2_run), "t2_run = {t2_run}");
    }

    #[test]
    fn tickets_floor_is_one() {
        let table = ContainerTable::new();
        assert_eq!(StrideScheduler::tickets(&table, &[]), 1.0);
    }

    #[test]
    fn fixed_share_binding_weighs_by_share() {
        let mut table = ContainerTable::new();
        let f = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        assert_eq!(StrideScheduler::tickets(&table, &[f]), 50.0);
    }

    #[test]
    fn empty_pick_none() {
        let table = ContainerTable::new();
        let mut s = StrideScheduler::new();
        assert!(s.pick(&table, Nanos::ZERO).is_none());
    }
}
