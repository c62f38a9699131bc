//! Earliest-deadline-first scheduling over per-container latency targets.
//!
//! Containers declare a relative deadline through
//! [`rescon::Attributes::with_deadline`] — "work charged to this subtree
//! should finish within *d* of becoming runnable". The policy turns that
//! declarative latency target into dispatch order: every time a task wakes
//! (or exhausts a quantum) it releases a fresh *job* whose absolute
//! deadline is `release + d`, and the runnable task with the earliest
//! absolute deadline runs next. Tasks whose binding carries no deadline
//! anywhere on its ancestor chain schedule against a generous default, so
//! best-effort work stays live but always yields to declared targets
//! under contention.
//!
//! Re-releasing at each quantum boundary (rather than keeping the wake
//! deadline forever) is what makes this a *latency-target* policy instead
//! of classic hard-real-time EDF: a CPU hog cannot ride one ancient
//! deadline to starve everyone — after each slice it re-enters the
//! competition at `now + d` — while a blocked server thread that wakes for
//! a request gets the front of the queue precisely when its target is
//! tight. The same declared target feeds the `rctrace` SLO monitor, so
//! the policy and its verification read one attribute.

use rescon::{ContainerId, ContainerTable};
use simcore::slab::IdSlab;
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;

use crate::api::{CoreScheduler, Pick, TaskId};

/// The slice a pick grants; a job re-releases when it runs out.
const QUANTUM: Nanos = Nanos::from_millis(1);

/// Relative deadline assumed for work without a declared target: long
/// enough that any declared target beats it, short enough that
/// best-effort work keeps rotating.
const DEFAULT_DEADLINE: Nanos = Nanos::from_millis(100);

#[derive(Debug)]
struct EdfTask {
    binding: Vec<ContainerId>,
    runnable: bool,
    /// Current job release time: last wake-up or quantum exhaustion.
    release: Nanos,
    /// Cached relative deadline resolved from the binding (refreshed on
    /// every binding change; attribute edits bite at the next rebind or
    /// wake, like net weights bite at the next packet).
    rel_deadline: Nanos,
}

/// An earliest-deadline-first scheduler over container latency targets.
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable};
/// use sched::{CoreScheduler, EdfScheduler, TaskId};
/// use simcore::Nanos;
///
/// let mut table = ContainerTable::new();
/// let paid = table
///     .create(None, Attributes::time_shared(10).with_deadline(Nanos::from_millis(5)))
///     .unwrap();
/// let best_effort = table.create(None, Attributes::time_shared(10)).unwrap();
/// let mut s = EdfScheduler::new();
/// s.add_task(TaskId(1), &[best_effort], Nanos::ZERO);
/// s.add_task(TaskId(2), &[paid], Nanos::ZERO);
/// s.set_runnable(TaskId(1), true, Nanos::ZERO);
/// s.set_runnable(TaskId(2), true, Nanos::ZERO);
/// // Same wake time: the declared 5 ms target beats the 100 ms default.
/// assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
/// ```
pub struct EdfScheduler {
    tasks: IdSlab<TaskId, EdfTask>,
}

impl Default for EdfScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl EdfScheduler {
    /// Creates an EDF scheduler with a 1 ms quantum.
    pub fn new() -> Self {
        EdfScheduler {
            tasks: IdSlab::new(),
        }
    }

    /// Resolves the relative deadline of a binding: the tightest declared
    /// target over each bound container's ancestor chain (a tenant's
    /// target covers its per-connection children), or the best-effort
    /// default when nothing on any chain declares one.
    pub fn deadline_of(table: &ContainerTable, binding: &[ContainerId]) -> Nanos {
        let mut best: Option<Nanos> = None;
        for &c in binding {
            let mut cur = Some(c);
            while let Some(id) = cur {
                match table.attrs(id) {
                    Ok(a) => {
                        if let Some(d) = a.deadline {
                            best = Some(best.map_or(d, |b| b.min(d)));
                            break;
                        }
                        cur = table.parent(id).ok().flatten();
                    }
                    Err(_) => break,
                }
            }
        }
        best.unwrap_or(DEFAULT_DEADLINE)
    }
}

impl CoreScheduler for EdfScheduler {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos) {
        self.tasks.insert(
            task,
            EdfTask {
                binding: binding.to_vec(),
                runnable: false,
                release: now,
                // Zero is the "unresolved" sentinel (a zero relative
                // deadline is rejected by attribute validation); the real
                // value is resolved at the first pick, which has the
                // container table in hand.
                rel_deadline: Nanos::ZERO,
            },
        );
    }

    fn remove_task(&mut self, task: TaskId) {
        self.tasks.remove(task);
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        if let Some(t) = self.tasks.get_mut(task) {
            t.binding = binding.to_vec();
            // Invalidate the cache; re-resolved lazily at the next pick
            // (which has the table in hand).
            t.rel_deadline = Nanos::ZERO;
        }
    }

    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        if let Some(t) = self.tasks.get_mut(task) {
            if runnable && !t.runnable {
                // A wake-up releases a new job: the latency clock starts
                // now, never from banked past idleness.
                t.release = now;
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

    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        // Refresh invalidated deadline caches first (cheap: only tasks
        // whose binding changed since the last pick).
        for (_, t) in self.tasks.iter_mut() {
            if t.rel_deadline.is_zero() {
                t.rel_deadline = Self::deadline_of(table, &t.binding);
            }
        }
        // Absolute deadline of the task's current job; release as a
        // tie-break favors the longest-waiting job, then task id for
        // determinism.
        let (_, _, task) = self
            .tasks
            .iter()
            .filter(|(_, t)| t.runnable)
            .map(|(id, t)| (t.release + t.rel_deadline, t.release, id))
            .min()?;
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
        _dt: Nanos,
        _table: &ContainerTable,
        now: Nanos,
    ) {
        if let Some(t) = self.tasks.get_mut(task) {
            // Quantum consumed: release the next job. This is the
            // anti-starvation rule — continuously-runnable work re-enters
            // the deadline competition instead of keeping its original
            // (ever-earlier) deadline forever.
            t.release = now;
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

    fn table_with_deadlines() -> (ContainerTable, ContainerId, ContainerId) {
        let mut table = ContainerTable::new();
        let tight = table
            .create(
                None,
                Attributes::time_shared(10).with_deadline(Nanos::from_millis(5)),
            )
            .unwrap();
        let loose = table.create(None, Attributes::time_shared(10)).unwrap();
        (table, tight, loose)
    }

    #[test]
    fn declared_target_beats_default() {
        let (table, tight, loose) = table_with_deadlines();
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), &[loose], Nanos::ZERO);
        s.add_task(TaskId(2), &[tight], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
    }

    #[test]
    fn deadline_inherited_from_ancestors() {
        let mut table = ContainerTable::new();
        let tenant = table
            .create(
                None,
                Attributes::fixed_share(0.5).with_deadline(Nanos::from_millis(3)),
            )
            .unwrap();
        let conn = table
            .create(Some(tenant), Attributes::time_shared(10))
            .unwrap();
        assert_eq!(
            EdfScheduler::deadline_of(&table, &[conn]),
            Nanos::from_millis(3)
        );
        assert_eq!(EdfScheduler::deadline_of(&table, &[]), DEFAULT_DEADLINE);
    }

    #[test]
    fn tightest_binding_entry_wins() {
        let (table, tight, loose) = table_with_deadlines();
        assert_eq!(
            EdfScheduler::deadline_of(&table, &[loose, tight]),
            Nanos::from_millis(5)
        );
    }

    #[test]
    fn waking_tight_task_preempts_running_hog() {
        let (table, tight, loose) = table_with_deadlines();
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), &[loose], Nanos::ZERO);
        s.add_task(TaskId(2), &[tight], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        let mut now = Nanos::ZERO;
        // The hog runs alone for 50 quanta.
        for _ in 0..50 {
            let p = s.pick(&table, now).unwrap();
            assert_eq!(p.task, TaskId(1));
            now += p.slice;
            s.charge(p.task, loose, p.slice, &table, now);
        }
        // The tight task wakes late; its 5 ms target beats the hog's
        // freshly re-released 100 ms default immediately.
        s.set_runnable(TaskId(2), true, now);
        assert_eq!(s.pick(&table, now).unwrap().task, TaskId(2));
    }

    #[test]
    fn equal_deadlines_share_the_cpu() {
        let table = ContainerTable::new();
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), &[], Nanos::ZERO);
        s.add_task(TaskId(2), &[], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let mut now = Nanos::ZERO;
        let mut cpu = [Nanos::ZERO; 3];
        for _ in 0..1000 {
            let p = s.pick(&table, now).unwrap();
            now += p.slice;
            s.charge(p.task, table.root(), p.slice, &table, now);
            cpu[p.task.0 as usize] += p.slice;
        }
        let r = cpu[1].ratio(cpu[1] + cpu[2]);
        assert!((r - 0.5).abs() < 0.01, "r = {r}");
    }

    #[test]
    fn hog_with_tight_deadline_cannot_starve() {
        // Even a continuously-runnable task with a tight declared target
        // re-releases each quantum, so a best-effort task still runs once
        // the hog's fresh deadline passes the waiter's.
        let (table, tight, loose) = table_with_deadlines();
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), &[tight], Nanos::ZERO);
        s.add_task(TaskId(2), &[loose], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let mut now = Nanos::ZERO;
        let mut loose_ran = false;
        for _ in 0..500 {
            let p = s.pick(&table, now).unwrap();
            now += p.slice;
            s.charge(p.task, table.root(), p.slice, &table, now);
            if p.task == TaskId(2) {
                loose_ran = true;
            }
        }
        assert!(loose_ran, "best-effort task starved by deadline hog");
    }

    #[test]
    fn rebind_refreshes_deadline() {
        let (table, tight, loose) = table_with_deadlines();
        let mut s = EdfScheduler::new();
        s.add_task(TaskId(1), &[loose], Nanos::ZERO);
        s.add_task(TaskId(2), &[loose], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        s.set_binding(TaskId(2), &[tight], Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
    }

    #[test]
    fn empty_pick_none_and_remove_forgets() {
        let table = ContainerTable::new();
        let mut s = EdfScheduler::new();
        assert!(s.pick(&table, Nanos::ZERO).is_none());
        s.add_task(TaskId(1), &[], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.remove_task(TaskId(1));
        assert!(s.pick(&table, Nanos::ZERO).is_none());
        assert!(!s.is_runnable(TaskId(1)));
    }
}
