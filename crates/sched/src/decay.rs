//! The baseline decay-usage time-sharing scheduler ("unmodified system").
//!
//! This models the classic 4.3BSD/Digital UNIX scheduler the paper compares
//! against: the resource principal is the *process*, recent CPU usage
//! decays a process's precedence, and the minimum-usage runnable entity
//! runs next. In the simulated kernel a process is represented by its
//! default container, so usage is keyed by the first container of a task's
//! binding: a process's application thread and its LRP kernel network
//! thread share one usage accumulator, exactly as LRP charges protocol
//! processing to the receiving process. Tasks registered with no binding
//! (unit tests, bare tasks) fall back to per-task accounting.

use std::collections::HashMap;

use rescon::{ContainerId, ContainerTable};
use simcore::slab::IdSlab;
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;

use crate::api::{CoreScheduler, Pick, TaskId};
use crate::usage_decay::UsageDecay;

/// The slice a pick grants.
const QUANTUM: Nanos = Nanos::from_millis(10);
/// The half-life of a principal's decayed usage.
const HALF_LIFE: Nanos = Nanos::from_millis(500);

/// The accounting key: the process's container, or the task itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum UsageKey {
    Principal(ContainerId),
    Bare(TaskId),
}

/// Per-task scheduler state.
#[derive(Debug)]
struct TaskState {
    runnable: bool,
    key: UsageKey,
    /// Index of the task's accumulator in `usages` — the hot `charge` and
    /// `pick` paths go straight to the slot without hashing the key.
    usage: u32,
    last_scheduled: Nanos,
}

/// One usage accumulator. Slots are append-only: a retired slot (its last
/// sharing task removed) goes dead but its index is never reused, so the
/// `usage` indices cached in [`TaskState`] can never dangle.
#[derive(Debug)]
struct UsageSlot {
    decay: UsageDecay,
}

/// A classic decay-usage time-sharing scheduler over processes.
///
/// Among continuously runnable principals, minimum-decayed-usage selection
/// equalizes long-run *charged* CPU rates; principals that block often (an
/// event-driven server at moderate load) keep low usage and therefore get
/// scheduled promptly on wake-up — the textbook interactive preference.
///
/// # Examples
///
/// ```
/// use rescon::ContainerTable;
/// use sched::{CoreScheduler, DecayUsageScheduler, TaskId};
/// use simcore::Nanos;
///
/// let table = ContainerTable::new();
/// let mut s = DecayUsageScheduler::new();
/// s.add_task(TaskId(1), &[], Nanos::ZERO);
/// s.set_runnable(TaskId(1), true, Nanos::ZERO);
/// let pick = s.pick(&table, Nanos::ZERO).unwrap();
/// assert_eq!(pick.task, TaskId(1));
/// ```
pub struct DecayUsageScheduler {
    tasks: IdSlab<TaskId, TaskState>,
    /// Accumulator storage; `index` maps a live key to its slot. Only
    /// task add/remove/re-bind touches the map — `charge` and `pick` use
    /// the index cached per task.
    usages: Vec<UsageSlot>,
    index: HashMap<UsageKey, u32>,
}

impl Default for DecayUsageScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl DecayUsageScheduler {
    /// Creates a scheduler with a 10 ms quantum and 500 ms usage
    /// half-life (typical UNIX time-sharing constants).
    pub fn new() -> Self {
        DecayUsageScheduler {
            tasks: IdSlab::new(),
            usages: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn key_for(task: TaskId, binding: &[ContainerId]) -> UsageKey {
        match binding.first() {
            Some(&c) => UsageKey::Principal(c),
            None => UsageKey::Bare(task),
        }
    }

    fn usage_of(&self, key: UsageKey, now: Nanos) -> f64 {
        self.index
            .get(&key)
            .map(|&i| self.usages[i as usize].decay.peek(now))
            .unwrap_or(0.0)
    }

    /// Returns the slot index for `key`, appending a fresh accumulator if
    /// the key has none.
    fn slot_for(&mut self, key: UsageKey, decay: UsageDecay) -> u32 {
        match self.index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.usages.len() as u32;
                self.usages.push(UsageSlot { decay });
                self.index.insert(key, i);
                i
            }
        }
    }

    /// Returns the decayed usage charged against a task's principal, for
    /// tests and reports.
    pub fn task_usage(&self, task: TaskId, now: Nanos) -> Option<f64> {
        self.tasks
            .get(task)
            .map(|t| self.usages[t.usage as usize].decay.peek(now))
    }
}

impl CoreScheduler for DecayUsageScheduler {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos) {
        let key = Self::key_for(task, binding);
        let usage = if !self.index.contains_key(&key) {
            // BSD semantics: a forked child inherits its parent's estimated
            // CPU usage (`p_estcpu`), so spawning fresh processes is not a
            // way to jump the scheduling queue. New principals start at
            // the mean decayed usage of the currently runnable ones.
            let runnable: Vec<f64> = self
                .tasks
                .values()
                .filter(|t| t.runnable)
                .map(|t| self.usage_of(t.key, now))
                .collect();
            let mut usage = UsageDecay::new(HALF_LIFE);
            if !runnable.is_empty() {
                let mean = runnable.iter().sum::<f64>() / runnable.len() as f64;
                usage.charge(Nanos::from_nanos((mean * 1e9) as u64), now);
            }
            self.slot_for(key, usage)
        } else {
            self.index[&key]
        };
        self.tasks.insert(
            task,
            TaskState {
                runnable: false,
                key,
                usage,
                last_scheduled: now,
            },
        );
    }

    fn remove_task(&mut self, task: TaskId) {
        if let Some(t) = self.tasks.remove(task) {
            // Retire the accumulator only when no other task shares it.
            // The slot itself stays (dead) so cached indices never shift;
            // a later task re-using the key gets a fresh slot, exactly as
            // a map removal plus re-insert used to.
            let shared = self.tasks.values().any(|x| x.key == t.key);
            if !shared {
                self.index.remove(&t.key);
            }
        }
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], now: Nanos) {
        // The baseline scheduler does not understand container *sets*; it
        // only re-derives the task's principal.
        let key = Self::key_for(task, binding);
        let fresh = UsageDecay::new(HALF_LIFE);
        if self.tasks.get(task).is_some_and(|t| t.key != key) {
            let usage = self.slot_for(key, fresh);
            if let Some(t) = self.tasks.get_mut(task) {
                t.key = key;
                t.usage = usage;
            }
            let _ = now;
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

    fn pick(&mut self, _table: &ContainerTable, now: Nanos) -> Option<Pick> {
        // Fast path: with a single runnable task the minimum is that task
        // regardless of its decayed usage, so the `powf` behind
        // [`Self::usage_of`] (side-effect free) can be skipped entirely.
        // An event-driven server at moderate load spends most picks here.
        let mut runnable = 0usize;
        let mut only: Option<TaskId> = None;
        for (id, t) in self.tasks.iter() {
            if t.runnable {
                runnable += 1;
                only = Some(id);
                if runnable > 1 {
                    break;
                }
            }
        }
        let task = match (runnable, only) {
            (0, _) => return None,
            (1, Some(id)) => id,
            _ => {
                let mut best: Option<(f64, Nanos, TaskId)> = None;
                for (id, t) in self.tasks.iter() {
                    if !t.runnable {
                        continue;
                    }
                    let usage = self.usages[t.usage as usize].decay.peek(now);
                    let key = (usage, t.last_scheduled, id);
                    match best {
                        None => best = Some(key),
                        Some(b) if (key.0, key.1, key.2) < b => best = Some(key),
                        _ => {}
                    }
                }
                best.expect("at least two runnable tasks").2
            }
        };
        self.tasks
            .get_mut(task)
            .expect("picked task exists")
            .last_scheduled = now;
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
        _table: &ContainerTable,
        now: Nanos,
    ) {
        if let Some(t) = self.tasks.get(task) {
            self.usages[t.usage as usize].decay.charge(dt, now);
        }
    }

    fn next_release_time(&mut self, _table: &ContainerTable, _now: Nanos) -> Option<Nanos> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u32) -> (ContainerTable, DecayUsageScheduler) {
        let table = ContainerTable::new();
        let mut s = DecayUsageScheduler::new();
        for i in 0..n {
            s.add_task(TaskId(i), &[], Nanos::ZERO);
            s.set_runnable(TaskId(i), true, Nanos::ZERO);
        }
        (table, s)
    }

    #[test]
    fn empty_pick_is_none() {
        let table = ContainerTable::new();
        let mut s = DecayUsageScheduler::new();
        assert!(s.pick(&table, Nanos::ZERO).is_none());
    }

    #[test]
    fn blocked_tasks_not_picked() {
        let (table, mut s) = setup(2);
        s.set_runnable(TaskId(0), false, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
        assert!(!s.is_runnable(TaskId(0)));
        assert!(s.is_runnable(TaskId(1)));
    }

    #[test]
    fn min_usage_wins() {
        let (table, mut s) = setup(2);
        let root = table.root();
        s.charge(TaskId(0), root, Nanos::from_millis(50), &table, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn equal_usage_round_robins_by_last_scheduled() {
        let (table, mut s) = setup(2);
        let first = s.pick(&table, Nanos::from_micros(1)).unwrap().task;
        // Without charging, the other task (older last_scheduled) goes next.
        let second = s.pick(&table, Nanos::from_micros(2)).unwrap().task;
        assert_ne!(first, second);
    }

    #[test]
    fn long_run_shares_equalize() {
        // Two always-runnable CPU hogs must converge to ~equal CPU.
        let (table, mut s) = setup(2);
        let root = table.root();
        let mut now = Nanos::ZERO;
        let mut cpu = [Nanos::ZERO; 2];
        for _ in 0..20_000 {
            let p = s.pick(&table, now).unwrap();
            let dt = p.slice.min(Nanos::from_millis(1));
            s.charge(p.task, root, dt, &table, now + dt);
            cpu[p.task.0 as usize] += dt;
            now += dt;
        }
        let ratio = cpu[0].ratio(cpu[0] + cpu[1]);
        assert!((ratio - 0.5).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn light_user_vs_hog_gets_priority_on_wake() {
        // A task that uses 1% duty cycle must be picked immediately when it
        // wakes even though a hog is runnable.
        let (table, mut s) = setup(2);
        let root = table.root();
        let mut now = Nanos::ZERO;
        // Hog accumulates usage.
        for _ in 0..100 {
            s.charge(TaskId(0), root, Nanos::from_millis(1), &table, now);
            now += Nanos::from_millis(1);
        }
        // Light task wakes.
        s.set_runnable(TaskId(1), true, now);
        assert_eq!(s.pick(&table, now).unwrap().task, TaskId(1));
    }

    #[test]
    fn remove_task_forgets_it() {
        let (table, mut s) = setup(1);
        s.remove_task(TaskId(0));
        assert!(s.pick(&table, Nanos::ZERO).is_none());
        assert!(!s.is_runnable(TaskId(0)));
    }

    #[test]
    fn threads_of_one_principal_share_usage() {
        // Two tasks bound to the same container (a process's app thread
        // and its kernel network thread) must be charged as one principal,
        // competing as one unit against an independent hog.
        let mut table = ContainerTable::new();
        let proc_a = table
            .create(None, rescon::Attributes::time_shared(10))
            .unwrap();
        let proc_b = table
            .create(None, rescon::Attributes::time_shared(10))
            .unwrap();
        let mut s = DecayUsageScheduler::new();
        s.add_task(TaskId(1), &[proc_a], Nanos::ZERO); // A's app thread
        s.add_task(TaskId(2), &[proc_a], Nanos::ZERO); // A's kthread
        s.add_task(TaskId(3), &[proc_b], Nanos::ZERO); // B
        for t in 1..=3 {
            s.set_runnable(TaskId(t), true, Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        let mut a_cpu = Nanos::ZERO;
        let mut total = Nanos::ZERO;
        for _ in 0..20_000 {
            let p = s.pick(&table, now).unwrap();
            let dt = Nanos::from_millis(1);
            let c = if p.task == TaskId(3) { proc_b } else { proc_a };
            s.charge(p.task, c, dt, &table, now + dt);
            if p.task != TaskId(3) {
                a_cpu += dt;
            }
            total += dt;
            now += dt;
        }
        // Process A (two tasks) and process B (one task) split ~50/50.
        let share = a_cpu.ratio(total);
        assert!((share - 0.5).abs() < 0.05, "A share = {share}");
    }

    #[test]
    fn fresh_principal_inherits_mean_usage() {
        let (table, mut s) = setup(2);
        let root = table.root();
        let mut now = Nanos::ZERO;
        for _ in 0..100 {
            s.charge(TaskId(0), root, Nanos::from_millis(2), &table, now);
            s.charge(TaskId(1), root, Nanos::from_millis(2), &table, now);
            now += Nanos::from_millis(4);
        }
        // A newcomer must NOT undercut the incumbents.
        s.add_task(TaskId(9), &[], now);
        s.set_runnable(TaskId(9), true, now);
        let incumbent = s.task_usage(TaskId(0), now).unwrap();
        let newcomer = s.task_usage(TaskId(9), now).unwrap();
        assert!(
            newcomer > incumbent * 0.5,
            "newcomer {newcomer} vs incumbent {incumbent}"
        );
    }
}
