// The multi-level scheduler as it stood before its pick became
// incremental, kept verbatim (type renamed, imports adjusted) as the
// differential reference the lockstep tests drive next to
// `sched::MultiLevelScheduler`. Do not edit its logic: it is the
// specification the rewrite is held to.

//! The paper's prototype multi-level scheduler (§5.1): resource containers
//! as resource principals.
//!
//! The container hierarchy is interpreted directly:
//!
//! - **Fixed-share** containers are guaranteed their fraction of the
//!   parent's CPU, enforced by stride scheduling with idle-credit
//!   revocation (an idle child accrues no credit, so guarantees hold over
//!   scheduling-relevant timescales but the scheduler stays
//!   work-conserving).
//! - **Time-shared** siblings share the parent's *remaining* CPU at strict
//!   numeric priority levels; within a level, the runnable task with the
//!   lowest combined decayed usage of its scheduler binding runs (paper
//!   §4.3: "the combined numeric priorities ... possibly taking into
//!   account the recent resource consumption of this set of containers").
//! - Priority **0** is starvable: such work runs only when nothing else in
//!   the system wants the CPU (used by the SYN-flood defense of §5.7).
//! - **CPU limits** are enforced with per-container token buckets over the
//!   limit's window; a container whose chain has an exhausted bucket is
//!   ineligible until it refills (the "resource sandbox" of §5.6).
//!
//! A task's scheduler binding may span several containers — for an
//! event-driven server's thread it usually does — and may even span
//! subtrees; the task is then eligible wherever any of its containers is,
//! and the CPU it consumes is charged to whichever container its *resource
//! binding* names at the time.

use std::collections::HashMap;

use rescon::{ContainerId, ContainerTable, SchedPolicy};
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;

use sched::{CoreScheduler, Pick, TaskId, TokenBucket, UsageDecay};

#[derive(Debug)]
struct MlTask {
    binding: Vec<ContainerId>,
    runnable: bool,
}

/// The container-aware multi-level scheduler (paper §5.1).
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable};
/// use sched::{CoreScheduler, RefMultiLevel, TaskId};
/// use simcore::Nanos;
///
/// let mut table = ContainerTable::new();
/// let high = table.create(None, Attributes::time_shared(20)).unwrap();
/// let low = table.create(None, Attributes::time_shared(10)).unwrap();
///
/// let mut s = RefMultiLevel::new();
/// s.add_task(TaskId(1), &[low], Nanos::ZERO);
/// s.add_task(TaskId(2), &[high], Nanos::ZERO);
/// s.set_runnable(TaskId(1), true, Nanos::ZERO);
/// s.set_runnable(TaskId(2), true, Nanos::ZERO);
///
/// // The higher-priority container's task runs first.
/// assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
/// ```
pub struct RefMultiLevel {
    tasks: HashMap<TaskId, MlTask>,
    /// Tasks eligible at each container (via their scheduler binding).
    container_tasks: HashMap<ContainerId, Vec<TaskId>>,
    /// Stride pass per fixed-share container, in virtual seconds.
    passes: HashMap<ContainerId, f64>,
    /// Stride pass of the time-share pool at each node.
    pool_passes: HashMap<ContainerId, f64>,
    /// Per-node virtual time: the largest pass charged below the node.
    vtimes: HashMap<ContainerId, f64>,
    /// Token buckets for containers with CPU limits.
    buckets: HashMap<ContainerId, TokenBucket>,
    /// Decayed CPU usage per container.
    cusage: HashMap<ContainerId, UsageDecay>,
    quantum: Nanos,
    half_life: Nanos,
}

impl Default for RefMultiLevel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefMultiLevel {
    /// Creates a scheduler with a 1 ms quantum and a 500 ms usage
    /// half-life.
    pub fn new() -> Self {
        Self::with_params(Nanos::from_millis(1), Nanos::from_millis(500))
    }

    /// Creates a scheduler with explicit quantum and usage half-life.
    pub fn with_params(quantum: Nanos, half_life: Nanos) -> Self {
        RefMultiLevel {
            tasks: HashMap::new(),
            container_tasks: HashMap::new(),
            passes: HashMap::new(),
            pool_passes: HashMap::new(),
            vtimes: HashMap::new(),
            buckets: HashMap::new(),
            cusage: HashMap::new(),
            quantum,
            half_life,
        }
    }

    fn detach_binding(&mut self, task: TaskId) {
        if let Some(t) = self.tasks.get(&task) {
            for c in t.binding.clone() {
                if let Some(v) = self.container_tasks.get_mut(&c) {
                    v.retain(|&x| x != task);
                }
            }
        }
    }

    fn attach_binding(&mut self, task: TaskId, binding: &[ContainerId]) {
        for &c in binding {
            let v = self.container_tasks.entry(c).or_default();
            if !v.contains(&task) {
                v.push(task);
            }
        }
        if let Some(t) = self.tasks.get_mut(&task) {
            t.binding = binding.to_vec();
        }
    }

    /// Returns the children of `node` for scheduling purposes; at the root
    /// this includes floating orphans.
    fn node_children(table: &ContainerTable, node: ContainerId) -> Vec<ContainerId> {
        let mut v: Vec<ContainerId> = table.children(node).map(|c| c.to_vec()).unwrap_or_default();
        if node == table.root() {
            v.extend_from_slice(table.floating());
        }
        v
    }

    /// Refreshes every configured CPU-limit bucket and returns the
    /// containers whose bucket is exhausted. Computed once per pick so the
    /// rest of the decision can run without mutable borrows; in the common
    /// case (no limits configured, or none exhausted) the result is empty
    /// and all throttle checks short-circuit.
    fn compute_throttled(&mut self, table: &ContainerTable, now: Nanos) -> Vec<ContainerId> {
        let mut out = Vec::new();
        for (id, c) in table.iter() {
            if let Some(limit) = c.attrs().cpu_limit {
                let eligible = self
                    .buckets
                    .entry(id)
                    .or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
                    .eligible(now);
                if !eligible {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Returns `true` if `c` or any ancestor has an exhausted CPU-limit
    /// bucket (per the precomputed `throttled` set).
    fn is_throttled(table: &ContainerTable, throttled: &[ContainerId], c: ContainerId) -> bool {
        if throttled.is_empty() {
            return false;
        }
        let mut cursor = Some(c);
        while let Some(cur) = cursor {
            if throttled.contains(&cur) {
                return true;
            }
            cursor = table.parent(cur).ok().flatten();
        }
        false
    }

    /// The numeric priority a task presents within a pool: the maximum
    /// priority among its bound, live, unthrottled containers.
    fn task_priority(
        &self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        task: TaskId,
    ) -> Option<u32> {
        let binding = &self.tasks.get(&task)?.binding;
        let mut best: Option<u32> = None;
        for &c in binding {
            if !table.contains(c) || Self::is_throttled(table, throttled, c) {
                continue;
            }
            let prio = match table.policy(c).ok()? {
                SchedPolicy::TimeShared { priority } => priority,
                SchedPolicy::FixedShare { .. } => 10,
            };
            best = Some(best.map_or(prio, |b: u32| b.max(prio)));
        }
        best
    }

    /// Combined decayed usage of the task's scheduler binding (§4.3).
    fn task_combined_usage(&self, task: TaskId, now: Nanos) -> f64 {
        let binding = match self.tasks.get(&task) {
            Some(t) => &t.binding,
            None => return 0.0,
        };
        binding
            .iter()
            .map(|c| self.cusage.get(c).map(|u| u.peek(now)).unwrap_or(0.0))
            .sum()
    }

    /// Gathers the runnable tasks whose binding touches `c`. A time-shared
    /// container has no children (§5.1), so these are all its pool work.
    fn gather_pool_tasks(&self, c: ContainerId, out: &mut Vec<TaskId>) {
        if let Some(list) = self.container_tasks.get(&c) {
            for &t in list {
                if self.tasks.get(&t).map(|x| x.runnable).unwrap_or(false) && !out.contains(&t) {
                    out.push(t);
                }
            }
        }
    }

    /// Returns `true` if the subtree rooted at `c` contains any runnable,
    /// locally-unthrottled work acceptable under the starvation rule.
    fn subtree_has_work(
        &self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        c: ContainerId,
        allow_starvable: bool,
    ) -> bool {
        if throttled.contains(&c) {
            return false;
        }
        if let Some(list) = self.container_tasks.get(&c) {
            for &t in list {
                if !self.tasks.get(&t).map(|x| x.runnable).unwrap_or(false) {
                    continue;
                }
                if allow_starvable {
                    return true;
                }
                if self.task_priority(table, throttled, t).unwrap_or(0) >= 1 {
                    return true;
                }
            }
        }
        if let Ok(children) = table.children(c) {
            for &ch in children {
                if self.subtree_has_work(table, throttled, ch, allow_starvable) {
                    return true;
                }
            }
        }
        false
    }

    /// Picks within the time-share pool `candidates`: strict priority
    /// levels, then minimum combined decayed usage, then lowest id.
    fn pick_from_pool(
        &self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        candidates: &[TaskId],
        now: Nanos,
        allow_starvable: bool,
    ) -> Option<TaskId> {
        let mut best: Option<(u32, f64, TaskId)> = None;
        for &t in candidates {
            let prio = match self.task_priority(table, throttled, t) {
                Some(p) => p,
                None => continue,
            };
            if prio == 0 && !allow_starvable {
                continue;
            }
            let usage = self.task_combined_usage(t, now);
            let better = match best {
                None => true,
                Some((bp, bu, bt)) => {
                    (prio > bp) || (prio == bp && (usage < bu || (usage == bu && t < bt)))
                }
            };
            if better {
                best = Some((prio, usage, t));
            }
        }
        best.map(|(_, _, t)| t)
    }

    /// Recursive pick at a fixed-share node.
    fn pick_node(
        &mut self,
        table: &ContainerTable,
        throttled: &[ContainerId],
        node: ContainerId,
        now: Nanos,
        allow_starvable: bool,
    ) -> Option<TaskId> {
        let children = Self::node_children(table, node);
        let mut fs_with_work: Vec<(ContainerId, f64)> = Vec::new();
        let mut fs_share_total = 0.0;
        let mut pool: Vec<TaskId> = Vec::new();

        // Tasks bound directly to this node join its pool.
        self.gather_pool_tasks(node, &mut pool);
        for ch in children {
            match table.policy(ch) {
                Ok(SchedPolicy::FixedShare { share }) => {
                    fs_share_total += share;
                    if self.subtree_has_work(table, throttled, ch, allow_starvable) {
                        fs_with_work.push((ch, share));
                    }
                }
                Ok(SchedPolicy::TimeShared { .. }) => {
                    self.gather_pool_tasks(ch, &mut pool);
                }
                Err(_) => {}
            }
        }
        // Filter pool: keep tasks that may run under the starvation rule
        // and are not fully throttled.
        let pool: Vec<TaskId> = pool
            .into_iter()
            .filter(|&t| match self.task_priority(table, throttled, t) {
                Some(0) => allow_starvable,
                Some(_) => true,
                None => false,
            })
            .collect();

        let pool_share = (1.0 - fs_share_total).max(0.0);
        let vt = *self.vtimes.get(&node).unwrap_or(&0.0);

        // Decide between fixed-share children and the time-share pool using
        // stride: lowest (clamped) pass runs. A pool with zero share runs
        // only as leftover.
        #[derive(Clone, Copy, PartialEq)]
        enum Choice {
            Fs(ContainerId),
            Pool,
        }
        let mut best: Option<(f64, u8, Choice)> = None;
        for &(ch, share) in &fs_with_work {
            let pass = self.passes.entry(ch).or_insert(vt);
            if *pass < vt {
                *pass = vt;
            }
            let key = (*pass, 0u8, Choice::Fs(ch));
            let better = match best {
                None => true,
                Some((bp, bo, _)) => key.0 < bp || (key.0 == bp && key.1 < bo),
            };
            if better {
                best = Some(key);
            }
            let _ = share;
            // (share is used at charge time, not selection time)
        }
        if !pool.is_empty() {
            if pool_share > 0.0 {
                let pass = self.pool_passes.entry(node).or_insert(vt);
                if *pass < vt {
                    *pass = vt;
                }
                let key = (*pass, 1u8, Choice::Pool);
                let better = match best {
                    None => true,
                    Some((bp, bo, _)) => key.0 < bp || (key.0 == bp && key.1 < bo),
                };
                if better {
                    best = Some(key);
                }
            } else if best.is_none() {
                // Leftover-only pool: runs when no fixed-share child wants
                // the CPU.
                best = Some((vt, 1, Choice::Pool));
            }
        }
        let (sel_pass, _, choice) = best?;
        // The node's virtual time follows the pass of the selected child:
        // children waking from idle join here instead of cashing in credit.
        self.vtimes.insert(node, sel_pass);
        match choice {
            Choice::Fs(ch) => self
                .pick_node(table, throttled, ch, now, allow_starvable)
                .or_else(|| self.pick_from_pool(table, throttled, &pool, now, allow_starvable)),
            Choice::Pool => self.pick_from_pool(table, throttled, &pool, now, allow_starvable),
        }
    }

    /// Returns the decayed usage recorded for a container, for tests.
    pub fn container_usage(&self, c: ContainerId, now: Nanos) -> f64 {
        self.cusage.get(&c).map(|u| u.peek(now)).unwrap_or(0.0)
    }
}

impl CoreScheduler for RefMultiLevel {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.tasks.insert(
            task,
            MlTask {
                binding: Vec::new(),
                runnable: false,
            },
        );
        self.attach_binding(task, binding);
    }

    fn remove_task(&mut self, task: TaskId) {
        self.detach_binding(task);
        self.tasks.remove(&task);
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.detach_binding(task);
        self.attach_binding(task, binding);
    }

    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        if let Some(t) = self.tasks.get_mut(&task) {
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
        self.tasks.get(&task).map(|t| t.runnable).unwrap_or(false)
    }

    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        let root = table.root();
        let throttled = self.compute_throttled(table, now);
        let task = self
            .pick_node(table, &throttled, root, now, false)
            .or_else(|| self.pick_node(table, &throttled, root, now, true))?;
        trace::emit_at(now, || TraceEventKind::SchedPick {
            task: task.0,
            slice: self.quantum,
        });
        Some(Pick {
            task,
            slice: self.quantum,
        })
    }

    fn charge(
        &mut self,
        _task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    ) {
        let dt_sec = dt.as_secs_f64();
        self.cusage
            .entry(container)
            .or_insert_with(|| UsageDecay::new(self.half_life))
            .charge(dt, now);

        // Walk the chain from the charged container to the root, advancing
        // stride passes and draining limit buckets.
        let mut cur = container;
        loop {
            if let Some(limit) = table.attrs(cur).ok().and_then(|a| a.cpu_limit) {
                self.buckets
                    .entry(cur)
                    .or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
                    .consume(dt, now);
            }
            let parent = match table.parent(cur) {
                Ok(Some(p)) => p,
                // Floating containers charge against the root's level.
                Ok(None) if cur != table.root() => table.root(),
                _ => break,
            };
            match table.policy(cur) {
                Ok(SchedPolicy::FixedShare { share }) => {
                    let pass = self.passes.entry(cur).or_insert(0.0);
                    *pass += dt_sec / share.max(1e-6);
                }
                Ok(SchedPolicy::TimeShared { .. }) => {
                    // Time-shared work charges its parent's pool: the parent
                    // is fixed-share (§5.1), and floating containers charge
                    // the root.
                    let children = table
                        .children(parent)
                        .map(|c| c.to_vec())
                        .unwrap_or_default();
                    let fs_sum: f64 = children
                        .iter()
                        .filter_map(|&c| table.policy(c).ok().and_then(|p| p.share()))
                        .sum();
                    let pool_share = (1.0 - fs_sum).max(0.0);
                    if pool_share > 0.0 {
                        let pass = self.pool_passes.entry(parent).or_insert(0.0);
                        *pass += dt_sec / pool_share;
                    }
                }
                Err(_) => {}
            }
            cur = parent;
        }
    }

    fn next_release_time(&mut self, table: &ContainerTable, now: Nanos) -> Option<Nanos> {
        let any_runnable = self.tasks.values().any(|t| t.runnable);
        if !any_runnable {
            return None;
        }
        let mut earliest: Option<Nanos> = None;
        let ids: Vec<ContainerId> = self.buckets.keys().copied().collect();
        for c in ids {
            if !table.contains(c) {
                continue;
            }
            let b = self.buckets.get_mut(&c).expect("bucket exists");
            if !b.eligible(now) {
                let r = b.release_time(now);
                earliest = Some(earliest.map_or(r, |e: Nanos| e.min(r)));
            }
        }
        earliest
    }
}
