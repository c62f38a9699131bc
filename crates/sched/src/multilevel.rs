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
//!
//! A pick visits the runnable tasks, not the container table. Each task
//! caches, per live container of its binding, the priority that container
//! lends it, the node whose time-share pool it joins and its ancestor
//! chain. Unlimited time-shared siblings share one cache entry. The cache
//! survives creations, is patched after the destruction of a childless
//! container and after a binding edit, and is rebuilt after anything
//! else that moves or re-attributes a container
//! ([`reshape_epoch`](ContainerTable::reshape_epoch)). A fixed-share
//! child has work when a runnable task's chain passes through it with no
//! exhausted bucket between. A tie on priority is settled by the lowest id
//! among tasks with equal bindings, else by time-invariant usage keys when
//! they separate the candidates by a wide margin, and only otherwise by
//! summing decayed usages (DESIGN §19).
//!
//! Per-container scheduling state (stride passes, virtual time, limit
//! bucket, decayed usage and its key) sits in a table indexed by the
//! container's arena slot; a dead id's usage outlives the reuse of its
//! slot.

use std::collections::HashMap;
use std::ops::Range;

use rescon::{ContainerId, ContainerTable, CpuLimit, SchedPolicy};
use simcore::slab::IdSlab;
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;

use crate::api::{CoreScheduler, Pick, TaskId};
use crate::bucket::TokenBucket;
use crate::usage_decay::UsageDecay;

/// The slice a pick grants.
const QUANTUM: Nanos = Nanos::from_millis(1);
/// The half-life of a container's decayed usage.
const HALF_LIFE: Nanos = Nanos::from_millis(500);

// Usage keys (DESIGN §19). A key decides a tie only while no exponent
// leaves ±`KEY_SAFE_HALVES` and no nonzero usage is below `KEY_MIN_USAGE`,
// so that every term of both sums is a normal float, and only for
// bindings shorter than `KEY_MAX_BINDING`, for which `KEY_MARGIN` exceeds
// twice the two sums' relative rounding bounds.

/// Half-lives a key's or a usage's exponent may span.
const KEY_SAFE_HALVES: u64 = 900;
/// Half-lives after which a charge moves the reference instant to itself.
const KEY_REBASE_HALVES: u64 = 256;
/// The smallest nonzero usage, in CPU seconds, a key stands for.
const KEY_MIN_USAGE: f64 = 1e-30;
/// The longest binding whose key sum a key decision trusts.
const KEY_MAX_BINDING: usize = 1 << 20;
/// How far, relatively, the runner-up's key sum must exceed the leader's.
const KEY_MARGIN: f64 = 1e-9;

/// A container's decayed usage and its tie key.
#[derive(Debug)]
struct Usage {
    decay: UsageDecay,
    /// `value · 2^((last − t0) / HALF_LIFE)`: the usage as of any instant
    /// `now`, times `2^((now − t0) / HALF_LIFE)`, where `t0` is the slot
    /// table's reference instant. Rewritten at every charge and rebase.
    key: f64,
    /// The key stands for the usage at instants before this one.
    key_expiry: Nanos,
}

impl Usage {
    fn new() -> Self {
        Usage {
            decay: UsageDecay::new(HALF_LIFE),
            key: 0.0,
            key_expiry: Nanos::MAX,
        }
    }

    fn rekey(&mut self, t0: Nanos) {
        let (value, last) = self.decay.raw();
        (self.key, self.key_expiry) = if value == 0.0 {
            (0.0, Nanos::MAX)
        } else if value < KEY_MIN_USAGE {
            (0.0, Nanos::ZERO)
        } else {
            let delta = last.as_nanos() as i128 - t0.as_nanos() as i128;
            let halves = delta as f64 / HALF_LIFE.as_nanos() as f64;
            let expiry = last.saturating_add(HALF_LIFE * KEY_SAFE_HALVES);
            (value * halves.exp2(), expiry)
        };
    }
}

/// A live container of a task's scheduler binding, as the table stood when
/// the task's cache was last synced, or a group of unlimited time-shared
/// siblings.
#[derive(Debug)]
struct Bound {
    /// The priority the container lends the task (10 if fixed-share); a
    /// group's highest.
    prio: u32,
    /// The node whose time-share pool this container's work joins: the
    /// container itself if it is fixed-share.
    pool: ContainerId,
    /// Where in `MlTask::chain` the container (a group's first member) and
    /// its ancestors sit.
    path: Range<usize>,
}

/// Where a member of a task's cached binding counts.
#[derive(Clone, Copy, Debug)]
enum Mark {
    /// Nowhere: the container is dead.
    Dead,
    /// In sibling group `group`, lending `prio`.
    Grouped { group: u32, prio: u32 },
    /// As an entry of its own in `MlTask::bound`.
    Own,
}

/// The unlimited time-shared members of a task's binding with one parent.
#[derive(Debug)]
struct Group {
    parent: Option<ContainerId>,
    /// The group's entry in `MlTask::bound`.
    entry: usize,
}

/// How many members of sibling group `group` lend priority `prio`.
#[derive(Debug)]
struct Lend {
    group: u32,
    prio: u32,
    count: u32,
}

#[derive(Debug, Default)]
struct MlTask {
    /// The binding as the kernel gave it, verbatim: a tie sums its usages
    /// in this order.
    binding: Vec<ContainerId>,
    runnable: bool,
    /// `binding` differs from the binding the cache describes.
    edited: bool,
    /// The table's reshape epoch and destroyed count when the cache was
    /// last synced; `None` until it is built.
    synced: Option<(u64, u64)>,
    /// The binding the cache describes, each member with where it counts.
    members: Vec<(ContainerId, Mark)>,
    bound: Vec<Bound>,
    chain: Vec<ContainerId>,
    groups: Vec<Group>,
    /// Per sibling group, the priorities its members lend.
    lends: Vec<Lend>,
    /// Where the members a patch adds count; kept to reuse its allocation.
    added: Vec<Mark>,
    /// The highest `prio` in `bound`.
    max_prio: Option<u32>,
}

impl MlTask {
    fn chain(&self, b: &Bound) -> &[ContainerId] {
        &self.chain[b.path.clone()]
    }

    /// Brings the binding cache up to the table and the binding. A cache
    /// outlives creations; after destructions of childless containers it
    /// uncounts the members found dead, and after a binding edit it
    /// counts the members added and uncounts those removed. Anything else
    /// rebuilds it (DESIGN §19).
    fn refresh(&mut self, table: &ContainerTable) {
        let now = (table.reshape_epoch(), table.destroyed_count());
        if !self.edited && self.synced == Some(now) {
            return;
        }
        let synced = self.synced;
        let patched = synced.is_some_and(|(reshape, destroyed)| {
            reshape == now.0 && (destroyed == now.1 || self.sweep(table))
        }) && (!self.edited || self.patch(table));
        if !patched {
            self.rebuild(table);
        }
        self.edited = false;
        self.synced = Some(now);
        self.max_prio = self.bound.iter().map(|b| b.prio).max();
        if patched && cfg!(debug_assertions) {
            let mut fresh = MlTask {
                binding: self.binding.clone(),
                ..MlTask::default()
            };
            fresh.refresh(table);
            assert_eq!(self.entries(), fresh.entries(), "patched binding cache");
            assert_eq!(self.max_prio, fresh.max_prio, "patched binding cache");
        }
    }

    /// Builds the binding cache from scratch.
    fn rebuild(&mut self, table: &ContainerTable) {
        self.bound.clear();
        self.chain.clear();
        self.groups.clear();
        self.lends.clear();
        self.members.clear();
        for i in 0..self.binding.len() {
            let c = self.binding[i];
            let mark = self.count(table, c);
            self.members.push((c, mark));
        }
    }

    /// Counts member `c` into the cache and says where it counts.
    fn count(&mut self, table: &ContainerTable, c: ContainerId) -> Mark {
        let Ok(node) = table.container(c) else {
            return Mark::Dead;
        };
        let root = table.root();
        let (prio, fixed) = match node.attrs().policy {
            SchedPolicy::TimeShared { priority } => (priority, false),
            SchedPolicy::FixedShare { .. } => (10, true),
        };
        let parent = node.parent();
        // An unlimited time-shared container never marks a child (its pool
        // is its parent) and is never throttled itself, so its siblings
        // join, mark and throttle alike: they share the first one's entry,
        // at the highest priority among them.
        let mark = if !fixed && c != root && node.attrs().cpu_limit.is_none() {
            let found = self.groups.iter().position(|g| g.parent == parent);
            let group = found.unwrap_or(self.groups.len()) as u32;
            match self
                .lends
                .iter_mut()
                .find(|l| l.group == group && l.prio == prio)
            {
                Some(l) => l.count += 1,
                None => self.lends.push(Lend {
                    group,
                    prio,
                    count: 1,
                }),
            }
            if let Some(g) = found {
                let b = &mut self.bound[self.groups[g].entry];
                b.prio = b.prio.max(prio);
                return Mark::Grouped { group, prio };
            }
            self.groups.push(Group {
                parent,
                entry: self.bound.len(),
            });
            Mark::Grouped { group, prio }
        } else {
            Mark::Own
        };
        // A time-shared container has no children (§5.1): its work joins
        // its parent's pool, or the root's if it floats.
        let pool = if fixed || c == root {
            c
        } else {
            parent.unwrap_or(root)
        };
        let start = self.chain.len();
        let mut up = Some(c);
        while let Some(a) = up {
            self.chain.push(a);
            up = table.parent(a).ok().flatten();
        }
        let path = start..self.chain.len();
        self.bound.push(Bound { prio, pool, path });
        mark
    }

    /// Takes a member that counted at `mark` out of the cache. Returns
    /// `false` if that leaves the cache wrong: the member had an entry of
    /// its own, or was the last of its group.
    fn uncount(&mut self, mark: Mark) -> bool {
        let Mark::Grouped { group, prio } = mark else {
            return matches!(mark, Mark::Dead);
        };
        let i = self
            .lends
            .iter()
            .position(|l| l.group == group && l.prio == prio)
            .expect("a grouped member is counted");
        self.lends[i].count -= 1;
        if self.lends[i].count == 0 {
            self.lends.swap_remove(i);
            let rest = self.lends.iter().filter(|l| l.group == group);
            let Some(top) = rest.map(|l| l.prio).max() else {
                return false;
            };
            self.bound[self.groups[group as usize].entry].prio = top;
        }
        true
    }

    /// Uncounts the members that died since the cache was synced. Returns
    /// `false` if the cache needs a rebuild.
    fn sweep(&mut self, table: &ContainerTable) -> bool {
        for i in 0..self.members.len() {
            let (c, mark) = self.members[i];
            if matches!(mark, Mark::Dead) || table.contains(c) {
                continue;
            }
            self.members[i].1 = Mark::Dead;
            if !self.uncount(mark) {
                return false;
            }
        }
        true
    }

    /// Patches the cache from the members between the common prefix and
    /// the common suffix of the cached binding and the new one: counts
    /// those added first, so that a group one member leaves as another
    /// joins is never empty, then uncounts those removed. Returns `false`
    /// if the cache needs a rebuild.
    fn patch(&mut self, table: &ContainerTable) -> bool {
        let (old, new) = (&self.members, &self.binding);
        let prefix = old.iter().zip(new).take_while(|(o, n)| o.0 == **n).count();
        let suffix = old[prefix..]
            .iter()
            .rev()
            .zip(new[prefix..].iter().rev())
            .take_while(|(o, n)| o.0 == **n)
            .count();
        let removed = prefix..old.len() - suffix;
        let added = prefix..new.len() - suffix;
        let mut marks = std::mem::take(&mut self.added);
        marks.clear();
        for i in added.clone() {
            marks.push(self.count(table, self.binding[i]));
        }
        let kept = removed.clone().all(|i| self.uncount(self.members[i].1));
        if kept {
            let added = self.binding[added].iter().copied().zip(marks.drain(..));
            self.members.splice(removed, added);
        }
        self.added = marks;
        kept
    }

    /// The cache's entries as a set: priority, pool, the member unless
    /// the entry is a group's (whose first member is incidental), and the
    /// ancestors.
    fn entries(&self) -> Vec<(u32, ContainerId, Option<ContainerId>, &[ContainerId])> {
        let mut v: Vec<_> = self
            .bound
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let chain = self.chain(b);
                let own = !self.groups.iter().any(|g| g.entry == i);
                (b.prio, b.pool, own.then_some(chain[0]), &chain[1..])
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The numeric priority the task presents within a pool: the maximum
    /// priority among its bound, live containers whose chain holds no
    /// throttled container.
    fn priority(&self, throttled: &[ContainerId]) -> Option<u32> {
        if throttled.is_empty() {
            return self.max_prio;
        }
        self.bound
            .iter()
            .filter(|b| !self.chain(b).iter().any(|c| throttled.contains(c)))
            .map(|b| b.prio)
            .max()
    }
}

/// The scheduling state of one container.
#[derive(Debug)]
struct SlotRec {
    /// The container the state belongs to.
    id: ContainerId,
    /// Stride pass if fixed-share, in virtual seconds.
    pass: Option<f64>,
    /// Stride pass of the time-share pool at this node.
    pool_pass: Option<f64>,
    /// Virtual time: the largest pass charged below this node.
    vtime: f64,
    /// Token bucket, made when a pick or charge first finds a CPU limit.
    bucket: Option<TokenBucket>,
    /// Decayed CPU usage, made at the first charge.
    usage: Option<Usage>,
    /// The table epoch `fs_children` describes.
    fs_epoch: Option<u64>,
    /// Fixed-share children in child order (at the root, then the floating
    /// ones), filled when two of them compete.
    fs_children: Vec<ContainerId>,
}

/// Per-container state, indexed by arena slot and checked against the
/// full id.
///
/// A live container claims its slot's record at its first write. If a
/// dead id held it, that id's decayed usage moves to `retired`: a binding
/// may still name the dead id, and a priority tie still counts its usage
/// (DESIGN §19). The rest of a dead id's state is never read again.
#[derive(Debug, Default)]
struct SlotTable {
    recs: Vec<Option<SlotRec>>,
    retired: HashMap<ContainerId, Usage>,
    /// The reference instant of every usage key.
    t0: Nanos,
    /// The latest instant a charge ended.
    latest: Nanos,
}

impl SlotTable {
    /// The record of `c`, if `c` holds its slot.
    fn get(&self, c: ContainerId) -> Option<&SlotRec> {
        self.recs
            .get(c.slot() as usize)?
            .as_ref()
            .filter(|r| r.id == c)
    }

    /// The record of live container `c`, claimed from the dead id holding
    /// the slot if need be.
    fn claim(&mut self, c: ContainerId) -> &mut SlotRec {
        let i = c.slot() as usize;
        if i >= self.recs.len() {
            self.recs.resize_with(i + 1, || None);
        }
        let rec = &mut self.recs[i];
        if rec.as_ref().is_none_or(|r| r.id != c) {
            debug_assert!(
                rec.as_ref().is_none_or(|r| r.id < c),
                "{c:?} is older than its slot's holder, so it is dead"
            );
            if let Some(SlotRec {
                id, usage: Some(u), ..
            }) = rec.take()
            {
                self.retired.insert(id, u);
            }
        }
        rec.get_or_insert_with(|| SlotRec {
            id: c,
            pass: None,
            pool_pass: None,
            vtime: 0.0,
            bucket: None,
            usage: None,
            fs_epoch: None,
            fs_children: Vec::new(),
        })
    }

    /// The usage record of `c`, dead ids included.
    fn usage_of(&self, c: ContainerId) -> Option<&Usage> {
        // Ids that share a slot order by generation: a newer holder
        // retired `c`'s usage.
        match self.recs.get(c.slot() as usize) {
            Some(Some(r)) if r.id == c => r.usage.as_ref(),
            Some(Some(r)) if r.id > c => self.retired.get(&c),
            _ => None,
        }
    }

    /// The decayed usage of `c` at `now`, dead ids included.
    fn usage(&self, c: ContainerId, now: Nanos) -> f64 {
        self.usage_of(c).map_or(0.0, |u| u.decay.peek(now))
    }

    /// The usage key of `c` and the instant it expires, dead ids included.
    fn key(&self, c: ContainerId) -> (f64, Nanos) {
        self.usage_of(c)
            .map_or((0.0, Nanos::MAX), |u| (u.key, u.key_expiry))
    }

    /// Adds `dt` of CPU ending at `now` to live container `c`'s decayed
    /// usage and rewrites its key, first moving the reference instant to
    /// `now` (and rewriting every key) once it lags too far behind.
    fn charge_usage(&mut self, c: ContainerId, dt: Nanos, now: Nanos) {
        self.latest = self.latest.max(now);
        if now.saturating_sub(self.t0) > HALF_LIFE * KEY_REBASE_HALVES {
            self.t0 = now;
            let live = self
                .recs
                .iter_mut()
                .flatten()
                .filter_map(|r| r.usage.as_mut());
            for u in live.chain(self.retired.values_mut()) {
                u.rekey(now);
            }
        }
        let t0 = self.t0;
        let u = self.claim(c).usage.get_or_insert_with(Usage::new);
        u.decay.charge(dt, now);
        u.rekey(t0);
    }
}

/// The container-aware multi-level scheduler (paper §5.1).
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable};
/// use sched::{CoreScheduler, MultiLevelScheduler, TaskId};
/// use simcore::Nanos;
///
/// let mut table = ContainerTable::new();
/// let high = table.create(None, Attributes::time_shared(20)).unwrap();
/// let low = table.create(None, Attributes::time_shared(10)).unwrap();
///
/// let mut s = MultiLevelScheduler::new();
/// s.add_task(TaskId(1), &[low], Nanos::ZERO);
/// s.add_task(TaskId(2), &[high], Nanos::ZERO);
/// s.set_runnable(TaskId(1), true, Nanos::ZERO);
/// s.set_runnable(TaskId(2), true, Nanos::ZERO);
///
/// // The higher-priority container's task runs first.
/// assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
/// ```
pub struct MultiLevelScheduler {
    tasks: IdSlab<TaskId, MlTask>,
    /// The runnable tasks, in no particular order.
    runnable: Vec<TaskId>,
    /// Per-container state.
    slots: SlotTable,
    /// The table epoch `limited` describes.
    epoch: Option<u64>,
    /// The live CPU-limited containers.
    limited: Vec<(ContainerId, CpuLimit)>,
    /// Per pick: the containers whose bucket is exhausted.
    throttled: Vec<ContainerId>,
    /// Per pick: the runnable tasks with their priority.
    cands: Vec<(TaskId, Option<u32>)>,
    /// Per node: its fixed-share children with eligible work.
    marked: Vec<ContainerId>,
    /// Pool members, with priority, of the nodes on the pick path; each
    /// node's members sit above its parent's.
    pool: Vec<(TaskId, u32)>,
}

impl Default for MultiLevelScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiLevelScheduler {
    /// Creates a scheduler with a 1 ms quantum and a 500 ms usage
    /// half-life.
    pub fn new() -> Self {
        MultiLevelScheduler {
            tasks: IdSlab::new(),
            runnable: Vec::new(),
            slots: SlotTable::default(),
            epoch: None,
            limited: Vec::new(),
            throttled: Vec::new(),
            cands: Vec::new(),
            marked: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Brings the per-table caches up to the table's epoch, refills every
    /// CPU-limit bucket (noting the exhausted ones), and lists the
    /// runnable tasks with the priority each presents this pick.
    fn prepare(&mut self, table: &ContainerTable, now: Nanos) {
        if self.epoch != Some(table.epoch()) {
            self.epoch = Some(table.epoch());
            self.limited.clear();
            if table.cpu_limited_count() > 0 {
                self.limited.extend(
                    table
                        .iter()
                        .filter_map(|(id, c)| c.attrs().cpu_limit.map(|l| (id, l))),
                );
            }
        }
        self.throttled.clear();
        for &(id, limit) in &self.limited {
            let eligible = self
                .slots
                .claim(id)
                .bucket
                .get_or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
                .eligible(now);
            if !eligible {
                self.throttled.push(id);
            }
        }
        self.cands.clear();
        for &t in &self.runnable {
            let task = self.tasks.get_mut(t).expect("runnable task is registered");
            task.refresh(table);
            self.cands.push((t, task.priority(&self.throttled)));
        }
    }

    fn binding(&self, task: TaskId) -> &[ContainerId] {
        &self
            .tasks
            .get(task)
            .expect("candidate is registered")
            .binding
    }

    /// Combined decayed usage of the task's scheduler binding (§4.3).
    fn task_combined_usage(&self, task: TaskId, now: Nanos) -> f64 {
        self.binding(task)
            .iter()
            .map(|&c| self.slots.usage(c, now))
            .sum()
    }

    /// Picks among the pool members `self.pool[base..]`: strict priority
    /// levels, then minimum combined decayed usage, then lowest id.
    fn pick_from_pool(&self, base: usize, now: Nanos) -> Option<TaskId> {
        let pool = &self.pool[base..];
        let top = pool.iter().map(|&(_, prio)| prio).max()?;
        let level = pool
            .iter()
            .filter(move |&&(_, prio)| prio == top)
            .map(|&(t, _)| t);
        let first = level.clone().next()?;
        // Equal bindings sum to bit-equal usages, so the lowest id wins.
        if level
            .clone()
            .all(|t| t == first || self.binding(t) == self.binding(first))
        {
            return level.min();
        }
        if let Some(t) = self.tie_by_keys(level.clone(), now) {
            debug_assert_eq!(
                t,
                self.tie_by_usage(level, now),
                "usage keys misjudged a tie at {now:?}"
            );
            return Some(t);
        }
        Some(self.tie_by_usage(level, now))
    }

    /// The tie's winner by usage keys: `None` unless every key stands for
    /// its usage at `now` and the lowest key sum beats every other by
    /// `KEY_MARGIN`, so the exact sums order the same way (DESIGN §19).
    fn tie_by_keys(&self, level: impl Iterator<Item = TaskId>, now: Nanos) -> Option<TaskId> {
        if self.slots.latest > now {
            return None;
        }
        let mut lead: Option<(f64, TaskId)> = None;
        let mut runner_up = f64::INFINITY;
        for t in level {
            let binding = self.binding(t);
            if binding.len() >= KEY_MAX_BINDING {
                return None;
            }
            let mut sum = 0.0;
            for &c in binding {
                let (key, expiry) = self.slots.key(c);
                if now >= expiry {
                    return None;
                }
                sum += key;
            }
            match lead {
                Some((l, _)) if sum >= l => runner_up = runner_up.min(sum),
                _ => {
                    runner_up = lead.map_or(runner_up, |(l, _)| runner_up.min(l));
                    lead = Some((sum, t));
                }
            }
        }
        let (sum, t) = lead?;
        (runner_up > sum * (1.0 + KEY_MARGIN)).then_some(t)
    }

    /// The tie's winner by combined decayed usage, then lowest id.
    fn tie_by_usage(&self, level: impl Iterator<Item = TaskId>, now: Nanos) -> TaskId {
        level
            .map(|t| (self.task_combined_usage(t, now), t))
            .reduce(|best, (usage, t)| {
                if usage < best.0 || (usage == best.0 && t < best.1) {
                    (usage, t)
                } else {
                    best
                }
            })
            .map(|(_, t)| t)
            .expect("a tie has candidates")
    }

    /// Recursive pick at a fixed-share node.
    fn pick_node(
        &mut self,
        table: &ContainerTable,
        node: ContainerId,
        now: Nanos,
        allow_starvable: bool,
    ) -> Option<TaskId> {
        let root = table.root();
        let base = self.pool.len();
        self.marked.clear();
        for &(t, prio) in &self.cands {
            // Work counts under the starvation rule; a task with no
            // eligible container counts only as starvable work and joins
            // no pool.
            if !allow_starvable && prio.unwrap_or(0) == 0 {
                continue;
            }
            let task = self.tasks.get(t).expect("candidate is registered");
            let mut join = prio;
            for b in &task.bound {
                if let Some(p) = join.filter(|_| b.pool == node) {
                    self.pool.push((t, p));
                    join = None;
                }
                // The container's path into `node`: `chain[..below]` ends
                // at the child of `node` it lies under. Floating subtrees
                // hang under the root.
                let chain = task.chain(b);
                let below = match chain[1..].iter().position(|&a| a == node) {
                    Some(i) => i + 1,
                    None if node == root && chain.last() != Some(&root) => chain.len(),
                    None => continue,
                };
                // A child with children is fixed-share, and so is one that
                // is its own pool.
                let child = chain[below - 1];
                if (below > 1 || b.pool == child)
                    && !self.marked.contains(&child)
                    && !chain[..below].iter().any(|c| self.throttled.contains(c))
                {
                    self.marked.push(child);
                }
            }
        }
        if self.marked.len() > 1 {
            let rec = self.slots.claim(node);
            if rec.fs_epoch != Some(table.epoch()) {
                rec.fs_epoch = Some(table.epoch());
                rec.fs_children = fixed_share_children(table, node);
            }
            let order = &rec.fs_children;
            self.marked
                .sort_unstable_by_key(|c| order.iter().position(|o| o == c));
        }

        // Decide between fixed-share children and the time-share pool using
        // stride: lowest (clamped) pass runs, the first child in child
        // order on a tie, and the pool only if strictly lower. A pool with
        // zero share runs only as leftover.
        #[derive(Clone, Copy)]
        enum Choice {
            Fs(ContainerId),
            Pool,
        }
        let vt = self.slots.get(node).map_or(0.0, |r| r.vtime);
        let mut best: Option<(f64, Choice)> = None;
        for &ch in &self.marked {
            let pass = self.slots.claim(ch).pass.get_or_insert(vt);
            if *pass < vt {
                *pass = vt;
            }
            if best.is_none_or(|(bp, _)| *pass < bp) {
                best = Some((*pass, Choice::Fs(ch)));
            }
        }
        if self.pool.len() > base {
            let mut fs_share_total = table.fixed_share_sum(node).unwrap_or_default();
            if node == root {
                // Floating orphans compete as the root's children, and
                // take their share out of its pool here (not in `charge`).
                for &f in table.floating() {
                    if let Some(share) = table.policy(f).ok().and_then(|p| p.share()) {
                        fs_share_total += share;
                    }
                }
            }
            if (1.0 - fs_share_total).max(0.0) > 0.0 {
                let pass = self.slots.claim(node).pool_pass.get_or_insert(vt);
                if *pass < vt {
                    *pass = vt;
                }
                if best.is_none_or(|(bp, _)| *pass < bp) {
                    best = Some((*pass, Choice::Pool));
                }
            } else if best.is_none() {
                // Leftover-only pool: runs when no fixed-share child wants
                // the CPU.
                best = Some((vt, Choice::Pool));
            }
        }
        let (sel_pass, choice) = best?;
        // The node's virtual time follows the pass of the selected child:
        // children waking from idle join here instead of cashing in credit.
        self.slots.claim(node).vtime = sel_pass;
        let picked = match choice {
            Choice::Fs(ch) => self
                .pick_node(table, ch, now, allow_starvable)
                .or_else(|| self.pick_from_pool(base, now)),
            Choice::Pool => self.pick_from_pool(base, now),
        };
        self.pool.truncate(base);
        picked
    }

    /// Returns the decayed usage recorded for a container, for tests.
    pub fn container_usage(&self, c: ContainerId, now: Nanos) -> f64 {
        self.slots.usage(c, now)
    }
}

/// The fixed-share children of `node` in child order; the root's are
/// followed by the floating fixed-share orphans.
fn fixed_share_children(table: &ContainerTable, node: ContainerId) -> Vec<ContainerId> {
    let floating = if node == table.root() {
        table.floating()
    } else {
        &[]
    };
    let children = table.children(node).unwrap_or(&[]);
    children
        .iter()
        .chain(floating)
        .copied()
        .filter(|&c| table.policy(c).is_ok_and(|p| p.share().is_some()))
        .collect()
}

impl CoreScheduler for MultiLevelScheduler {
    fn add_task(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        self.remove_task(task);
        let binding = binding.to_vec();
        self.tasks.insert(
            task,
            MlTask {
                binding,
                ..MlTask::default()
            },
        );
    }

    fn remove_task(&mut self, task: TaskId) {
        if self.tasks.remove(task).is_some_and(|t| t.runnable) {
            self.runnable.retain(|&t| t != task);
        }
    }

    fn set_binding(&mut self, task: TaskId, binding: &[ContainerId], _now: Nanos) {
        if let Some(t) = self.tasks.get_mut(task) {
            if t.binding != binding {
                t.binding.clear();
                t.binding.extend_from_slice(binding);
                t.edited = true;
            }
        }
    }

    fn set_runnable(&mut self, task: TaskId, runnable: bool, now: Nanos) {
        let Some(t) = self.tasks.get_mut(task) else {
            return;
        };
        if t.runnable == runnable {
            return;
        }
        trace::emit_at(now, || TraceEventKind::ThreadState {
            task: task.0,
            runnable,
        });
        t.runnable = runnable;
        if runnable {
            self.runnable.push(task);
        } else {
            self.runnable.retain(|&t| t != task);
        }
    }

    fn is_runnable(&self, task: TaskId) -> bool {
        self.tasks.get(task).is_some_and(|t| t.runnable)
    }

    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        let root = table.root();
        self.prepare(table, now);
        let task = self
            .pick_node(table, root, now, false)
            .or_else(|| self.pick_node(table, root, now, true))?;
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
        _task: TaskId,
        container: ContainerId,
        dt: Nanos,
        table: &ContainerTable,
        now: Nanos,
    ) {
        let dt_sec = dt.as_secs_f64();
        // The kernel charges the table first, so `container` is live and
        // may claim its slot.
        self.slots.charge_usage(container, dt, now);

        // Walk the chain from the charged container to the root, advancing
        // stride passes and draining limit buckets.
        let mut cur = container;
        while let Ok(node) = table.container(cur) {
            if let Some(limit) = node.attrs().cpu_limit {
                self.slots
                    .claim(cur)
                    .bucket
                    .get_or_insert_with(|| TokenBucket::new(limit.fraction, limit.window))
                    .consume(dt, now);
            }
            let parent = match node.parent() {
                Some(p) => p,
                // Floating containers charge against the root's level.
                None if cur != table.root() => table.root(),
                None => break,
            };
            match node.attrs().policy {
                SchedPolicy::FixedShare { share } => {
                    let pass = self.slots.claim(cur).pass.get_or_insert(0.0);
                    *pass += dt_sec / share.max(1e-6);
                }
                SchedPolicy::TimeShared { .. } => {
                    // Time-shared work charges its parent's pool: the parent
                    // is fixed-share (§5.1), and floating containers charge
                    // the root.
                    let fs_sum = table.fixed_share_sum(parent).unwrap_or_default();
                    let pool_share = (1.0 - fs_sum).max(0.0);
                    if pool_share > 0.0 {
                        let pass = self.slots.claim(parent).pool_pass.get_or_insert(0.0);
                        *pass += dt_sec / pool_share;
                    }
                }
            }
            cur = parent;
        }
    }

    fn next_release_time(&mut self, table: &ContainerTable, now: Nanos) -> Option<Nanos> {
        if self.runnable.is_empty() {
            return None;
        }
        let mut earliest: Option<Nanos> = None;
        for rec in self.slots.recs.iter_mut().flatten() {
            let Some(b) = rec.bucket.as_mut() else {
                continue;
            };
            if table.contains(rec.id) && !b.eligible(now) {
                let r = b.release_time(now);
                earliest = Some(earliest.map_or(r, |e: Nanos| e.min(r)));
            }
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescon::Attributes;

    fn run_shares(
        table: &mut ContainerTable,
        s: &mut MultiLevelScheduler,
        bindings: &[(TaskId, ContainerId)],
        total: Nanos,
    ) -> HashMap<TaskId, Nanos> {
        let mut consumed: HashMap<TaskId, Nanos> = HashMap::new();
        let mut now = Nanos::ZERO;
        while now < total {
            match s.pick(table, now) {
                Some(p) => {
                    let dt = p.slice;
                    let c = bindings
                        .iter()
                        .find(|&&(t, _)| t == p.task)
                        .map(|&(_, c)| c)
                        .expect("binding known");
                    table.charge_cpu(c, dt).unwrap();
                    s.charge(p.task, c, dt, table, now + dt);
                    *consumed.entry(p.task).or_insert(Nanos::ZERO) += dt;
                    now += dt;
                }
                None => {
                    let next = s
                        .next_release_time(table, now)
                        .unwrap_or(now + Nanos::from_millis(1));
                    now = next.max(now + Nanos::from_micros(10));
                }
            }
        }
        consumed
    }

    #[test]
    fn strict_priority_between_timeshare_containers() {
        let mut table = ContainerTable::new();
        let hi = table.create(None, Attributes::time_shared(20)).unwrap();
        let lo = table.create(None, Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[lo], Nanos::ZERO);
        s.add_task(TaskId(2), &[hi], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        for _ in 0..5 {
            assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
        }
        s.set_runnable(TaskId(2), false, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn priority_zero_is_starvable() {
        let mut table = ContainerTable::new();
        let bg = table.create(None, Attributes::time_shared(0)).unwrap();
        let fg = table.create(None, Attributes::time_shared(1)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[bg], Nanos::ZERO);
        s.add_task(TaskId(2), &[fg], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
        // Only when the foreground blocks does the starvable task run.
        s.set_runnable(TaskId(2), false, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn fixed_shares_are_respected() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::fixed_share(0.7)).unwrap();
        let b = table.create(None, Attributes::fixed_share(0.3)).unwrap();
        let ca = table.create(Some(a), Attributes::time_shared(10)).unwrap();
        let cb = table.create(Some(b), Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[ca], Nanos::ZERO);
        s.add_task(TaskId(2), &[cb], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), ca), (TaskId(2), cb)],
            Nanos::from_secs(2),
        );
        let total = got[&TaskId(1)] + got[&TaskId(2)];
        let share_a = got[&TaskId(1)].ratio(total);
        assert!((share_a - 0.7).abs() < 0.03, "share_a = {share_a}");
    }

    #[test]
    fn work_conserving_when_one_side_idle() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::fixed_share(0.1)).unwrap();
        let ca = table.create(Some(a), Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[ca], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        // Only a 10%-share container is active; it still gets the whole CPU.
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), ca)],
            Nanos::from_millis(100),
        );
        assert_eq!(got[&TaskId(1)], Nanos::from_millis(100));
    }

    #[test]
    fn cpu_limit_throttles_subtree() {
        let mut table = ContainerTable::new();
        let limited = table
            .create(
                None,
                Attributes::fixed_share(0.3).with_cpu_limit(0.3, Nanos::from_millis(100)),
            )
            .unwrap();
        let cl = table
            .create(Some(limited), Attributes::time_shared(10))
            .unwrap();
        let free = table.create(None, Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[cl], Nanos::ZERO);
        s.add_task(TaskId(2), &[free], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), cl), (TaskId(2), free)],
            Nanos::from_secs(2),
        );
        let total = got[&TaskId(1)] + got[&TaskId(2)];
        let limited_share = got[&TaskId(1)].ratio(total);
        assert!(
            (limited_share - 0.3).abs() < 0.03,
            "limited share = {limited_share}"
        );
    }

    #[test]
    fn cpu_limit_binds_even_when_alone() {
        // §5.6: the sandbox holds even with no competing work... the CPU
        // just idles. A lone task limited to 10% gets ~10%.
        let mut table = ContainerTable::new();
        let limited = table
            .create(
                None,
                Attributes::fixed_share(0.5).with_cpu_limit(0.1, Nanos::from_millis(50)),
            )
            .unwrap();
        let cl = table
            .create(Some(limited), Attributes::time_shared(10))
            .unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[cl], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        let got = run_shares(&mut table, &mut s, &[(TaskId(1), cl)], Nanos::from_secs(1));
        let share = got[&TaskId(1)].ratio(Nanos::from_secs(1));
        assert!((share - 0.1).abs() < 0.02, "share = {share}");
    }

    #[test]
    fn multiplexed_task_priority_is_max_of_binding() {
        let mut table = ContainerTable::new();
        let hi = table.create(None, Attributes::time_shared(20)).unwrap();
        let lo = table.create(None, Attributes::time_shared(5)).unwrap();
        let other = table.create(None, Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        // Task 1 serves both hi and lo (an event-driven server).
        s.add_task(TaskId(1), &[lo, hi], Nanos::ZERO);
        s.add_task(TaskId(2), &[other], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn rebinding_changes_eligibility() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::time_shared(10)).unwrap();
        let b = table.create(None, Attributes::time_shared(20)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[a], Nanos::ZERO);
        s.add_task(TaskId(2), &[a], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        s.set_runnable(TaskId(2), true, Nanos::ZERO);
        // Rebind task 2 to the high-priority container: it must win.
        s.set_binding(TaskId(2), &[b], Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(2));
        // And back again: now tie at same level, lower usage/id wins.
        s.set_binding(TaskId(2), &[a], Nanos::ZERO);
        assert_eq!(s.pick(&table, Nanos::ZERO).unwrap().task, TaskId(1));
    }

    #[test]
    fn nested_shares_compose() {
        // Guest A (50%) subdivides into 80/20; guest B (50%).
        let mut table = ContainerTable::new();
        let ga = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        let gb = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        let a1 = table
            .create(Some(ga), Attributes::fixed_share(0.8))
            .unwrap();
        let a2 = table
            .create(Some(ga), Attributes::fixed_share(0.2))
            .unwrap();
        let ca1 = table.create(Some(a1), Attributes::time_shared(10)).unwrap();
        let ca2 = table.create(Some(a2), Attributes::time_shared(10)).unwrap();
        let cb = table.create(Some(gb), Attributes::time_shared(10)).unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[ca1], Nanos::ZERO);
        s.add_task(TaskId(2), &[ca2], Nanos::ZERO);
        s.add_task(TaskId(3), &[cb], Nanos::ZERO);
        for t in 1..=3 {
            s.set_runnable(TaskId(t), true, Nanos::ZERO);
        }
        let got = run_shares(
            &mut table,
            &mut s,
            &[(TaskId(1), ca1), (TaskId(2), ca2), (TaskId(3), cb)],
            Nanos::from_secs(4),
        );
        let total: Nanos = got.values().copied().sum();
        let s1 = got[&TaskId(1)].ratio(total);
        let s2 = got[&TaskId(2)].ratio(total);
        let s3 = got[&TaskId(3)].ratio(total);
        assert!((s1 - 0.4).abs() < 0.03, "s1 = {s1}");
        assert!((s2 - 0.1).abs() < 0.03, "s2 = {s2}");
        assert!((s3 - 0.5).abs() < 0.03, "s3 = {s3}");
    }

    #[test]
    fn next_release_time_reports_bucket_refill() {
        let mut table = ContainerTable::new();
        let limited = table
            .create(
                None,
                Attributes::fixed_share(0.5).with_cpu_limit(0.5, Nanos::from_millis(10)),
            )
            .unwrap();
        let cl = table
            .create(Some(limited), Attributes::time_shared(10))
            .unwrap();
        let mut s = MultiLevelScheduler::new();
        s.add_task(TaskId(1), &[cl], Nanos::ZERO);
        s.set_runnable(TaskId(1), true, Nanos::ZERO);
        // Exhaust the bucket.
        let mut now = Nanos::ZERO;
        while let Some(p) = s.pick(&table, now) {
            let dt = p.slice;
            table.charge_cpu(cl, dt).unwrap();
            s.charge(p.task, cl, dt, &table, now + dt);
            now += dt;
            if now > Nanos::from_millis(50) {
                break;
            }
        }
        if s.pick(&table, now).is_none() {
            let rel = s.next_release_time(&table, now).expect("throttled");
            assert!(rel > now);
        }
    }
}
