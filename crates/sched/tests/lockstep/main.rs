//! Lockstep differential tests: the incremental `MultiLevelScheduler`
//! against `RefMultiLevel`, the scheduler it replaced, kept verbatim.
//!
//! Both are driven through the same `CoreScheduler` call sequence over one
//! container table. Every result must be equal: the picks, the next
//! release time, and the decayed usage of every container ever created,
//! bit for bit. The named tests pin behaviours that an incremental pick
//! could easily "fix" by accident.

mod ref_multilevel;

use std::fmt::Debug;

use proptest::prelude::*;
use ref_multilevel::RefMultiLevel;
use rescon::{Attributes, ContainerId, ContainerTable};
use sched::{CoreScheduler, MultiLevelScheduler, Pick, TaskId};
use simcore::Nanos;

/// The reference and the rewrite, fed identical calls.
struct Lockstep {
    reference: RefMultiLevel,
    rewrite: MultiLevelScheduler,
    /// Names the step under test in failure messages.
    context: String,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            reference: RefMultiLevel::new(),
            rewrite: MultiLevelScheduler::new(),
            context: String::new(),
        }
    }

    /// Applies `call` to both schedulers and asserts equal results.
    fn both<R: PartialEq + Debug>(
        &mut self,
        mut call: impl FnMut(&mut dyn CoreScheduler) -> R,
    ) -> R {
        let want = call(&mut self.reference);
        let got = call(&mut self.rewrite);
        assert_eq!(
            got, want,
            "rewrite diverged from the reference at {}",
            self.context
        );
        want
    }

    fn pick(&mut self, table: &ContainerTable, now: Nanos) -> Option<Pick> {
        self.both(|s| s.pick(table, now))
    }

    /// Picks, then charges the quantum to `container` as the kernel would.
    fn run_quantum(
        &mut self,
        table: &ContainerTable,
        container: impl Fn(TaskId) -> ContainerId,
        now: &mut Nanos,
    ) -> Option<TaskId> {
        let pick = self.pick(table, *now)?;
        *now += pick.slice;
        let t = *now;
        self.both(|s| s.charge(pick.task, container(pick.task), pick.slice, table, t));
        Some(pick.task)
    }

    fn assert_usages(&self, ids: &[ContainerId], now: Nanos) {
        for &c in ids {
            assert_eq!(
                self.rewrite.container_usage(c, now).to_bits(),
                self.reference.container_usage(c, now).to_bits(),
                "usage of {c:?} diverged at {}",
                self.context
            );
        }
    }
}

fn ts(table: &mut ContainerTable, parent: Option<ContainerId>, prio: u32) -> ContainerId {
    table.create(parent, Attributes::time_shared(prio)).unwrap()
}

/// A destroyed container that a binding still names keeps counting its
/// decayed usage when two tasks tie on priority. The kernel drops dead
/// ids only at the next rebind, and the kernel network thread's binding
/// is rebuilt from the stack's pending principals, which destruction does
/// not purge, so a dead id can even come back into a binding.
#[test]
fn dead_container_in_binding_counts_its_usage_in_a_tie() {
    let mut table = ContainerTable::new();
    let a = ts(&mut table, None, 10);
    let b = ts(&mut table, None, 10);
    let dead = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[a, dead], zero));
    s.both(|s| s.add_task(TaskId(2), &[b], zero));
    let now = Nanos::from_millis(1);
    s.both(|s| s.charge(TaskId(1), dead, Nanos::from_millis(5), &table, now));
    s.both(|s| s.charge(TaskId(2), b, Nanos::from_millis(3), &table, now));
    assert!(table.drop_descriptor_ref(dead).unwrap());
    s.both(|s| s.set_runnable(TaskId(1), true, now));
    s.both(|s| s.set_runnable(TaskId(2), true, now));
    // Task 1's only live container is unused, but the dead one's 5 ms
    // outweigh task 2's 3 ms.
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(2)));
    // Rebinding the dead id back in (as the network thread does) keeps it.
    s.both(|s| s.set_binding(TaskId(1), &[dead, a], now));
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(2)));
    s.both(|s| s.set_binding(TaskId(1), &[a], now));
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(1)));
    s.assert_usages(&[a, b, dead], now);
}

/// A floating fixed-share container counts in the root's pool share when
/// a pick compares the pool with the root's fixed-share children, but not
/// when `charge` advances the root pool's pass. This is the behaviour the
/// goldens were recorded with; DESIGN lists it as an open inconsistency.
#[test]
fn floating_fixed_share_counts_in_root_pool_share_at_pick_only() {
    for (share, pool_quanta) in [(1.0, 0), (0.5, 200)] {
        let mut table = ContainerTable::new();
        let fs = table.create(None, Attributes::fixed_share(share)).unwrap();
        let inner = ts(&mut table, Some(fs), 10);
        table.set_parent(fs, None).unwrap();
        let pooled = ts(&mut table, None, 10);
        let mut s = Lockstep::new();
        let zero = Nanos::ZERO;
        s.both(|s| s.add_task(TaskId(1), &[inner], zero));
        s.both(|s| s.add_task(TaskId(2), &[pooled], zero));
        s.both(|s| s.set_runnable(TaskId(1), true, zero));
        s.both(|s| s.set_runnable(TaskId(2), true, zero));
        let home = |t: TaskId| if t == TaskId(1) { inner } else { pooled };
        let mut now = zero;
        let mut ran_pool = 0;
        for _ in 0..300 {
            if s.run_quantum(&table, home, &mut now) == Some(TaskId(2)) {
                ran_pool += 1;
            }
        }
        // A whole-machine floating share leaves the pool leftover CPU
        // only. At half, the pick sees a half-share pool while `charge`
        // advances the pool's pass at full share, so the pool gets two
        // thirds rather than half.
        assert_eq!(ran_pool, pool_quanta, "floating share {share}");
        s.assert_usages(&[fs, inner, pooled], now);
    }
}

/// A runnable task whose binding names only destroyed containers is never
/// picked, even as starvable work on an otherwise idle CPU. (The
/// work-conservation property of the scheduler protocol must allow this.)
#[test]
fn task_bound_only_to_destroyed_containers_is_never_picked() {
    let mut table = ContainerTable::new();
    let gone = ts(&mut table, None, 10);
    let live = ts(&mut table, None, 0);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[gone], zero));
    s.both(|s| s.set_runnable(TaskId(1), true, zero));
    assert!(table.drop_descriptor_ref(gone).unwrap());
    assert_eq!(s.pick(&table, zero), None);
    assert_eq!(s.both(|s| s.next_release_time(&table, zero)), None);
    s.both(|s| s.add_task(TaskId(2), &[live], zero));
    s.both(|s| s.set_runnable(TaskId(2), true, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
}

/// A dead id keeps its decayed usage after a newer container takes its
/// arena slot: a binding may still name the dead id, and a priority tie
/// still counts it.
#[test]
fn dead_id_keeps_its_usage_when_a_new_container_takes_its_slot() {
    let mut table = ContainerTable::new();
    let a = ts(&mut table, None, 10);
    let b = ts(&mut table, None, 10);
    let dead = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[a, dead], zero));
    s.both(|s| s.add_task(TaskId(2), &[b], zero));
    let now = Nanos::from_millis(1);
    s.both(|s| s.charge(TaskId(1), dead, Nanos::from_millis(5), &table, now));
    s.both(|s| s.charge(TaskId(2), b, Nanos::from_millis(3), &table, now));
    assert!(table.drop_descriptor_ref(dead).unwrap());
    let heir = ts(&mut table, None, 10);
    assert_eq!(heir.slot(), dead.slot());
    s.both(|s| s.charge(TaskId(0), heir, Nanos::from_millis(1), &table, now));
    s.both(|s| s.set_runnable(TaskId(1), true, now));
    s.both(|s| s.set_runnable(TaskId(2), true, now));
    // The dead id's 5 ms still outweigh task 2's 3 ms.
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(2)));
    s.assert_usages(&[a, b, dead, heir], now);
}

/// A CPU-limited time-shared container keeps a binding entry of its own
/// among unlimited siblings: once its bucket runs dry, the priority it
/// lends goes, while theirs stays.
#[test]
fn throttled_sibling_stops_lending_its_priority() {
    let mut table = ContainerTable::new();
    let parent = table.create(None, Attributes::fixed_share(0.5)).unwrap();
    let low = ts(&mut table, Some(parent), 5);
    let limited = table
        .create(
            Some(parent),
            Attributes::time_shared(20).with_cpu_limit(0.1, Nanos::from_millis(5)),
        )
        .unwrap();
    let other = ts(&mut table, Some(parent), 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[low, limited], zero));
    s.both(|s| s.add_task(TaskId(2), &[other], zero));
    s.both(|s| s.set_runnable(TaskId(1), true, zero));
    s.both(|s| s.set_runnable(TaskId(2), true, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    // 2 ms against a 0.5 ms bucket: only `low`'s 5 is left, below 10.
    let now = Nanos::from_millis(2);
    s.both(|s| s.charge(TaskId(1), limited, Nanos::from_millis(2), &table, now));
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(2)));
    s.assert_usages(&[low, limited, other], now);
}

/// A permuted binding is not an equal one: its usages are summed in
/// another order, which can differ in the last bit. In binding order,
/// 0.1 + 0.2 + 0.3 s sums to one ulp above 0.6, and 0.3 + 0.2 + 0.1 s to
/// exactly 0.6, so the higher id wins.
#[test]
fn permuted_binding_sums_in_its_own_order() {
    let mut table = ContainerTable::new();
    let a = ts(&mut table, None, 10);
    let b = ts(&mut table, None, 10);
    let c = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[a, b, c], zero));
    s.both(|s| s.add_task(TaskId(2), &[c, b, a], zero));
    let now = Nanos::from_secs(1);
    for (id, ms) in [(a, 100), (b, 200), (c, 300)] {
        s.both(|s| s.charge(TaskId(0), id, Nanos::from_millis(ms), &table, now));
    }
    let sum = |binding: &[ContainerId]| -> f64 {
        binding
            .iter()
            .map(|&id| s.rewrite.container_usage(id, now))
            .sum()
    };
    assert!(sum(&[a, b, c]) > sum(&[c, b, a]));
    s.both(|s| s.set_runnable(TaskId(1), true, now));
    s.both(|s| s.set_runnable(TaskId(2), true, now));
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(2)));
    s.assert_usages(&[a, b, c], now);
}

/// Two distinct bindings with bit-equal combined usage tie exactly: the
/// lower id wins, whichever task became runnable first.
#[test]
fn distinct_bindings_with_equal_usage_go_to_the_lower_id() {
    let mut table = ContainerTable::new();
    let a = ts(&mut table, None, 10);
    let idle = ts(&mut table, None, 10);
    let b = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[a, idle], zero));
    s.both(|s| s.add_task(TaskId(2), &[b], zero));
    let now = Nanos::from_millis(3);
    s.both(|s| s.charge(TaskId(1), a, Nanos::from_millis(2), &table, now));
    s.both(|s| s.charge(TaskId(2), b, Nanos::from_millis(2), &table, now));
    s.both(|s| s.set_runnable(TaskId(2), true, now));
    s.both(|s| s.set_runnable(TaskId(1), true, now));
    for later in [now, now + Nanos::from_millis(700)] {
        assert_eq!(s.pick(&table, later).map(|p| p.task), Some(TaskId(1)));
    }
    s.assert_usages(&[a, idle, b], now);
}

/// A charge 128 s (256 half-lives) after the scheduler's reference
/// instant moves that instant and rewrites every usage key, a dead id's
/// included. A container charged once long before still weighs almost
/// nothing in the tie that follows; a key left against the old instant
/// would make it outweigh a fresh 1 ms.
#[test]
fn tie_after_a_rebase_weighs_keys_written_before_it() {
    for retire in [false, true] {
        let mut table = ContainerTable::new();
        let old = ts(&mut table, None, 10);
        let fresh = ts(&mut table, None, 10);
        let busy = ts(&mut table, None, 10);
        let mut s = Lockstep::new();
        let zero = Nanos::ZERO;
        s.both(|s| s.add_task(TaskId(1), &[fresh, old], zero));
        s.both(|s| s.add_task(TaskId(2), &[busy], zero));
        let early = Nanos::from_secs(1);
        s.both(|s| s.charge(TaskId(1), old, Nanos::from_millis(10), &table, early));
        let mut ids = vec![old, fresh, busy];
        if retire {
            assert!(table.drop_descriptor_ref(old).unwrap());
            let heir = ts(&mut table, None, 10);
            assert_eq!(heir.slot(), old.slot());
            s.both(|s| s.charge(TaskId(0), heir, Nanos::from_millis(1), &table, early));
            ids.push(heir);
        }
        let late = Nanos::from_secs(129);
        s.both(|s| s.charge(TaskId(2), busy, Nanos::from_millis(1), &table, late));
        s.both(|s| s.set_runnable(TaskId(1), true, late));
        s.both(|s| s.set_runnable(TaskId(2), true, late));
        assert_eq!(
            s.pick(&table, late).map(|p| p.task),
            Some(TaskId(1)),
            "retired: {retire}"
        );
        s.assert_usages(&ids, late);
    }
}

/// Usage keys stand in for usages only while every term of both sums is
/// a normal float. At 550 s, 1 ms charged at 1 ms has decayed through
/// 1,100 half-lives to exactly zero, as has 1.01 ms, so the two tie and
/// the lower id wins; their keys, written against the reference instant
/// a charge at 387 s set, are still normal and 1% apart.
#[test]
fn usage_decayed_past_the_float_range_ties_exactly() {
    let mut table = ContainerTable::new();
    let heavier = ts(&mut table, None, 10);
    let lighter = ts(&mut table, None, 10);
    let clock = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[heavier], zero));
    s.both(|s| s.add_task(TaskId(2), &[lighter], zero));
    let early = Nanos::from_millis(1);
    s.both(|s| s.charge(TaskId(1), heavier, Nanos::from_micros(1010), &table, early));
    s.both(|s| s.charge(TaskId(2), lighter, Nanos::from_micros(1000), &table, early));
    // Each charge lands more than 256 half-lives after the last reference
    // instant, so each moves it.
    for secs in [129, 258, 387] {
        let at = Nanos::from_secs(secs);
        s.both(|s| s.charge(TaskId(0), clock, Nanos::from_micros(1), &table, at));
    }
    let now = Nanos::from_secs(550);
    assert_eq!(s.rewrite.container_usage(lighter, now), 0.0);
    s.both(|s| s.set_runnable(TaskId(2), true, now));
    s.both(|s| s.set_runnable(TaskId(1), true, now));
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(1)));
    s.assert_usages(&[heavier, lighter, clock], now);
}

/// A usage charged after the pick's instant is read undecayed, not grown
/// back to that instant: 1 ms charged at 10 s outweighs nothing at 9 s
/// but 1.5 ms charged at 9 s.
#[test]
fn usage_charged_after_the_pick_reads_undecayed() {
    let mut table = ContainerTable::new();
    let later = ts(&mut table, None, 10);
    let now_charged = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[later], zero));
    s.both(|s| s.add_task(TaskId(2), &[now_charged], zero));
    let now = Nanos::from_secs(9);
    let ten = Nanos::from_secs(10);
    s.both(|s| s.charge(TaskId(1), later, Nanos::from_millis(1), &table, ten));
    s.both(|s| {
        s.charge(
            TaskId(2),
            now_charged,
            Nanos::from_micros(1500),
            &table,
            now,
        )
    });
    s.both(|s| s.set_runnable(TaskId(1), true, now));
    s.both(|s| s.set_runnable(TaskId(2), true, now));
    assert_eq!(s.pick(&table, now).map(|p| p.task), Some(TaskId(1)));
    s.assert_usages(&[later, now_charged], now);
}

/// A binding edit that removes the only member lending its sibling
/// group's top priority lowers the group's priority to the next member's.
#[test]
fn edit_removing_a_groups_only_top_member_lowers_its_priority() {
    let mut table = ContainerTable::new();
    let low = ts(&mut table, None, 5);
    let top = ts(&mut table, None, 20);
    let low2 = ts(&mut table, None, 5);
    let mid = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[low, top, low2], zero));
    s.both(|s| s.add_task(TaskId(2), &[mid], zero));
    s.both(|s| s.set_runnable(TaskId(1), true, zero));
    s.both(|s| s.set_runnable(TaskId(2), true, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    s.both(|s| s.set_binding(TaskId(1), &[low, low2], zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    // Back in at the end, and out again from the middle.
    s.both(|s| s.set_binding(TaskId(1), &[low, low2, top], zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    s.both(|s| s.set_binding(TaskId(1), &[low, low2], zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    // In with another member in one edit, then out alone: each member
    // added by one patch keeps its own priority.
    s.both(|s| s.set_binding(TaskId(1), &[low], zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    s.both(|s| s.set_binding(TaskId(1), &[low, top, low2], zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    s.both(|s| s.set_binding(TaskId(1), &[low, low2], zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    s.assert_usages(&[low, top, low2, mid], zero);
}

/// A bound container that dies between two picks, with no rebind in
/// between, stops lending its priority at the second pick, whether it
/// shared a sibling group, was the last of its group, or had an entry of
/// its own (CPU-limited or fixed-share).
#[test]
fn bound_childless_container_destroyed_between_picks_stops_lending() {
    let mut table = ContainerTable::new();
    let low = ts(&mut table, None, 5);
    let top = ts(&mut table, None, 20);
    let alone = ts(&mut table, None, 15);
    table.set_parent(alone, None).unwrap();
    let limited = table
        .create(
            None,
            Attributes::time_shared(18).with_cpu_limit(0.5, Nanos::from_millis(5)),
        )
        .unwrap();
    let mid = ts(&mut table, None, 16);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[low, top, limited, alone], zero));
    s.both(|s| s.add_task(TaskId(2), &[mid], zero));
    s.both(|s| s.set_runnable(TaskId(1), true, zero));
    s.both(|s| s.set_runnable(TaskId(2), true, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    // `top` shared its group with `low`.
    assert!(table.drop_descriptor_ref(top).unwrap());
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    // `limited` had an entry of its own, and lent 18 to `alone`'s 15.
    assert!(table.drop_descriptor_ref(limited).unwrap());
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    // `alone` was the last of its group.
    assert!(table.drop_descriptor_ref(alone).unwrap());
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    assert!(table.drop_descriptor_ref(mid).unwrap());
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    s.assert_usages(&[low, top, alone, limited, mid], zero);
}

/// A fixed-share or CPU-limited member has a binding-cache entry of its
/// own; an edit that adds one and a later edit that drops it again must
/// both show in the picks.
#[test]
fn edit_adding_then_dropping_a_member_with_its_own_entry() {
    let mut table = ContainerTable::new();
    let low = ts(&mut table, None, 5);
    let mid = ts(&mut table, None, 10);
    let limited = table
        .create(
            None,
            Attributes::time_shared(20).with_cpu_limit(0.5, Nanos::from_millis(5)),
        )
        .unwrap();
    let fixed = table.create(None, Attributes::fixed_share(0.5)).unwrap();
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &[low], zero));
    s.both(|s| s.add_task(TaskId(2), &[mid], zero));
    s.both(|s| s.set_runnable(TaskId(1), true, zero));
    s.both(|s| s.set_runnable(TaskId(2), true, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    for own in [limited, fixed] {
        s.both(|s| s.set_binding(TaskId(1), &[low, own], zero));
        assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
        s.both(|s| s.set_binding(TaskId(1), &[low], zero));
        assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    }
    s.assert_usages(&[low, mid, limited, fixed], zero);
}

/// An edit that replaces every member of a 40-member binding, and then
/// half of them, is patched like a short one, and the picks still agree.
#[test]
fn edit_replacing_every_member_of_a_long_binding() {
    let mut table = ContainerTable::new();
    let first: Vec<ContainerId> = (0..40).map(|i| ts(&mut table, None, i % 20)).collect();
    let second: Vec<ContainerId> = (0..40).map(|i| ts(&mut table, None, 1 + i % 5)).collect();
    let mid = ts(&mut table, None, 10);
    let mut s = Lockstep::new();
    let zero = Nanos::ZERO;
    s.both(|s| s.add_task(TaskId(1), &first, zero));
    s.both(|s| s.add_task(TaskId(2), &[mid], zero));
    s.both(|s| s.set_runnable(TaskId(1), true, zero));
    s.both(|s| s.set_runnable(TaskId(2), true, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    s.both(|s| s.set_binding(TaskId(1), &second, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(2)));
    // Half of each: no common prefix or suffix, and back above 10.
    let mixed: Vec<ContainerId> = first[20..].iter().chain(&second[..20]).copied().collect();
    s.both(|s| s.set_binding(TaskId(1), &mixed, zero));
    assert_eq!(s.pick(&table, zero).map(|p| p.task), Some(TaskId(1)));
    s.assert_usages(&[first, second].concat(), zero);
}

/// One step of a random call sequence. Selectors index the live
/// containers, the live fixed-share ones, or every id ever created,
/// modulo their length.
#[derive(Clone, Debug)]
enum Op {
    /// Create a container under a live fixed-share node, or floating.
    Create {
        parent: Option<usize>,
        attrs: AttrSpec,
    },
    /// Drop a live container's only reference: it dies, and its children
    /// float.
    Release {
        sel: usize,
    },
    /// Charge a live container, release it, and create a container that
    /// takes its arena slot.
    Recycle {
        sel: usize,
        micros: u32,
        parent: Option<usize>,
        attrs: AttrSpec,
    },
    /// Move a live container under a live fixed-share node, or float it.
    Reparent {
        sel: usize,
        parent: Option<usize>,
    },
    SetAttrs {
        sel: usize,
        attrs: AttrSpec,
    },
    /// Register an unregistered task.
    AddTask {
        task: u32,
        binding: Binding,
    },
    RemoveTask {
        task: u32,
    },
    SetBinding {
        task: u32,
        binding: Binding,
    },
    SetRunnable {
        task: u32,
        runnable: bool,
    },
    /// Charge CPU to a live container, ending now.
    Charge {
        sel: usize,
        micros: u32,
    },
    /// Run `quanta` picks as the kernel does, charging each slice to the
    /// first live container of the picked task's binding.
    Run {
        quanta: u32,
    },
    Advance {
        micros: u32,
    },
    /// Bind `task` to `from`'s binding, reshaped by `how`, and wake it, so
    /// that ties between equal, permuted and overlapping bindings come up.
    ShareBinding {
        task: u32,
        from: u32,
        how: Reshape,
        sel: usize,
        member: Member,
    },
    /// Create two time-shared siblings under a live fixed-share node, or
    /// floating, the first CPU-limited; bind `task` to both in the given
    /// order, wake it, and charge the limited one a whole window, so its
    /// bucket runs dry while the other keeps lending its priority.
    ThrottledSibling {
        parent: Option<usize>,
        prios: (u32, u32),
        limit_pct: u8,
        limited_first: bool,
        task: u32,
    },
}

/// Up to 12 members, many of them children of one fixed-share node.
#[derive(Clone, Debug)]
struct Binding {
    /// Selects the live fixed-share node whose children `Sibling` names.
    parent: usize,
    members: Vec<Member>,
}

/// How `Op::ShareBinding` changes the binding it copies; `sel` picks a
/// member or a rotation.
#[derive(Clone, Copy, Debug)]
enum Reshape {
    Same,
    /// Rotated by `sel`, or reversed where that leaves it as it was.
    Permute,
    /// With `member` appended.
    Add,
    /// Without one member, unless it is the only one.
    Drop,
    /// With one member moved to the front, as the kernel network thread's
    /// binding changes when it starts a packet.
    ToFront,
}

#[derive(Clone, Copy, Debug)]
enum Member {
    /// Any id ever created, dead ones included.
    Any(usize),
    Live(usize),
    /// A child of the binding's parent, or a live container if it has
    /// none.
    Sibling(usize),
}

#[derive(Clone, Debug)]
struct AttrSpec {
    fixed: bool,
    priority: u32,
    share_pct: u8,
    /// CPU limit in percent, over a 5 ms window.
    limit_pct: Option<u8>,
}

impl AttrSpec {
    fn attrs(&self) -> Attributes {
        let a = if self.fixed {
            Attributes::fixed_share(self.share_pct as f64 / 100.0)
        } else {
            Attributes::time_shared(self.priority)
        };
        match self.limit_pct {
            Some(pct) => a.with_cpu_limit(pct as f64 / 100.0, Nanos::from_millis(5)),
            None => a,
        }
    }
}

fn attr_strategy() -> impl Strategy<Value = AttrSpec> {
    (
        any::<bool>(),
        0u32..=20,
        prop::sample::select(vec![10u8, 20, 25, 30, 50, 70, 100]),
        0u8..4,
        prop::sample::select(vec![10u8, 30, 60]),
    )
        .prop_map(|(fixed, priority, share_pct, limited, pct)| AttrSpec {
            fixed,
            priority,
            share_pct,
            limit_pct: (limited == 0).then_some(pct),
        })
}

const TASKS: u32 = 8;

fn op_strategy() -> impl Strategy<Value = Op> {
    let member = || {
        (0u8..6, any::<usize>()).prop_map(|(d, sel)| match d {
            0 => Member::Any(sel),
            1 | 2 => Member::Live(sel),
            _ => Member::Sibling(sel),
        })
    };
    let binding = move || {
        (any::<usize>(), prop::collection::vec(member(), 1..13))
            .prop_map(|(parent, members)| Binding { parent, members })
    };
    let share = move || {
        (
            (0..TASKS, 0..TASKS),
            prop::sample::select(vec![
                Reshape::Same,
                Reshape::Permute,
                Reshape::Add,
                Reshape::Drop,
                Reshape::ToFront,
            ]),
            any::<usize>(),
            member(),
        )
            .prop_map(|((task, from), how, sel, member)| Op::ShareBinding {
                task,
                from,
                how,
                sel,
                member,
            })
    };
    let create = || {
        (any::<usize>(), 0u8..5, attr_strategy()).prop_map(|(p, f, attrs)| Op::Create {
            parent: (f > 0).then_some(p),
            attrs,
        })
    };
    let wake = || {
        (0..TASKS, 0u8..3).prop_map(|(task, r)| Op::SetRunnable {
            task,
            runnable: r > 0,
        })
    };
    let run = || (1u32..4).prop_map(|quanta| Op::Run { quanta });
    let recycle = || {
        (
            any::<usize>(),
            1u32..3000,
            any::<usize>(),
            0u8..5,
            attr_strategy(),
        )
            .prop_map(|(sel, micros, p, f, attrs)| Op::Recycle {
                sel,
                micros,
                parent: (f > 0).then_some(p),
                attrs,
            })
    };
    prop_oneof![
        create(),
        create(),
        create(),
        any::<usize>().prop_map(|sel| Op::Release { sel }),
        recycle(),
        recycle(),
        (any::<usize>(), any::<usize>(), 0u8..4).prop_map(|(sel, p, f)| Op::Reparent {
            sel,
            parent: (f > 0).then_some(p)
        }),
        (any::<usize>(), attr_strategy()).prop_map(|(sel, attrs)| Op::SetAttrs { sel, attrs }),
        (0..TASKS, binding()).prop_map(|(task, binding)| Op::AddTask { task, binding }),
        (0..TASKS, binding()).prop_map(|(task, binding)| Op::AddTask { task, binding }),
        (0..TASKS).prop_map(|task| Op::RemoveTask { task }),
        (0..TASKS, binding()).prop_map(|(task, binding)| Op::SetBinding { task, binding }),
        wake(),
        wake(),
        wake(),
        (any::<usize>(), 1u32..3000).prop_map(|(sel, micros)| Op::Charge { sel, micros }),
        run(),
        run(),
        run(),
        (0u32..8000).prop_map(|micros| Op::Advance { micros }),
        share(),
        share(),
        (
            (any::<usize>(), 0u8..5),
            (0u32..=20, 0u32..=20),
            prop::sample::select(vec![10u8, 30, 60]),
            any::<bool>(),
            0..TASKS,
        )
            .prop_map(|((p, f), prios, limit_pct, limited_first, task)| {
                Op::ThrottledSibling {
                    parent: (f > 0).then_some(p),
                    prios,
                    limit_pct,
                    limited_first,
                    task,
                }
            }),
    ]
}

fn nth<T: Copy>(v: &[T], sel: usize) -> Option<T> {
    (!v.is_empty()).then(|| v[sel % v.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random legal call sequences over random hierarchies (floating
    /// orphans, CPU limits, priority 0, multi-container bindings naming
    /// dead ids, throttled CPU-limited siblings, tasks sharing equal,
    /// permuted and overlapping bindings) give identical picks, release
    /// times and usages.
    #[test]
    fn rewrite_matches_reference_in_lockstep(ops in prop::collection::vec(op_strategy(), 1..160)) {
        let mut table = ContainerTable::new();
        let mut s = Lockstep::new();
        let mut ever: Vec<ContainerId> = vec![table.root()];
        let mut bindings: Vec<Option<Vec<ContainerId>>> = vec![None; TASKS as usize];
        let mut now = Nanos::ZERO;
        for (i, op) in ops.iter().enumerate() {
            s.context = format!("step {i}: {op:?}");
            let live: Vec<ContainerId> = table.iter().map(|(id, _)| id).collect();
            let fixed: Vec<ContainerId> = table
                .iter()
                .filter(|(_, c)| c.attrs().policy.share().is_some())
                .map(|(id, _)| id)
                .collect();
            let non_root: Vec<ContainerId> =
                live.iter().copied().filter(|&c| c != table.root()).collect();
            let bind = |b: &Binding| -> Vec<ContainerId> {
                let siblings = nth(&fixed, b.parent)
                    .map_or(&[][..], |p| table.children(p).unwrap());
                b.members
                    .iter()
                    .map(|&m| match m {
                        Member::Any(sel) => nth(&ever, sel),
                        Member::Sibling(sel) if !siblings.is_empty() => nth(siblings, sel),
                        Member::Live(sel) | Member::Sibling(sel) => nth(&live, sel),
                    })
                    .map(|c| c.expect("the root is always live"))
                    .collect()
            };
            let create = |table: &mut ContainerTable,
                          parent: Option<usize>,
                          attrs: &AttrSpec,
                          now: Nanos| {
                let under = parent.and_then(|p| nth(&fixed, p));
                let c = table.create_at(under, attrs.attrs(), now).ok()?;
                if parent.is_none() {
                    table.set_parent(c, None).unwrap();
                }
                Some(c)
            };
            match op {
                Op::Create { parent, attrs } => {
                    ever.extend(create(&mut table, *parent, attrs, now));
                }
                Op::Release { sel } => {
                    if let Some(c) = nth(&non_root, *sel) {
                        assert!(table.drop_descriptor_ref(c).unwrap());
                    }
                }
                Op::Recycle { sel, micros, parent, attrs } => {
                    if let Some(c) = nth(&non_root, *sel) {
                        let dt = Nanos::from_micros(*micros as u64);
                        now += dt;
                        s.both(|s| s.charge(TaskId(0), c, dt, &table, now));
                        assert!(table.drop_descriptor_ref(c).unwrap());
                        // A dead parent leaves the new container floating.
                        let parent = parent.filter(|&p| nth(&fixed, p) != Some(c));
                        ever.extend(create(&mut table, parent, attrs, now));
                    }
                }
                Op::Reparent { sel, parent } => {
                    if let Some(c) = nth(&non_root, *sel) {
                        let to = match parent {
                            Some(p) => nth(&fixed, *p),
                            None => None,
                        };
                        // A cycle or an overcommitted parent refuses.
                        let _ = table.set_parent(c, to);
                    }
                }
                Op::SetAttrs { sel, attrs } => {
                    if let Some(c) = nth(&live, *sel) {
                        let _ = table.set_attrs(c, attrs.attrs());
                    }
                }
                Op::AddTask { task, binding } => {
                    let slot = &mut bindings[*task as usize];
                    if slot.is_none() {
                        let b = bind(binding);
                        s.both(|s| s.add_task(TaskId(*task), &b, now));
                        *slot = Some(b);
                    }
                }
                Op::RemoveTask { task } => {
                    if bindings[*task as usize].take().is_some() {
                        s.both(|s| s.remove_task(TaskId(*task)));
                    }
                }
                Op::SetBinding { task, binding } => {
                    if bindings[*task as usize].is_some() {
                        let b = bind(binding);
                        s.both(|s| s.set_binding(TaskId(*task), &b, now));
                        bindings[*task as usize] = Some(b);
                    }
                }
                Op::SetRunnable { task, runnable } => {
                    if bindings[*task as usize].is_some() {
                        s.both(|s| s.set_runnable(TaskId(*task), *runnable, now));
                    }
                }
                Op::Run { quanta } => {
                    let home = |t: TaskId| {
                        bindings[t.0 as usize]
                            .iter()
                            .flatten()
                            .copied()
                            .find(|&c| table.contains(c))
                            .unwrap_or(table.root())
                    };
                    for _ in 0..*quanta {
                        s.run_quantum(&table, home, &mut now);
                    }
                }
                Op::Charge { sel, micros } => {
                    if let Some(c) = nth(&live, *sel) {
                        let dt = Nanos::from_micros(*micros as u64);
                        now += dt;
                        s.both(|s| s.charge(TaskId(0), c, dt, &table, now));
                    }
                }
                Op::Advance { micros } => now += Nanos::from_micros(*micros as u64),
                Op::ShareBinding { task, from, how, sel, member } => {
                    if let Some(mut b) = bindings[*from as usize].clone() {
                        let n = b.len();
                        match how {
                            Reshape::Same => {}
                            Reshape::Permute if sel % n == 0 => b.reverse(),
                            Reshape::Permute => b.rotate_left(sel % n),
                            Reshape::Add => b.extend(bind(&Binding {
                                parent: *sel,
                                members: vec![*member],
                            })),
                            Reshape::Drop if n > 1 => {
                                b.remove(sel % n);
                            }
                            Reshape::Drop => {}
                            Reshape::ToFront => b[..=sel % n].rotate_right(1),
                        }
                        let t = TaskId(*task);
                        if bindings[*task as usize].replace(b.clone()).is_some() {
                            s.both(|s| s.set_binding(t, &b, now));
                        } else {
                            s.both(|s| s.add_task(t, &b, now));
                        }
                        s.both(|s| s.set_runnable(t, true, now));
                    }
                }
                Op::ThrottledSibling { parent, prios, limit_pct, limited_first, task } => {
                    let ts = |priority, limit_pct| AttrSpec {
                        fixed: false,
                        priority,
                        share_pct: 0,
                        limit_pct,
                    };
                    let limited = create(&mut table, *parent, &ts(prios.0, Some(*limit_pct)), now);
                    let other = create(&mut table, *parent, &ts(prios.1, None), now);
                    ever.extend(limited.iter().chain(&other));
                    if let (Some(l), Some(o)) = (limited, other) {
                        let b = if *limited_first { vec![l, o] } else { vec![o, l] };
                        let t = TaskId(*task);
                        if bindings[*task as usize].replace(b.clone()).is_some() {
                            s.both(|s| s.set_binding(t, &b, now));
                        } else {
                            s.both(|s| s.add_task(t, &b, now));
                        }
                        s.both(|s| s.set_runnable(t, true, now));
                        let window = Nanos::from_millis(5);
                        now += window;
                        s.both(|s| s.charge(t, l, window, &table, now));
                    }
                }
            }
            s.pick(&table, now);
            s.both(|s| s.next_release_time(&table, now));
            s.both(|s| s.is_runnable(TaskId(i as u32 % TASKS)));
            s.assert_usages(&ever, now);
        }
    }
}
