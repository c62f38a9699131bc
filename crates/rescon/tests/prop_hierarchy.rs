//! Property tests for the container hierarchy: random operation sequences
//! must preserve the structural invariants (the derived share sums and
//! CPU-limit count among them) and conservation of accounting.

use proptest::prelude::*;
use rescon::{Attributes, ContainerId, ContainerTable, RcError};
use simcore::Nanos;

/// An abstract operation applied to the table.
#[derive(Clone, Debug)]
enum Op {
    /// Create a time-shared container under the i-th live container
    /// (modulo), or the root.
    CreateTs { parent_sel: usize, priority: u32 },
    /// Create a fixed-share container (share drawn from a small menu so
    /// overcommit happens sometimes but not always).
    CreateFs { parent_sel: usize, share_pct: u8 },
    /// Drop the creator reference of the i-th live non-root container.
    Release { sel: usize },
    /// Reparent the i-th live container under the j-th.
    Reparent { sel: usize, parent_sel: usize },
    /// Charge CPU to the i-th live container.
    ChargeCpu { sel: usize, micros: u32 },
    /// Charge then optionally release memory.
    ChargeMem { sel: usize, bytes: u16 },
    /// Replace the i-th live container's attributes: a priority or a
    /// share (switching policy where the hierarchy allows it), with a CPU
    /// limit turned on or off.
    SetAttrs {
        sel: usize,
        fixed: bool,
        priority: u32,
        share_pct: u8,
        limit: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), 0u32..32).prop_map(|(parent_sel, priority)| Op::CreateTs {
            parent_sel,
            priority
        }),
        (
            any::<usize>(),
            prop::sample::select(vec![5u8, 10, 25, 30, 50, 70, 90])
        )
            .prop_map(|(parent_sel, share_pct)| Op::CreateFs {
                parent_sel,
                share_pct
            }),
        any::<usize>().prop_map(|sel| Op::Release { sel }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(sel, parent_sel)| Op::Reparent { sel, parent_sel }),
        (any::<usize>(), 1u32..10_000).prop_map(|(sel, micros)| Op::ChargeCpu { sel, micros }),
        (any::<usize>(), 1u16..u16::MAX).prop_map(|(sel, bytes)| Op::ChargeMem { sel, bytes }),
        (
            any::<usize>(),
            any::<bool>(),
            0u32..32,
            prop::sample::select(vec![5u8, 10, 25, 30, 50, 70, 90]),
            any::<bool>(),
        )
            .prop_map(|(sel, fixed, priority, share_pct, limit)| Op::SetAttrs {
                sel,
                fixed,
                priority,
                share_pct,
                limit
            }),
    ]
}

fn live_ids(t: &ContainerTable) -> Vec<ContainerId> {
    t.iter().map(|(id, _)| id).collect()
}

fn pick(ids: &[ContainerId], sel: usize) -> Option<ContainerId> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[sel % ids.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any operation sequence, the structural invariants hold and the
    /// root's cumulative CPU equals the total CPU ever charged.
    #[test]
    fn random_ops_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut t = ContainerTable::new();
        let mut total_charged = Nanos::ZERO;
        let mut detached_charge = Nanos::ZERO; // CPU charged to floating subtrees

        for op in ops {
            let ids = live_ids(&t);
            match op {
                Op::CreateTs { parent_sel, priority } => {
                    let parent = pick(&ids, parent_sel);
                    // May fail (time-share parent, §5.1): both fine.
                    let _ = t.create(parent, Attributes::time_shared(priority));
                }
                Op::CreateFs { parent_sel, share_pct } => {
                    let parent = pick(&ids, parent_sel);
                    let _ = t.create(parent, Attributes::fixed_share(share_pct as f64 / 100.0));
                }
                Op::Release { sel } => {
                    if let Some(id) = pick(&ids, sel) {
                        if id != t.root() && t.container(id).unwrap().descriptor_refs() > 0 {
                            let _ = t.drop_descriptor_ref(id);
                        }
                    }
                }
                Op::Reparent { sel, parent_sel } => {
                    if let (Some(id), Some(p)) = (pick(&ids, sel), pick(&ids, parent_sel)) {
                        let _ = t.set_parent(id, Some(p));
                    }
                }
                Op::ChargeCpu { sel, micros } => {
                    if let Some(id) = pick(&ids, sel) {
                        let dt = Nanos::from_micros(micros as u64);
                        t.charge_cpu(id, dt).unwrap();
                        total_charged += dt;
                    }
                }
                Op::SetAttrs { sel, fixed, priority, share_pct, limit } => {
                    if let Some(id) = pick(&ids, sel) {
                        let mut attrs = if fixed {
                            Attributes::fixed_share(share_pct as f64 / 100.0)
                        } else {
                            Attributes::time_shared(priority)
                        };
                        if limit {
                            attrs = attrs.with_cpu_limit(0.5, Nanos::from_millis(10));
                        }
                        // May fail (overcommit, or a parent turning
                        // time-shared): both fine.
                        let _ = t.set_attrs(id, attrs);
                    }
                }
                Op::ChargeMem { sel, bytes } => {
                    if let Some(id) = pick(&ids, sel) {
                        match t.charge_mem(id, bytes as u64) {
                            Ok(()) => t.release_mem(id, bytes as u64).unwrap(),
                            Err(RcError::LimitExceeded { .. }) | Err(RcError::NotFound) => {}
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                }
            }
            t.check_invariants();
        }

        // Conservation: total charged CPU equals root subtree CPU plus CPU
        // accumulated in floating (detached) subtrees.
        for id in t.top_level() {
            if t.parent(id).unwrap().is_none() {
                detached_charge += t.subtree_cpu(id).unwrap();
            }
        }
        let accounted =
            t.subtree_cpu(t.root()).unwrap() + detached_charge + t.reaped_cpu();
        // Conservation holds exactly: a destroyed container's own history
        // stays with its ancestors (or the table-level reaped counter when
        // it had none), and detached subtrees carry theirs.
        prop_assert_eq!(accounted, total_charged);
    }

    /// Fixed-share children of one parent never sum above 1.0, no matter
    /// what sequence of creates/reparents/attr changes we attempt.
    #[test]
    fn shares_never_overcommitted(
        shares in prop::collection::vec(1u8..=100, 1..20)
    ) {
        let mut t = ContainerTable::new();
        let mut accepted = 0.0f64;
        for pct in shares {
            let share = pct as f64 / 100.0;
            match t.create(None, Attributes::fixed_share(share)) {
                Ok(_) => accepted += share,
                Err(RcError::ShareOvercommit) => {
                    prop_assert!(accepted + share > 1.0 + 1e-9);
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        prop_assert!(accepted <= 1.0 + 1e-9);
        t.check_invariants();
    }

    /// Usage queries survive arbitrary create/destroy interleavings without
    /// ever observing another container's data (generation safety).
    #[test]
    fn stale_ids_never_alias(n in 1usize..40) {
        let mut t = ContainerTable::new();
        let mut dead: Vec<ContainerId> = Vec::new();
        for i in 0..n {
            let c = t.create(None, Attributes::time_shared(i as u32)).unwrap();
            t.charge_cpu(c, Nanos::from_micros(1)).unwrap();
            if i % 2 == 0 {
                t.drop_descriptor_ref(c).unwrap();
                dead.push(c);
            }
        }
        for d in dead {
            prop_assert_eq!(t.usage(d).unwrap_err(), RcError::NotFound);
        }
    }
}
