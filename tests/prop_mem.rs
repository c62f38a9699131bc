//! Property tests for the `simmem` accounting engine: arbitrary
//! interleavings of hard charges, releases, and cache traffic across a
//! random container hierarchy must conserve memory exactly — the
//! accountant's kernel-wide ledger, the per-container per-class
//! breakdowns, and the buffer cache's resident bytes all describe the
//! same memory — and must never leave a limited subtree over its limit.

use proptest::prelude::*;
use rescon::{Attributes, ContainerId, ContainerTable, MemClass};
use simdisk::BufferCache;
use simos::mem::{cache_insert_accounted, charge_with_reclaim, pick_oom_victim};
use simos::{MemAccountant, MemParams};

/// An abstract operation against the memory engine.
#[derive(Clone, Debug)]
enum Op {
    /// Create a fixed-share container under the sel-th live container,
    /// with a memory limit of `limit_kib` KiB — zero meaning unlimited
    /// (overcommit of shares or nesting errors are tolerated and skipped).
    Create { parent_sel: usize, limit_kib: u16 },
    /// Charge pinned memory (a non-cache class) through
    /// `charge_with_reclaim`; refusals are legal outcomes.
    ChargeHard {
        sel: usize,
        class_sel: usize,
        kib: u16,
    },
    /// Release one previously successful hard charge.
    ReleaseHard { idx: usize },
    /// Insert a file into the buffer cache on behalf of a container.
    CacheInsert { sel: usize, file: u16, kib: u16 },
    /// Touch a file, churning LRU order so reclaim victims vary.
    CacheTouch { file: u16 },
}

const HARD_CLASSES: [MemClass; 4] = [
    MemClass::SockBuf,
    MemClass::ConnState,
    MemClass::ThreadStack,
    MemClass::Other,
];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), 0u16..64).prop_map(|(parent_sel, limit_kib)| Op::Create {
            parent_sel,
            limit_kib,
        }),
        (any::<usize>(), 0usize..4, 1u16..32).prop_map(|(sel, class_sel, kib)| Op::ChargeHard {
            sel,
            class_sel,
            kib
        }),
        any::<usize>().prop_map(|idx| Op::ReleaseHard { idx }),
        (any::<usize>(), 0u16..48, 1u16..16).prop_map(|(sel, file, kib)| Op::CacheInsert {
            sel,
            file,
            kib
        }),
        (0u16..48).prop_map(|file| Op::CacheTouch { file }),
    ]
}

/// Sum of every container's *own* per-class charged bytes.
fn table_class_sums(table: &ContainerTable) -> [u64; MemClass::COUNT] {
    let mut sums = [0u64; MemClass::COUNT];
    for (_, c) in table.iter() {
        for class in MemClass::ALL {
            sums[class.index()] += c.usage().mem_by_class[class.index()];
        }
    }
    sums
}

fn check_conserved(table: &ContainerTable, cache: &BufferCache, acct: &MemAccountant) {
    // 1. The accountant's total is exactly the sum of its classes.
    let by_class = acct.by_class();
    assert_eq!(
        acct.total(),
        by_class.iter().sum::<u64>(),
        "accountant total diverged from its class breakdown"
    );
    // 2. Each class ledger matches the per-container charges.
    let sums = table_class_sums(table);
    assert_eq!(
        by_class, sums,
        "accountant class ledger diverged from container charges"
    );
    // 3. Every container's own total equals its class breakdown.
    for (id, c) in table.iter() {
        let u = c.usage();
        assert_eq!(
            u.mem_bytes,
            u.mem_by_class.iter().sum::<u64>(),
            "container {id:?} mem_bytes diverged from its class breakdown"
        );
    }
    // 4. The cache's resident bytes are exactly the CachePage ledger.
    assert_eq!(
        cache.used(),
        acct.class_bytes(MemClass::CachePage),
        "cache residency diverged from the CachePage ledger"
    );
    // 5. No limited subtree sits above its limit.
    for (id, c) in table.iter() {
        if let Some(limit) = c.attrs().mem_limit {
            let used = table.subtree_mem(id).unwrap();
            assert!(
                used <= limit,
                "subtree {id:?} over its limit: {used} > {limit}"
            );
        }
    }
}

fn run_ops(ops: &[Op]) {
    let mut table = ContainerTable::new();
    let mut cache = BufferCache::new(64 * 1024);
    let mut acct = MemAccountant::new(MemParams::new());

    let mut live: Vec<ContainerId> = vec![table.root()];
    // Successful hard charges, so releases always balance a real charge.
    let mut ledger: Vec<(ContainerId, MemClass, u64)> = Vec::new();

    for op in ops {
        match op {
            Op::Create {
                parent_sel,
                limit_kib,
            } => {
                let parent = live[parent_sel % live.len()];
                let mut attrs = Attributes::fixed_share(0.02);
                if *limit_kib > 0 {
                    attrs = attrs.with_mem_limit(*limit_kib as u64 * 1024);
                }
                if let Ok(id) = table.create(Some(parent), attrs) {
                    live.push(id);
                }
            }
            Op::ChargeHard {
                sel,
                class_sel,
                kib,
            } => {
                let c = live[sel % live.len()];
                let class = HARD_CLASSES[class_sel % HARD_CLASSES.len()];
                let bytes = *kib as u64 * 1024;
                if charge_with_reclaim(&mut table, &mut cache, &mut acct, c, class, bytes).is_ok() {
                    ledger.push((c, class, bytes));
                }
            }
            Op::ReleaseHard { idx } => {
                if !ledger.is_empty() {
                    let (c, class, bytes) = ledger.swap_remove(idx % ledger.len());
                    table
                        .release_mem_class(c, class, bytes)
                        .expect("releasing a recorded charge");
                    acct.note_release(class, bytes);
                }
            }
            Op::CacheInsert { sel, file, kib } => {
                let owner = live[sel % live.len()];
                let _ = cache_insert_accounted(
                    &mut cache,
                    &mut table,
                    &mut acct,
                    *file as u64,
                    *kib as u64 * 1024,
                    owner,
                );
            }
            Op::CacheTouch { file } => {
                let _ = cache.lookup(*file as u64);
            }
        }
        check_conserved(&table, &cache, &acct);
        table.check_invariants();
    }

    // The OOM victim, when one exists, is always a real container whose
    // own charge is the subtree maximum.
    if let Some((victim, bytes)) = pick_oom_victim(&table, table.root().as_u64()) {
        let max = table
            .iter()
            .map(|(_, c)| c.usage().mem_bytes)
            .max()
            .unwrap_or(0);
        assert_eq!(bytes, max, "victim does not hold the largest charge");
        assert!(
            table.iter().any(|(id, _)| id.as_u64() == victim),
            "victim is not a live container"
        );
    }

    // Release everything still on the ledger: the pinned classes must
    // return to zero (cache pages may legitimately stay resident).
    for (c, class, bytes) in ledger.drain(..) {
        table
            .release_mem_class(c, class, bytes)
            .expect("releasing a recorded charge");
        acct.note_release(class, bytes);
    }
    for class in HARD_CLASSES {
        assert_eq!(
            acct.class_bytes(class),
            0,
            "pinned class {class:?} leaked after releasing every charge"
        );
    }
    check_conserved(&table, &cache, &acct);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation under hierarchy limits only.
    #[test]
    fn memory_is_conserved_under_reclaim(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_ops(&ops);
    }
}
