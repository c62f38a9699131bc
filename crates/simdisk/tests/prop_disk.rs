//! Property tests for the disk subsystem: conservation of charged disk
//! time and container memory-limit safety of the buffer cache, under
//! random request/insert sequences and both queue disciplines.

use proptest::prelude::*;
use rescon::{Attributes, ContainerId, ContainerTable};
use simcore::Nanos;
use simdisk::{BufferCache, DiskRequest, FifoIoSched, IoSched, ShareIoSched, SimDisk};

/// An abstract disk-side operation.
#[derive(Clone, Debug)]
enum Op {
    /// Submit a read of `bytes` of file `file`, charged to the sel-th
    /// container.
    Submit { sel: usize, file: u8, kib: u8 },
    /// Advance the clock to the next completion (no-op when idle).
    Complete,
    /// Destroy the sel-th non-root container mid-flight.
    Destroy { sel: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), 0u8..16, 1u8..64).prop_map(|(sel, file, kib)| Op::Submit {
            sel,
            file,
            kib
        }),
        Just(Op::Complete),
        any::<usize>().prop_map(|sel| Op::Destroy { sel }),
    ]
}

fn build_containers(t: &mut ContainerTable) -> Vec<ContainerId> {
    vec![
        t.root(),
        t.create(None, Attributes::fixed_share(0.7)).unwrap(),
        t.create(None, Attributes::fixed_share(0.3)).unwrap(),
        t.create(None, Attributes::time_shared(5)).unwrap(),
    ]
}

fn run_ops(ops: &[Op], sched: Box<dyn IoSched>) {
    let mut table = ContainerTable::new();
    let containers = build_containers(&mut table);
    let mut live = containers.clone();
    let mut disk = SimDisk::new(sched);
    let mut now = Nanos::ZERO;

    for op in ops {
        match *op {
            Op::Submit { sel, file, kib } => {
                let c = containers[sel % containers.len()];
                disk.submit(
                    DiskRequest {
                        file: file as u64,
                        bytes: kib as u64 * 1024,
                        charge_to: c,
                        intr_cpu: 0,
                        span: 0,
                    },
                    &table,
                    now,
                );
            }
            Op::Complete => {
                if let Some(t) = disk.next_completion_time() {
                    now = t;
                    disk.advance(now, &mut table);
                }
            }
            Op::Destroy { sel } => {
                if live.len() > 1 {
                    let idx = 1 + sel % (live.len() - 1);
                    let victim = live.remove(idx);
                    let _ = table.drop_descriptor_ref(victim);
                }
            }
        }
    }
    // Drain everything still queued or in flight.
    while let Some(t) = disk.next_completion_time() {
        now = t;
        disk.advance(now, &mut table);
    }

    // Conservation: every container here lives under the root, and a
    // destroyed child's disk history stays in its ancestors' subtree
    // counters, so root-subtree disk time (plus table-level reaped
    // history) equals the disk's busy time exactly.
    let charged = table.subtree_disk(table.root()).unwrap() + table.reaped_disk();
    prop_assert_eq!(charged, disk.total_busy());
    table.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO discipline: charged disk time conserves against busy time.
    #[test]
    fn fifo_conserves_disk_time(ops in prop::collection::vec(op_strategy(), 1..150)) {
        run_ops(&ops, Box::new(FifoIoSched::new()));
    }

    /// Share discipline: charged disk time conserves against busy time.
    #[test]
    fn share_conserves_disk_time(ops in prop::collection::vec(op_strategy(), 1..150)) {
        run_ops(&ops, Box::new(ShareIoSched::new()));
    }

    /// The buffer cache never drives a container's charged memory above its
    /// limit, and its residency accounting matches the table's counters.
    #[test]
    fn cache_respects_limits(
        inserts in prop::collection::vec((0u64..32, 1u64..16, any::<bool>()), 1..200),
        limit_kib in 4u64..64,
        capacity_kib in 8u64..128,
    ) {
        let mut table = ContainerTable::new();
        let limited = table
            .create(None, Attributes::time_shared(5).with_mem_limit(limit_kib * 1024))
            .unwrap();
        let open = table.create(None, Attributes::time_shared(5)).unwrap();
        let mut cache = BufferCache::new(capacity_kib * 1024);

        for (file, kib, use_limited) in inserts {
            let owner = if use_limited { limited } else { open };
            // Key by owner too so the two containers do not share files.
            let key = file * 2 + use_limited as u64;
            if cache.lookup(key).is_none() {
                cache.insert(key, kib * 1024, owner, &mut table);
            }
            let u = table.usage(limited).unwrap();
            prop_assert!(
                u.mem_bytes <= limit_kib * 1024,
                "container over its limit: {} > {}",
                u.mem_bytes,
                limit_kib * 1024
            );
            prop_assert_eq!(u.mem_bytes, cache.resident_bytes(limited));
            prop_assert_eq!(table.usage(open).unwrap().mem_bytes, cache.resident_bytes(open));
            prop_assert!(cache.used() <= cache.capacity());
            prop_assert_eq!(
                cache.used(),
                cache.resident_bytes(limited) + cache.resident_bytes(open)
            );
        }
        table.check_invariants();
    }
}
