//! `simmem`: kernel memory as a first-class charged resource.
//!
//! Every byte of kernel memory the simulated kernel holds on behalf of an
//! application — socket buffers, per-connection protocol state, thread
//! stacks, buffer-cache pages, and explicit application reservations — flows
//! through the [`MemAccountant`] and is charged to a resource container
//! under a [`MemClass`] tag (§4.4 of the paper: the kernel memory consumed
//! on behalf of an activity is part of that activity's resource bill).
//!
//! The accountant adds two behaviours on top of the hierarchy limits that
//! [`ContainerTable`] already enforces:
//!
//! - **Reclaim.** When a charge would push a subtree over its `mem_limit`,
//!   the accountant first steals
//!   reclaimable memory — LRU buffer-cache pages owned by the violating
//!   subtree — before refusing. Every steal is traced as a `Reclaim` event
//!   charged against the over-limit subtree.
//! - **Container-targeted OOM.** If reclaim cannot satisfy a pinned
//!   allocation, the kernel picks the *largest over-limit principal in the
//!   violating subtree* and kills it: its cache pages, connections, and
//!   reservations are released and the owning process is notified with
//!   `AppEvent::MemKill`. The global whipping boy of a traditional OOM
//!   killer is replaced by precise attribution.
//!
//! The functions in this module are deliberately pure over
//! `(&mut ContainerTable, &mut BufferCache, &mut MemAccountant)` so that
//! property tests can drive random charge/reclaim interleavings without a
//! kernel; `Kernel` wires them to its own state and layers the OOM
//! sequence on top.
//!
//! Memory accounting is **opt-in**: a kernel built without
//! [`MemParams`] charges socket buffers exactly as before and emits no new
//! trace events, keeping memory-unlimited runs byte-identical.

use rescon::{ContainerId, ContainerTable, MemClass, RcError};
use simcore::trace::{self, TraceEventKind, NO_CONTAINER};
use simcore::Nanos;
use simdisk::{BufferCache, CacheOutcome};
use std::collections::HashSet;

/// Bytes charged per thread for its kernel stack (class
/// [`MemClass::ThreadStack`]), released when the thread exits.
pub const STACK_BYTES: u64 = 16 * 1024;

/// Bytes of protocol control block charged per established connection
/// (class [`MemClass::ConnState`]), on top of the socket buffer.
pub const PCB_BYTES: u64 = 1024;

/// Static parameters of the kernel memory subsystem.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemParams {
    /// Kernel CPU cost per reclaimed byte, modelling the page-steal work
    /// the allocating thread performs synchronously. Zero (the default)
    /// keeps reclaim instantaneous — and every existing run
    /// byte-identical; span scenarios opt in to see reclaim stalls.
    pub reclaim_cost_per_kb: Nanos,
}

impl MemParams {
    pub fn new() -> Self {
        MemParams {
            reclaim_cost_per_kb: Nanos::ZERO,
        }
    }

    pub fn with_reclaim_cost_per_kb(mut self, cost: Nanos) -> Self {
        self.reclaim_cost_per_kb = cost;
        self
    }
}

impl Default for MemParams {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a hard allocation could not be satisfied even after reclaim.
///
/// `refusing` is the raw key of the container whose limit was hit, or
/// [`NO_CONTAINER`] when the charge failed for another reason (such as a
/// dead container).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFailure {
    pub refusing: u64,
    pub limit: u64,
    pub used: u64,
}

/// Central ledger for kernel memory: running totals per [`MemClass`] plus
/// counters for reclaim, OOM, refusal, and pressure activity.
///
/// The per-container breakdown lives in each container's
/// [`rescon::ResourceUsage`]; the accountant holds the kernel-wide view and
/// the subsystem parameters.
#[derive(Clone, Debug)]
pub struct MemAccountant {
    pub params: MemParams,
    total: u64,
    by_class: [u64; MemClass::COUNT],
    /// Cache pages stolen to satisfy charges (count / bytes).
    pub reclaims: u64,
    pub reclaimed_bytes: u64,
    /// Container-targeted OOM kills performed.
    pub oom_kills: u64,
    /// Hard allocations refused after reclaim and OOM both failed.
    pub refusals: u64,
    /// `MemPressure` events emitted.
    pub pressure_events: u64,
}

impl MemAccountant {
    pub fn new(params: MemParams) -> Self {
        MemAccountant {
            params,
            total: 0,
            by_class: [0; MemClass::COUNT],
            reclaims: 0,
            reclaimed_bytes: 0,
            oom_kills: 0,
            refusals: 0,
            pressure_events: 0,
        }
    }

    /// Record `bytes` of class `class` entering the kernel's ledger.
    pub fn note_charge(&mut self, class: MemClass, bytes: u64) {
        self.total += bytes;
        self.by_class[class.index()] += bytes;
    }

    /// Record `bytes` of class `class` leaving the kernel's ledger.
    pub fn note_release(&mut self, class: MemClass, bytes: u64) {
        self.total = self.total.saturating_sub(bytes);
        let slot = &mut self.by_class[class.index()];
        *slot = slot.saturating_sub(bytes);
    }

    /// Total kernel memory currently accounted, all classes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes currently accounted under `class`.
    pub fn class_bytes(&self, class: MemClass) -> u64 {
        self.by_class[class.index()]
    }

    /// The full per-class breakdown, indexed by [`MemClass::index`].
    pub fn by_class(&self) -> [u64; MemClass::COUNT] {
        self.by_class
    }
}

fn failure_of(e: RcError) -> MemFailure {
    match e {
        RcError::LimitExceeded {
            container,
            limit,
            used,
        } => MemFailure {
            refusing: container,
            limit,
            used,
        },
        _ => MemFailure {
            refusing: NO_CONTAINER,
            limit: 0,
            used: 0,
        },
    }
}

/// Steal one LRU cache page from owners satisfying `member`, tracing the
/// steal against `violating_root` and updating the accountant. Returns the
/// bytes freed, or `None` when nothing stealable remains.
fn reclaim_step(
    table: &mut ContainerTable,
    cache: &mut BufferCache,
    acct: &mut MemAccountant,
    violating_root: u64,
    member: impl Fn(ContainerId) -> bool,
) -> Option<u64> {
    let (file, bytes, owner) = cache.reclaim_one(table, member)?;
    acct.note_release(MemClass::CachePage, bytes);
    acct.reclaims += 1;
    acct.reclaimed_bytes += bytes;
    trace::emit(|| TraceEventKind::Reclaim {
        container: violating_root,
        victim: owner,
        file,
        bytes,
    });
    Some(bytes)
}

/// Raw keys of every container inside the subtree rooted at `root_key`.
fn subtree_members(table: &ContainerTable, root_key: u64) -> HashSet<u64> {
    let root = table
        .iter()
        .find(|(id, _)| id.as_u64() == root_key)
        .map(|(id, _)| id);
    match root {
        Some(r) => table
            .iter()
            .filter(|(id, _)| table.in_subtree(*id, r))
            .map(|(id, _)| id.as_u64())
            .collect(),
        None => HashSet::new(),
    }
}

/// Charge `bytes` of `class` memory to container `c`, stealing reclaimable
/// cache pages from the violating subtree until the charge fits. On success the table and the accountant
/// are both updated. On failure nothing is charged and the returned
/// [`MemFailure`] names the binding constraint; a `MemRefused` trace event
/// records the refused attempt.
pub fn charge_with_reclaim(
    table: &mut ContainerTable,
    cache: &mut BufferCache,
    acct: &mut MemAccountant,
    c: ContainerId,
    class: MemClass,
    bytes: u64,
) -> Result<(), MemFailure> {
    // Hierarchy limits: steal LRU pages owned by the violating subtree.
    // Re-check after every steal — the binding ancestor can change as its
    // subtree shrinks.
    loop {
        match table.check_mem(c, bytes) {
            Ok(()) => break,
            Err(RcError::LimitExceeded {
                container: refusing,
                ..
            }) => {
                let members = subtree_members(table, refusing);
                if reclaim_step(table, cache, acct, refusing, |o| {
                    members.contains(&o.as_u64())
                })
                .is_none()
                {
                    // Final attempt through the table so the refusal is
                    // traced with the enriched error.
                    return match table.charge_mem_class(c, class, bytes) {
                        Ok(()) => {
                            acct.note_charge(class, bytes);
                            Ok(())
                        }
                        Err(e) => Err(failure_of(e)),
                    };
                }
            }
            Err(e) => return Err(failure_of(e)),
        }
    }
    match table.charge_mem_class(c, class, bytes) {
        Ok(()) => {
            acct.note_charge(class, bytes);
            Ok(())
        }
        Err(e) => Err(failure_of(e)),
    }
}

/// Pick the container-targeted OOM victim: the principal with the largest
/// *own* (not subtree) memory charge inside the subtree rooted at
/// `refusing` (the whole table when `refusing` is [`NO_CONTAINER`]).
/// Ties break toward the smallest key for determinism. Returns
/// `(victim_key, victim_bytes)`.
pub fn pick_oom_victim(table: &ContainerTable, refusing: u64) -> Option<(u64, u64)> {
    let root = if refusing == NO_CONTAINER {
        None
    } else {
        table
            .iter()
            .find(|(id, _)| id.as_u64() == refusing)
            .map(|(id, _)| id)
    };
    if refusing != NO_CONTAINER && root.is_none() {
        return None;
    }
    let mut best: Option<(u64, u64)> = None;
    for (id, c) in table.iter() {
        if let Some(r) = root {
            if !table.in_subtree(id, r) {
                continue;
            }
        }
        let bytes = c.usage().mem_bytes;
        if bytes == 0 {
            continue;
        }
        best = match best {
            Some((bk, bb)) if bytes < bb || (bytes == bb && id.as_u64() >= bk) => Some((bk, bb)),
            _ => Some((id.as_u64(), bytes)),
        };
    }
    best
}

/// Insert a page into the buffer cache keeping the accountant's
/// [`MemClass::CachePage`] ledger in sync with the cache's net change
/// (the insert may evict other pages internally).
pub fn cache_insert_accounted(
    cache: &mut BufferCache,
    table: &mut ContainerTable,
    acct: &mut MemAccountant,
    file: u64,
    bytes: u64,
    owner: ContainerId,
) -> CacheOutcome {
    let before = cache.used();
    let out = cache.insert(file, bytes, owner, table);
    let after = cache.used();
    if after >= before {
        acct.note_charge(MemClass::CachePage, after - before);
    } else {
        acct.note_release(MemClass::CachePage, before - after);
    }
    out
}

/// Fraction of a subtree's `mem_limit` above which a `MemPressure` trace
/// event fires on each successful charge into that subtree.
const PRESSURE_FRAC: f64 = 0.9;

/// After a successful charge into `c`, emit `MemPressure` for every limited
/// ancestor (including `c` itself) whose subtree usage sits above
/// `PRESSURE_FRAC` of its limit.
pub fn pressure_check(table: &ContainerTable, acct: &mut MemAccountant, c: ContainerId) {
    let mut cursor = Some(c);
    while let Some(cur) = cursor {
        if let (Ok(attrs), Ok(used)) = (table.attrs(cur), table.subtree_mem(cur)) {
            if let Some(limit) = attrs.mem_limit {
                let threshold = (limit as f64 * PRESSURE_FRAC) as u64;
                if used > threshold {
                    acct.pressure_events += 1;
                    trace::emit(|| TraceEventKind::MemPressure {
                        container: cur.as_u64(),
                        used,
                        limit,
                    });
                }
            }
        }
        cursor = table.parent(cur).ok().flatten();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescon::Attributes;

    fn limited(parent: Option<ContainerId>, t: &mut ContainerTable, limit: u64) -> ContainerId {
        // Fixed-share so the helper can parent time-shared children (a
        // time-shared parent refuses them, §5.1).
        t.create(parent, Attributes::fixed_share(0.2).with_mem_limit(limit))
            .unwrap()
    }

    #[test]
    fn charge_without_pressure_is_plain() {
        let mut t = ContainerTable::new();
        let mut cache = BufferCache::new(1 << 20);
        let mut acct = MemAccountant::new(MemParams::new());
        let c = t.create(None, Attributes::time_shared(1)).unwrap();
        charge_with_reclaim(&mut t, &mut cache, &mut acct, c, MemClass::SockBuf, 500).unwrap();
        assert_eq!(acct.total(), 500);
        assert_eq!(acct.class_bytes(MemClass::SockBuf), 500);
        assert_eq!(t.usage(c).unwrap().mem_bytes, 500);
    }

    #[test]
    fn reclaim_steals_cache_pages_from_violating_subtree_only() {
        let mut t = ContainerTable::new();
        let mut cache = BufferCache::new(1 << 20);
        let mut acct = MemAccountant::new(MemParams::new());
        let hog = limited(None, &mut t, 1000);
        let other = t.create(None, Attributes::time_shared(1)).unwrap();
        // Hog holds 800 bytes of reclaimable cache; other holds 600.
        assert!(matches!(
            cache.insert(1, 800, hog, &mut t),
            CacheOutcome::Cached
        ));
        assert!(matches!(
            cache.insert(2, 600, other, &mut t),
            CacheOutcome::Cached
        ));
        acct.note_charge(MemClass::CachePage, 1400);
        // A 700-byte pinned charge to the hog must steal the hog's page,
        // not the bystander's.
        charge_with_reclaim(&mut t, &mut cache, &mut acct, hog, MemClass::Other, 700).unwrap();
        assert_eq!(acct.reclaims, 1);
        assert_eq!(acct.reclaimed_bytes, 800);
        assert_eq!(cache.resident_bytes(hog), 0);
        assert_eq!(cache.resident_bytes(other), 600);
        assert_eq!(t.usage(hog).unwrap().mem_bytes, 700);
        assert_eq!(acct.total(), 600 + 700);
    }

    #[test]
    fn unsatisfiable_charge_fails_and_charges_nothing() {
        let mut t = ContainerTable::new();
        let mut cache = BufferCache::new(1 << 20);
        let mut acct = MemAccountant::new(MemParams::new());
        let c = limited(None, &mut t, 1000);
        let err = charge_with_reclaim(&mut t, &mut cache, &mut acct, c, MemClass::Other, 2000)
            .unwrap_err();
        assert_eq!(err.refusing, c.as_u64());
        assert_eq!(err.limit, 1000);
        assert_eq!(t.usage(c).unwrap().mem_bytes, 0);
        assert_eq!(acct.total(), 0);
    }

    #[test]
    fn oom_victim_is_largest_principal_in_subtree() {
        let mut t = ContainerTable::new();
        let parent = limited(None, &mut t, 10_000);
        let small = t.create(Some(parent), Attributes::time_shared(1)).unwrap();
        let big = t.create(Some(parent), Attributes::time_shared(1)).unwrap();
        let outside = t.create(None, Attributes::time_shared(1)).unwrap();
        t.charge_mem_class(small, MemClass::Other, 100).unwrap();
        t.charge_mem_class(big, MemClass::Other, 300).unwrap();
        t.charge_mem_class(outside, MemClass::Other, 9_999).unwrap();
        let (victim, bytes) = pick_oom_victim(&t, parent.as_u64()).unwrap();
        assert_eq!(victim, big.as_u64());
        assert_eq!(bytes, 300);
        // Global search may pick the outsider.
        let (victim, _) = pick_oom_victim(&t, NO_CONTAINER).unwrap();
        assert_eq!(victim, outside.as_u64());
        // An empty subtree yields no victim.
        let empty = t.create(None, Attributes::time_shared(1)).unwrap();
        assert_eq!(pick_oom_victim(&t, empty.as_u64()), None);
    }

    #[test]
    fn cache_insert_accounted_tracks_net_delta() {
        let mut t = ContainerTable::new();
        let mut cache = BufferCache::new(1000);
        let mut acct = MemAccountant::new(MemParams::new());
        let c = t.create(None, Attributes::time_shared(1)).unwrap();
        cache_insert_accounted(&mut cache, &mut t, &mut acct, 1, 600, c);
        assert_eq!(acct.class_bytes(MemClass::CachePage), 600);
        // Inserting 700 evicts the 600-byte page first: net +100.
        cache_insert_accounted(&mut cache, &mut t, &mut acct, 2, 700, c);
        assert_eq!(acct.class_bytes(MemClass::CachePage), cache.used());
    }

    #[test]
    fn pressure_fires_above_fraction_of_limit() {
        let mut t = ContainerTable::new();
        let mut acct = MemAccountant::new(MemParams::new());
        let p = limited(None, &mut t, 1000);
        let c = t.create(Some(p), Attributes::time_shared(1)).unwrap();
        let threshold = (1000.0 * PRESSURE_FRAC) as u64;
        t.charge_mem_class(c, MemClass::Other, threshold - 100)
            .unwrap();
        pressure_check(&t, &mut acct, c);
        assert_eq!(acct.pressure_events, 0);
        t.charge_mem_class(c, MemClass::Other, 200).unwrap();
        pressure_check(&t, &mut acct, c);
        assert_eq!(acct.pressure_events, 1);
    }
}
