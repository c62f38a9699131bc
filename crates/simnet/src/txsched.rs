//! Transmit link scheduling: a finite-bandwidth NIC model with pluggable
//! queueing disciplines.
//!
//! The paper's container attributes include network QoS values (§4.1,
//! §4.6); this module is where they bite on the *transmit* side. Outbound
//! packets are enqueued per owning container and dispatched onto a
//! finite-bandwidth wire by a queueing discipline:
//!
//! - [`FifoLink`]: a single queue in arrival order — the "unmodified
//!   kernel" baseline, where one blasting principal starves everyone.
//! - [`WfqLink`]: hierarchical weighted-fair queueing. Every container is
//!   a class in a tree mirroring the container hierarchy; at each node the
//!   link's bandwidth is divided among *active* children in proportion to
//!   their `NetQos.weight`, recursively — the same parent/child
//!   interpretation the multi-level CPU scheduler gives fixed shares.
//!   Virtual time follows the repo-wide pass/vtime pattern
//!   (`sched::multilevel`, `simdisk::ShareIoSched`): each class keeps a
//!   *pass* advanced by `wire_time / weight` per packet served; the
//!   lowest pass wins (smallest class id breaks ties); a class waking
//!   from idle rejoins at `max(pass, node vtime)` so sleepers cannot hoard
//!   credit. Optional per-class rate caps are token buckets over wire
//!   time, applied to the whole subtree below the capped class.
//!
//! The scheduler is *passive* and knows nothing about sockets or
//! containers beyond opaque class ids: the kernel resolves the owning
//! container, computes wire time from [`LinkParams`], enqueues, and asks
//! for the next dispatch whenever the wire goes idle.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use simcore::Nanos;

use crate::packet::Packet;

/// A class's position in the scheduling hierarchy: `(class id, weight,
/// rate cap in bits/sec)`, root first, owning class last.
pub type TxPath = [(u64, u32, Option<u64>)];

/// Token-bucket burst allowance for rate-capped classes, in wire bytes:
/// two full-size frames, so a capped class can always make progress
/// without ever sustaining more than its configured rate.
const BURST_WIRE_BYTES: u64 = 2 * 1500;

/// Which queueing discipline the link runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QdiscKind {
    /// Single arrival-order queue, no isolation (baseline).
    Fifo,
    /// Hierarchical weighted-fair queueing over the container tree.
    Wfq,
}

/// Static parameters of the simulated transmit link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkParams {
    /// Line rate in bits per second.
    pub bandwidth_bps: u64,
    /// Queueing discipline.
    pub qdisc: QdiscKind,
}

impl LinkParams {
    /// Creates link parameters; a zero bandwidth is rejected.
    pub fn new(bandwidth_bps: u64, qdisc: QdiscKind) -> Self {
        assert!(bandwidth_bps > 0, "link bandwidth must be nonzero");
        LinkParams {
            bandwidth_bps,
            qdisc,
        }
    }

    /// Time `wire_bytes` occupy the wire at this line rate, rounded up.
    pub fn wire_time(&self, wire_bytes: u64) -> Nanos {
        let bits = (wire_bytes as u128) * 8 * 1_000_000_000;
        let ns = bits.div_ceil(self.bandwidth_bps as u128);
        Nanos::from_nanos(ns as u64)
    }
}

/// A packet waiting on (or selected from) the link queue.
#[derive(Clone, Debug)]
struct QueuedPkt {
    pkt: Packet,
    owner: u64,
    wire: Nanos,
    /// The full class chain the packet was enqueued under, kept so a
    /// mid-run discipline swap can replay the packet into the new
    /// discipline with its hierarchy intact.
    path: Vec<(u64, u32, Option<u64>)>,
    /// Per-discipline arrival sequence number; recovers global arrival
    /// order when draining a discipline that scatters packets across
    /// per-class queues.
    seq: u64,
}

/// A queued packet exported from a [`LinkSched`] by [`LinkSched::drain`]:
/// the policy-neutral state a mid-run qdisc swap carries across — what
/// the kernel enqueued (class chain, packet, wire time) and nothing the
/// discipline invented (passes, virtual times, token buckets).
#[derive(Clone, Debug)]
pub struct TxSnapshot {
    /// The owning class chain, root first (see [`TxPath`]).
    pub path: Vec<(u64, u32, Option<u64>)>,
    /// The queued packet.
    pub pkt: Packet,
    /// Time the packet will occupy the wire.
    pub wire: Nanos,
}

/// Outcome of asking the discipline for the next packet.
#[derive(Clone, Debug)]
pub enum Dispatch {
    /// Put this packet on the wire now.
    Start {
        /// The packet to transmit.
        pkt: Packet,
        /// Class (container) charged for the wire time.
        owner: u64,
        /// Time the packet occupies the wire.
        wire: Nanos,
    },
    /// Packets are queued but every eligible class is rate-capped;
    /// nothing can start before this time.
    Throttled(Nanos),
    /// The queue is empty.
    Idle,
}

/// A transmit queueing discipline.
///
/// All methods take `now` in virtual time; implementations must be
/// deterministic functions of the call sequence.
pub trait LinkSched {
    /// Short stable name for reports ("fifo" / "wfq").
    fn name(&self) -> &'static str;
    /// Queues a packet owned by the last class of `path`, which lists the
    /// owning class's chain from the hierarchy root (weights and rate
    /// caps are re-read on every enqueue, so attribute changes take
    /// effect at the next packet).
    fn enqueue(&mut self, path: &TxPath, pkt: Packet, wire: Nanos, now: Nanos);
    /// Picks the next packet to put on the wire.
    fn dispatch(&mut self, now: Nanos) -> Dispatch;
    /// Number of packets currently queued.
    fn queued_pkts(&self) -> usize;
    /// Removes and returns every queued packet in arrival order, as
    /// policy-neutral [`TxSnapshot`]s. Used by mid-run qdisc swaps: the
    /// detaching discipline drains here and the replacement re-enqueues
    /// each snapshot in order. Discipline ledgers (virtual times, passes,
    /// token buckets) do not cross the swap.
    fn drain(&mut self) -> Vec<TxSnapshot>;
}

/// The baseline: one queue, arrival order, rate caps ignored.
#[derive(Default)]
pub struct FifoLink {
    queue: VecDeque<QueuedPkt>,
    next_seq: u64,
}

impl FifoLink {
    /// Creates an empty FIFO link queue.
    pub fn new() -> Self {
        FifoLink::default()
    }
}

impl LinkSched for FifoLink {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn enqueue(&mut self, path: &TxPath, pkt: Packet, wire: Nanos, _now: Nanos) {
        let owner = path.last().map_or(0, |&(id, _, _)| id);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(QueuedPkt {
            pkt,
            owner,
            wire,
            path: path.to_vec(),
            seq,
        });
    }

    fn dispatch(&mut self, _now: Nanos) -> Dispatch {
        match self.queue.pop_front() {
            Some(q) => Dispatch::Start {
                pkt: q.pkt,
                owner: q.owner,
                wire: q.wire,
            },
            None => Dispatch::Idle,
        }
    }

    fn queued_pkts(&self) -> usize {
        self.queue.len()
    }

    fn drain(&mut self) -> Vec<TxSnapshot> {
        self.queue
            .drain(..)
            .map(|q| TxSnapshot {
                path: q.path,
                pkt: q.pkt,
                wire: q.wire,
            })
            .collect()
    }
}

/// One class in the WFQ tree. A class holds its own packet FIFO (packets
/// whose owning container is this class) and competes for its parent's
/// bandwidth against its sibling classes; its own queue competes against
/// its active children as an implicit extra child of the same weight.
struct Class {
    parent: Option<u64>,
    weight: u32,
    rate_bps: Option<u64>,
    /// Pass of this class in its parent's competition.
    pass: f64,
    /// Virtual time of the competition among this class's children.
    vtime: f64,
    /// Pass of the implicit self-queue child in this class's competition.
    self_pass: f64,
    /// Children with queued work anywhere below them.
    active_children: BTreeSet<u64>,
    /// Packets owned directly by this class.
    queue: VecDeque<QueuedPkt>,
    /// Token bucket in bit-nanoseconds; `None` when uncapped.
    tokens: Option<u128>,
    /// Last time the bucket was refilled.
    refilled: Nanos,
}

impl Class {
    fn active(&self) -> bool {
        !self.queue.is_empty() || !self.active_children.is_empty()
    }
}

/// Hierarchical weighted-fair queueing over container classes.
pub struct WfqLink {
    classes: BTreeMap<u64, Class>,
    root: Option<u64>,
    queued: usize,
    next_seq: u64,
}

impl Default for WfqLink {
    fn default() -> Self {
        Self::new()
    }
}

/// Token math is done in bit-nanoseconds so refills stay exact integers:
/// a bucket holding `b` bits is `b * 1e9` bit-ns, and `dt` ns at `r`
/// bits/sec refills `dt * r` bit-ns.
fn burst_bitns() -> u128 {
    (BURST_WIRE_BYTES as u128) * 8 * 1_000_000_000
}

impl WfqLink {
    /// Creates an empty WFQ link scheduler.
    pub fn new() -> Self {
        WfqLink {
            classes: BTreeMap::new(),
            root: None,
            queued: 0,
            next_seq: 0,
        }
    }

    fn ensure_class(&mut self, id: u64, parent: Option<u64>, weight: u32, rate: Option<u64>) {
        let class = self.classes.entry(id).or_insert_with(|| Class {
            parent,
            weight,
            rate_bps: rate,
            pass: 0.0,
            vtime: 0.0,
            self_pass: 0.0,
            active_children: BTreeSet::new(),
            queue: VecDeque::new(),
            tokens: rate.map(|_| burst_bitns()),
            refilled: Nanos::ZERO,
        });
        class.parent = parent;
        class.weight = weight.max(1);
        if class.rate_bps != rate {
            class.rate_bps = rate;
            class.tokens = rate.map(|_| burst_bitns());
        }
    }

    fn refill(&mut self, id: u64, now: Nanos) {
        let class = self.classes.get_mut(&id).expect("live class");
        if let (Some(rate), Some(tokens)) = (class.rate_bps, class.tokens) {
            let dt = (now - class.refilled).as_nanos() as u128;
            class.tokens = Some(burst_bitns().min(tokens + dt * rate as u128));
            class.refilled = now;
        } else {
            class.refilled = now;
        }
    }

    /// Earliest time the class has `need` bit-ns of tokens, or `None`
    /// if it has them now. Call after [`WfqLink::refill`].
    fn ready_at(&self, id: u64, need: u128, now: Nanos) -> Option<Nanos> {
        let class = &self.classes[&id];
        match (class.rate_bps, class.tokens) {
            (Some(rate), Some(tokens)) if tokens < need => {
                let deficit = need - tokens;
                let wait = deficit.div_ceil(rate as u128);
                Some(now + Nanos::from_nanos(wait as u64))
            }
            _ => None,
        }
    }

    /// Marks `id` active in its parent's competition, propagating up.
    fn activate_up(&mut self, id: u64) {
        let mut cur = id;
        while let Some(parent) = self.classes[&cur].parent {
            if self.classes[&parent].active_children.contains(&cur) {
                break;
            }
            let parent_was_active = self.classes[&parent].active();
            // Rejoin rule: a class waking from idle resumes at the
            // current virtual time, never banking credit while asleep.
            let vtime = self.classes[&parent].vtime;
            let child = self.classes.get_mut(&cur).expect("live class");
            child.pass = child.pass.max(vtime);
            self.classes
                .get_mut(&parent)
                .expect("live class")
                .active_children
                .insert(cur);
            if parent_was_active {
                break;
            }
            cur = parent;
        }
    }

    /// Removes `id` from its parent's active set if it went idle,
    /// propagating up.
    fn deactivate_up(&mut self, id: u64) {
        let mut cur = id;
        while !self.classes[&cur].active() {
            match self.classes[&cur].parent {
                Some(parent) => {
                    self.classes
                        .get_mut(&parent)
                        .expect("live class")
                        .active_children
                        .remove(&cur);
                    cur = parent;
                }
                None => break,
            }
        }
    }

    /// Recursive pick: from `id`, follow lowest-pass candidates to a
    /// packet. Returns the chosen path (nodes visited, leaf last) or the
    /// earliest time the subtree becomes eligible.
    fn pick(&self, id: u64, now: Nanos) -> Result<Vec<u64>, Option<Nanos>> {
        let class = &self.classes[&id];
        // Candidates: active children, plus the self-queue as an implicit
        // child keyed by this class's own id (BTreeSet order keeps ties
        // deterministic; the self-queue wins pass ties against children
        // with larger ids and loses to smaller, which is stable and
        // fair-enough for an edge case strict mode mostly forbids).
        let mut candidates: Vec<(f64, u64, bool)> = Vec::new();
        if !class.queue.is_empty() {
            candidates.push((class.self_pass, id, true));
        }
        for &child in &class.active_children {
            candidates.push((self.classes[&child].pass, child, false));
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut earliest: Option<Nanos> = None;
        for (_, cand, is_self) in candidates {
            if is_self {
                let head = class.queue.front().expect("nonempty");
                let need = (head.pkt.wire_bytes() as u128) * 8 * 1_000_000_000;
                match self.subtree_ready(id, need, now) {
                    None => return Ok(vec![id]),
                    Some(t) => earliest = min_time(earliest, Some(t)),
                }
            } else {
                match self.pick(cand, now) {
                    Ok(mut path) => {
                        path.insert(0, id);
                        return Ok(path);
                    }
                    Err(t) => earliest = min_time(earliest, t),
                }
            }
        }
        Err(earliest)
    }

    /// Checks token buckets from `leaf` up to the root for `need`
    /// bit-ns; returns the earliest ready time if any bucket is short.
    fn subtree_ready(&self, leaf: u64, need: u128, now: Nanos) -> Option<Nanos> {
        let mut earliest: Option<Nanos> = None;
        let mut cur = Some(leaf);
        while let Some(c) = cur {
            earliest = min_time(earliest, self.ready_at(c, need, now));
            cur = self.classes[&c].parent;
        }
        earliest
    }
}

fn min_time(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl LinkSched for WfqLink {
    fn name(&self) -> &'static str {
        "wfq"
    }

    fn enqueue(&mut self, path: &TxPath, pkt: Packet, wire: Nanos, now: Nanos) {
        assert!(!path.is_empty(), "empty tx path");
        // Materialize / refresh the chain of classes.
        let mut parent = None;
        for &(id, weight, rate) in path {
            self.ensure_class(id, parent, weight, rate);
            self.refill(id, now);
            parent = Some(id);
        }
        if self.root.is_none() {
            self.root = Some(path[0].0);
        }
        let leaf = path.last().expect("nonempty").0;
        let seq = self.next_seq;
        self.next_seq += 1;
        let leaf_class = self.classes.get_mut(&leaf).expect("live class");
        let was_empty = leaf_class.queue.is_empty();
        leaf_class.queue.push_back(QueuedPkt {
            pkt,
            owner: leaf,
            wire,
            path: path.to_vec(),
            seq,
        });
        if was_empty {
            let vtime = self.classes[&leaf].vtime;
            let c = self.classes.get_mut(&leaf).expect("live class");
            c.self_pass = c.self_pass.max(vtime);
        }
        self.activate_up(leaf);
        self.queued += 1;
    }

    fn dispatch(&mut self, now: Nanos) -> Dispatch {
        let root = match self.root {
            Some(r) => r,
            None => return Dispatch::Idle,
        };
        if !self.classes[&root].active() {
            return Dispatch::Idle;
        }
        // Refill every capped class so eligibility reflects `now`.
        let capped: Vec<u64> = self
            .classes
            .iter()
            .filter(|(_, c)| c.rate_bps.is_some())
            .map(|(&id, _)| id)
            .collect();
        for id in capped {
            self.refill(id, now);
        }
        match self.pick(root, now) {
            Ok(path) => {
                let leaf = *path.last().expect("nonempty pick");
                let q = self
                    .classes
                    .get_mut(&leaf)
                    .expect("live class")
                    .queue
                    .pop_front()
                    .expect("picked class has a packet");
                self.queued -= 1;
                let wire_ns = q.wire.as_nanos() as f64;
                let need = (q.pkt.wire_bytes() as u128) * 8 * 1_000_000_000;
                // Advance virtual time along the chosen path: at each
                // node, the selected candidate's pass becomes the node's
                // vtime, then advances by wire / weight.
                for pair in path.windows(2) {
                    let (node, child) = (pair[0], pair[1]);
                    let child_pass = self.classes[&child].pass;
                    let weight = self.classes[&child].weight as f64;
                    self.classes.get_mut(&node).expect("live class").vtime = child_pass;
                    self.classes.get_mut(&child).expect("live class").pass =
                        child_pass + wire_ns / weight;
                }
                // Self-queue service at the leaf.
                {
                    let class = self.classes.get_mut(&leaf).expect("live class");
                    let pass = class.self_pass;
                    class.vtime = pass;
                    let weight = class.weight as f64;
                    class.self_pass = pass + wire_ns / weight;
                }
                // Spend tokens on every capped node of the chain.
                let mut cur = Some(leaf);
                while let Some(c) = cur {
                    let class = self.classes.get_mut(&c).expect("live class");
                    if let Some(tokens) = class.tokens {
                        class.tokens = Some(tokens.saturating_sub(need));
                    }
                    cur = class.parent;
                }
                self.deactivate_up(leaf);
                Dispatch::Start {
                    pkt: q.pkt,
                    owner: q.owner,
                    wire: q.wire,
                }
            }
            Err(Some(t)) => Dispatch::Throttled(t.max(now + Nanos::from_nanos(1))),
            // Active but nothing pickable and no ready time: impossible
            // for uncapped trees; be safe and retry shortly.
            Err(None) => Dispatch::Throttled(now + Nanos::from_nanos(1)),
        }
    }

    fn queued_pkts(&self) -> usize {
        self.queued
    }

    fn drain(&mut self) -> Vec<TxSnapshot> {
        let mut pkts: Vec<QueuedPkt> = self
            .classes
            .values_mut()
            .flat_map(|c| c.queue.drain(..))
            .collect();
        pkts.sort_by_key(|q| q.seq);
        // Everything else — classes, passes, virtual times, token
        // buckets — dies with this instance: the replacement discipline
        // rebuilds its tree from the replayed paths with fresh ledgers.
        self.classes.clear();
        self.root = None;
        self.queued = 0;
        pkts.into_iter()
            .map(|q| TxSnapshot {
                path: q.path,
                pkt: q.pkt,
                wire: q.wire,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;
    use crate::packet::{FlowKey, PacketKind};

    fn pkt(bytes: u32) -> Packet {
        Packet::new(
            FlowKey::new(IpAddr::new(10, 0, 0, 1), 4000, 80),
            PacketKind::Data { bytes },
        )
    }

    /// Drains the link: repeatedly dispatch, accumulating wire time per
    /// owner, simulating a saturated wire (next dispatch at completion).
    fn drain(sched: &mut dyn LinkSched, mut now: Nanos) -> BTreeMap<u64, Nanos> {
        let mut served = BTreeMap::new();
        loop {
            match sched.dispatch(now) {
                Dispatch::Start { owner, wire, .. } => {
                    *served.entry(owner).or_insert(Nanos::ZERO) += wire;
                    now += wire;
                }
                Dispatch::Throttled(t) => {
                    assert!(t > now, "throttle time must advance");
                    now = t;
                }
                Dispatch::Idle => return served,
            }
        }
    }

    #[test]
    fn wire_time_rounds_up() {
        let p = LinkParams::new(100_000_000, QdiscKind::Wfq);
        // 1500 bytes at 100 Mbit/s = 120 µs exactly.
        assert_eq!(p.wire_time(1500), Nanos::from_micros(120));
        // 1 byte = 80 ns.
        assert_eq!(p.wire_time(1), Nanos::from_nanos(80));
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut f = FifoLink::new();
        for owner in [7u64, 3, 7, 5] {
            f.enqueue(
                &[(1, 1, None), (owner, 1, None)],
                pkt(100),
                Nanos::from_micros(10),
                Nanos::ZERO,
            );
        }
        assert_eq!(f.queued_pkts(), 4);
        let mut order = Vec::new();
        while let Dispatch::Start { owner, .. } = f.dispatch(Nanos::ZERO) {
            order.push(owner);
        }
        assert_eq!(order, [7, 3, 7, 5]);
    }

    #[test]
    fn wfq_splits_by_weight_under_backlog() {
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(120);
        for _ in 0..300 {
            w.enqueue(&[(1, 1, None), (10, 3, None)], pkt(1460), wire, Nanos::ZERO);
            w.enqueue(&[(1, 1, None), (20, 1, None)], pkt(1460), wire, Nanos::ZERO);
        }
        // Serve only the first 200 packets so both classes stay
        // backlogged for everything we count.
        let mut served: BTreeMap<u64, u32> = BTreeMap::new();
        let mut now = Nanos::ZERO;
        for _ in 0..200 {
            match w.dispatch(now) {
                Dispatch::Start { owner, wire, .. } => {
                    *served.entry(owner).or_insert(0) += 1;
                    now += wire;
                }
                other => panic!("unexpected dispatch: {other:?}"),
            }
        }
        let heavy = served[&10] as f64;
        let light = served[&20] as f64;
        let frac = heavy / (heavy + light);
        assert!((frac - 0.75).abs() < 0.02, "3:1 weights served {frac}");
    }

    #[test]
    fn wfq_work_conserving_when_sibling_idle() {
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(10);
        for _ in 0..50 {
            w.enqueue(&[(1, 1, None), (20, 1, None)], pkt(100), wire, Nanos::ZERO);
        }
        let served = drain(&mut w, Nanos::ZERO);
        assert_eq!(served[&20], Nanos::from_micros(500));
    }

    #[test]
    fn wfq_sleeper_rejoins_without_banked_credit() {
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(10);
        // Class 10 runs alone for a long while.
        for _ in 0..100 {
            w.enqueue(&[(1, 1, None), (10, 1, None)], pkt(100), wire, Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        for _ in 0..100 {
            if let Dispatch::Start { wire, .. } = w.dispatch(now) {
                now += wire;
            }
        }
        // Class 20 wakes: it must not get 100 packets of catch-up; under
        // equal weights the two alternate from here on.
        for _ in 0..20 {
            w.enqueue(&[(1, 1, None), (10, 1, None)], pkt(100), wire, now);
            w.enqueue(&[(1, 1, None), (20, 1, None)], pkt(100), wire, now);
        }
        let mut first_ten = Vec::new();
        for _ in 0..10 {
            if let Dispatch::Start { owner, wire, .. } = w.dispatch(now) {
                first_ten.push(owner);
                now += wire;
            }
        }
        let tens = first_ten.iter().filter(|&&o| o == 10).count();
        assert!(
            (4..=6).contains(&tens),
            "no alternation after wake: {first_ten:?}"
        );
    }

    #[test]
    fn wfq_hierarchy_splits_parent_share_among_children() {
        // Tree: root → A(weight 3) → {a1(1), a2(1)}, root → B(weight 1).
        // Backlogged everywhere: A's subtree gets 75%, split evenly
        // between a1 and a2; B gets 25%.
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(120);
        for _ in 0..400 {
            w.enqueue(
                &[(1, 1, None), (10, 3, None), (11, 1, None)],
                pkt(1460),
                wire,
                Nanos::ZERO,
            );
            w.enqueue(
                &[(1, 1, None), (10, 3, None), (12, 1, None)],
                pkt(1460),
                wire,
                Nanos::ZERO,
            );
            w.enqueue(&[(1, 1, None), (20, 1, None)], pkt(1460), wire, Nanos::ZERO);
        }
        let mut served: BTreeMap<u64, u32> = BTreeMap::new();
        let mut now = Nanos::ZERO;
        for _ in 0..400 {
            match w.dispatch(now) {
                Dispatch::Start { owner, wire, .. } => {
                    *served.entry(owner).or_insert(0) += 1;
                    now += wire;
                }
                other => panic!("unexpected dispatch: {other:?}"),
            }
        }
        let total: u32 = served.values().sum();
        let a = (served[&11] + served[&12]) as f64 / total as f64;
        let b = served[&20] as f64 / total as f64;
        assert!((a - 0.75).abs() < 0.02, "A subtree got {a}");
        assert!((b - 0.25).abs() < 0.02, "B got {b}");
        let a1 = served[&11] as f64 / (served[&11] + served[&12]) as f64;
        assert!((a1 - 0.5).abs() < 0.02, "a1 within A got {a1}");
    }

    #[test]
    fn wfq_rate_cap_throttles_and_recovers() {
        // Class 10 capped at 10 Mbit/s on an otherwise idle link: after
        // the burst allowance, packets are paced at the cap.
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(1); // wire is fast; the cap binds
        let cap = Some(10_000_000u64);
        for _ in 0..10 {
            w.enqueue(&[(1, 1, None), (10, 1, cap)], pkt(1460), wire, Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        let mut sent = 0;
        let mut throttles = 0;
        while sent < 10 {
            match w.dispatch(now) {
                Dispatch::Start { wire, .. } => {
                    sent += 1;
                    now += wire;
                }
                Dispatch::Throttled(t) => {
                    throttles += 1;
                    assert!(t > now);
                    now = t;
                }
                Dispatch::Idle => panic!("queue went idle early"),
            }
        }
        assert!(throttles > 0, "cap never throttled");
        // 10 × 1500 wire bytes = 120000 bits; minus the 24000-bit burst,
        // 96000 bits must be paced at 10 Mbit/s ≈ 9.6 ms.
        assert!(
            now >= Nanos::from_micros(9600),
            "cap not enforced: finished at {now:?}"
        );
        assert!(matches!(w.dispatch(now), Dispatch::Idle));
    }

    #[test]
    fn wfq_uncapped_sibling_unaffected_by_capped_class() {
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(10);
        let cap = Some(1_000_000u64);
        for _ in 0..20 {
            w.enqueue(&[(1, 1, None), (10, 1, cap)], pkt(1460), wire, Nanos::ZERO);
            w.enqueue(&[(1, 1, None), (20, 1, None)], pkt(1460), wire, Nanos::ZERO);
        }
        // The uncapped class must be able to drain its 20 packets without
        // waiting on the capped sibling's pacing gaps.
        let mut now = Nanos::ZERO;
        let mut uncapped = 0;
        for _ in 0..200 {
            match w.dispatch(now) {
                Dispatch::Start { owner, wire, .. } => {
                    if owner == 20 {
                        uncapped += 1;
                    }
                    now += wire;
                }
                Dispatch::Throttled(t) => now = t,
                Dispatch::Idle => break,
            }
            if uncapped == 20 {
                break;
            }
        }
        assert_eq!(uncapped, 20);
        assert!(
            now < Nanos::from_millis(2),
            "uncapped class waited on the capped one: {now:?}"
        );
    }

    #[test]
    fn drain_recovers_arrival_order_and_replays_into_fresh_discipline() {
        let wire = Nanos::from_micros(10);
        let mut w = WfqLink::new();
        // Interleave three classes with distinct packet sizes so the
        // replayed order is checkable.
        for i in 0..12u32 {
            let owner = 10 + (i as u64 % 3);
            w.enqueue(
                &[(1, 1, None), (owner, 1, None)],
                pkt(100 + i),
                wire,
                Nanos::ZERO,
            );
        }
        let snaps = w.drain();
        assert_eq!(snaps.len(), 12);
        assert_eq!(w.queued_pkts(), 0);
        assert!(matches!(w.dispatch(Nanos::ZERO), Dispatch::Idle));
        // Arrival order recovered despite per-class scatter.
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.path.last().unwrap().0, 10 + (i as u64 % 3));
        }
        // Replay into a fresh FIFO: identical arrival order comes out.
        let mut f = FifoLink::new();
        for s in &snaps {
            f.enqueue(&s.path, s.pkt, s.wire, Nanos::ZERO);
        }
        let mut order = Vec::new();
        while let Dispatch::Start { owner, .. } = f.dispatch(Nanos::ZERO) {
            order.push(owner);
        }
        assert_eq!(
            order,
            snaps
                .iter()
                .map(|s| s.path.last().unwrap().0)
                .collect::<Vec<_>>()
        );
        // Replay into a fresh WFQ: still serves everything.
        let mut w2 = WfqLink::new();
        for s in snaps {
            w2.enqueue(&s.path, s.pkt, s.wire, Nanos::ZERO);
        }
        assert_eq!(w2.queued_pkts(), 12);
        let served = drain(&mut w2, Nanos::ZERO);
        assert_eq!(served.len(), 3);
    }

    #[test]
    fn dispatch_is_deterministic_across_identical_runs() {
        let build = || {
            let mut w = WfqLink::new();
            for i in 0..100u64 {
                let owner = 10 + (i % 3);
                w.enqueue(
                    &[(1, 1, None), (owner, (owner - 9) as u32, None)],
                    pkt(100 + (i as u32 % 7) * 100),
                    Nanos::from_micros(10 + i % 5),
                    Nanos::from_micros(i),
                );
            }
            w
        };
        let mut a = build();
        let mut b = build();
        let mut now = Nanos::from_micros(100);
        loop {
            let (da, db) = (a.dispatch(now), b.dispatch(now));
            match (da, db) {
                (
                    Dispatch::Start {
                        owner: oa,
                        wire: wa,
                        ..
                    },
                    Dispatch::Start {
                        owner: ob,
                        wire: wb,
                        ..
                    },
                ) => {
                    assert_eq!((oa, wa), (ob, wb));
                    now += wa;
                }
                (Dispatch::Idle, Dispatch::Idle) => break,
                (x, y) => panic!("diverged: {x:?} vs {y:?}"),
            }
        }
    }
}
