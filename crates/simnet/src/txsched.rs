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
//!   credit. A class whose container was reparented moves, with its
//!   queued work, under the new parent at the next packet enqueued on its
//!   chain.
//!
//! The scheduler is *passive* and knows nothing about sockets or
//! containers beyond opaque class ids: the kernel resolves the owning
//! container, computes wire time from [`LinkParams`], enqueues, and asks
//! for the next dispatch whenever the wire goes idle.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use simcore::Nanos;

use crate::packet::Packet;

/// A class's position in the scheduling hierarchy: `(class id, weight)`
/// pairs, root first, owning class last.
pub type TxPath = [(u64, u32)];

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
    /// The queue is empty.
    Idle,
}

/// A transmit queueing discipline.
///
/// Implementations must be deterministic functions of the call sequence.
pub trait LinkSched {
    /// Queues a packet owned by the last class of `path`, which lists the
    /// owning class's chain from the hierarchy root (weights and parents
    /// are re-read on every enqueue, so attribute changes and reparents
    /// take effect at the next packet).
    fn enqueue(&mut self, path: &TxPath, pkt: Packet, wire: Nanos);
    /// Picks the next packet to put on the wire.
    fn dispatch(&mut self) -> Dispatch;
}

/// The baseline: one queue, arrival order, weights ignored.
#[derive(Default)]
pub struct FifoLink {
    queue: VecDeque<QueuedPkt>,
}

impl FifoLink {
    /// Creates an empty FIFO link queue.
    pub fn new() -> Self {
        FifoLink::default()
    }
}

impl LinkSched for FifoLink {
    fn enqueue(&mut self, path: &TxPath, pkt: Packet, wire: Nanos) {
        let owner = path.last().map_or(0, |&(id, _)| id);
        self.queue.push_back(QueuedPkt { pkt, owner, wire });
    }

    fn dispatch(&mut self) -> Dispatch {
        match self.queue.pop_front() {
            Some(q) => Dispatch::Start {
                pkt: q.pkt,
                owner: q.owner,
                wire: q.wire,
            },
            None => Dispatch::Idle,
        }
    }
}

/// One class in the WFQ tree. A class holds its own packet FIFO (packets
/// whose owning container is this class) and competes for its parent's
/// bandwidth against its sibling classes; its own queue competes against
/// its active children as an implicit extra child of the same weight.
struct Class {
    parent: Option<u64>,
    weight: u32,
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
}

impl Default for WfqLink {
    fn default() -> Self {
        Self::new()
    }
}

impl WfqLink {
    /// Creates an empty WFQ link scheduler.
    pub fn new() -> Self {
        WfqLink {
            classes: BTreeMap::new(),
            root: None,
        }
    }

    /// Materializes class `id` under `parent` and refreshes its weight.
    /// A class whose parent changed (its container was reparented) leaves
    /// the old parent's competition, which goes idle upward if that was
    /// its last active child, and joins the new parent's if it still has
    /// work queued below it.
    fn ensure_class(&mut self, id: u64, parent: Option<u64>, weight: u32) {
        let class = self.classes.entry(id).or_insert_with(|| Class {
            parent,
            weight,
            pass: 0.0,
            vtime: 0.0,
            self_pass: 0.0,
            active_children: BTreeSet::new(),
            queue: VecDeque::new(),
        });
        class.weight = weight.max(1);
        let old = std::mem::replace(&mut class.parent, parent);
        if old == parent {
            return;
        }
        if let Some(old) = old {
            let old_parent = self.classes.get_mut(&old).expect("live class");
            if old_parent.active_children.remove(&id) {
                self.deactivate_up(old);
            }
        }
        if self.classes[&id].active() {
            self.activate_up(id);
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

    /// From the active class `root`, follows the lowest-pass candidate
    /// down to a packet. Returns the chosen path (nodes visited, leaf
    /// last).
    fn pick(&self, root: u64) -> Vec<u64> {
        let mut path = vec![root];
        loop {
            let id = *path.last().expect("nonempty path");
            let class = &self.classes[&id];
            // Candidates: active children, plus the self-queue as an
            // implicit child keyed by this class's own id. Pass ties go to
            // the smaller id, so the self-queue wins ties against children
            // with larger ids and loses to smaller, which is stable and
            // fair-enough for an edge case strict mode mostly forbids.
            let own = (!class.queue.is_empty()).then_some((class.self_pass, id));
            let (_, next) = class
                .active_children
                .iter()
                .map(|&child| (self.classes[&child].pass, child))
                .chain(own)
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
                .expect("an active class has a candidate");
            if next == id {
                return path;
            }
            path.push(next);
        }
    }
}

impl LinkSched for WfqLink {
    fn enqueue(&mut self, path: &TxPath, pkt: Packet, wire: Nanos) {
        assert!(!path.is_empty(), "empty tx path");
        // Materialize / refresh the chain of classes.
        let mut parent = None;
        for &(id, weight) in path {
            self.ensure_class(id, parent, weight);
            parent = Some(id);
        }
        if self.root.is_none() {
            self.root = Some(path[0].0);
        }
        let leaf = path.last().expect("nonempty").0;
        let leaf_class = self.classes.get_mut(&leaf).expect("live class");
        let was_empty = leaf_class.queue.is_empty();
        leaf_class.queue.push_back(QueuedPkt {
            pkt,
            owner: leaf,
            wire,
        });
        if was_empty {
            let vtime = self.classes[&leaf].vtime;
            let c = self.classes.get_mut(&leaf).expect("live class");
            c.self_pass = c.self_pass.max(vtime);
        }
        self.activate_up(leaf);
    }

    fn dispatch(&mut self) -> Dispatch {
        let Some(root) = self.root.filter(|r| self.classes[r].active()) else {
            return Dispatch::Idle;
        };
        let path = self.pick(root);
        let leaf = *path.last().expect("nonempty pick");
        let q = self
            .classes
            .get_mut(&leaf)
            .expect("live class")
            .queue
            .pop_front()
            .expect("picked class has a packet");
        let wire_ns = q.wire.as_nanos() as f64;
        // Advance virtual time along the chosen path: at each node, the
        // selected candidate's pass becomes the node's vtime, then
        // advances by wire / weight.
        for pair in path.windows(2) {
            let (node, child) = (pair[0], pair[1]);
            let child_pass = self.classes[&child].pass;
            let weight = self.classes[&child].weight as f64;
            self.classes.get_mut(&node).expect("live class").vtime = child_pass;
            self.classes.get_mut(&child).expect("live class").pass = child_pass + wire_ns / weight;
        }
        // Self-queue service at the leaf.
        {
            let class = self.classes.get_mut(&leaf).expect("live class");
            let pass = class.self_pass;
            class.vtime = pass;
            let weight = class.weight as f64;
            class.self_pass = pass + wire_ns / weight;
        }
        self.deactivate_up(leaf);
        Dispatch::Start {
            pkt: q.pkt,
            owner: q.owner,
            wire: q.wire,
        }
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

    /// Drains the link, accumulating wire time per owner.
    fn drain(sched: &mut dyn LinkSched) -> BTreeMap<u64, Nanos> {
        let mut served = BTreeMap::new();
        while let Dispatch::Start { owner, wire, .. } = sched.dispatch() {
            *served.entry(owner).or_insert(Nanos::ZERO) += wire;
        }
        served
    }

    /// Serves `n` packets, counting them per owner; panics if the link
    /// goes idle first.
    fn serve(w: &mut WfqLink, n: usize) -> BTreeMap<u64, u32> {
        let mut served = BTreeMap::new();
        for _ in 0..n {
            match w.dispatch() {
                Dispatch::Start { owner, .. } => *served.entry(owner).or_insert(0) += 1,
                Dispatch::Idle => panic!("link went idle early"),
            }
        }
        served
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
            f.enqueue(&[(1, 1), (owner, 1)], pkt(100), Nanos::from_micros(10));
        }
        let mut order = Vec::new();
        while let Dispatch::Start { owner, .. } = f.dispatch() {
            order.push(owner);
        }
        assert_eq!(order, [7, 3, 7, 5]);
    }

    #[test]
    fn wfq_splits_by_weight_under_backlog() {
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(120);
        for _ in 0..300 {
            w.enqueue(&[(1, 1), (10, 3)], pkt(1460), wire);
            w.enqueue(&[(1, 1), (20, 1)], pkt(1460), wire);
        }
        // Serve only the first 200 packets so both classes stay
        // backlogged for everything we count.
        let served = serve(&mut w, 200);
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
            w.enqueue(&[(1, 1), (20, 1)], pkt(100), wire);
        }
        let served = drain(&mut w);
        assert_eq!(served[&20], Nanos::from_micros(500));
    }

    #[test]
    fn wfq_sleeper_rejoins_without_banked_credit() {
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(10);
        // Class 10 runs alone for a long while.
        for _ in 0..100 {
            w.enqueue(&[(1, 1), (10, 1)], pkt(100), wire);
        }
        serve(&mut w, 100);
        // Class 20 wakes: it must not get 100 packets of catch-up; under
        // equal weights the two alternate from here on.
        for _ in 0..20 {
            w.enqueue(&[(1, 1), (10, 1)], pkt(100), wire);
            w.enqueue(&[(1, 1), (20, 1)], pkt(100), wire);
        }
        let tens = serve(&mut w, 10).get(&10).copied().unwrap_or(0);
        assert!((4..=6).contains(&tens), "no alternation after wake: {tens}");
    }

    #[test]
    fn wfq_hierarchy_splits_parent_share_among_children() {
        // Tree: root → A(weight 3) → {a1(1), a2(1)}, root → B(weight 1).
        // Backlogged everywhere: A's subtree gets 75%, split evenly
        // between a1 and a2; B gets 25%.
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(120);
        for _ in 0..400 {
            w.enqueue(&[(1, 1), (10, 3), (11, 1)], pkt(1460), wire);
            w.enqueue(&[(1, 1), (10, 3), (12, 1)], pkt(1460), wire);
            w.enqueue(&[(1, 1), (20, 1)], pkt(1460), wire);
        }
        let served = serve(&mut w, 400);
        let total: u32 = served.values().sum();
        let a = (served[&11] + served[&12]) as f64 / total as f64;
        let b = served[&20] as f64 / total as f64;
        assert!((a - 0.75).abs() < 0.02, "A subtree got {a}");
        assert!((b - 0.25).abs() < 0.02, "B got {b}");
        let a1 = served[&11] as f64 / (served[&11] + served[&12]) as f64;
        assert!((a1 - 0.5).abs() < 0.02, "a1 within A got {a1}");
    }

    #[test]
    fn wfq_reparent_with_queued_packet_serves_both_then_idles() {
        // Class 5 queues under 2, then is reparented under 3 while its
        // first packet still waits. Its old parent must leave the root's
        // competition once 5 moves away, or the root stays active with
        // nothing to serve.
        let mut w = WfqLink::new();
        let wire = Nanos::from_micros(10);
        w.enqueue(&[(1, 1), (2, 1), (5, 1)], pkt(100), wire);
        w.enqueue(&[(1, 1), (3, 1), (5, 1)], pkt(100), wire);
        assert_eq!(serve(&mut w, 2), BTreeMap::from([(5, 2)]));
        assert!(matches!(w.dispatch(), Dispatch::Idle));
        // The old parent is free to compete again.
        w.enqueue(&[(1, 1), (2, 1), (6, 1)], pkt(100), wire);
        assert_eq!(drain(&mut w), BTreeMap::from([(6, wire)]));
    }

    #[test]
    fn dispatch_is_deterministic_across_identical_runs() {
        let build = || {
            let mut w = WfqLink::new();
            for i in 0..100u64 {
                let owner = 10 + (i % 3);
                w.enqueue(
                    &[(1, 1), (owner, (owner - 9) as u32)],
                    pkt(100 + (i as u32 % 7) * 100),
                    Nanos::from_micros(10 + i % 5),
                );
            }
            w
        };
        let mut a = build();
        let mut b = build();
        loop {
            match (a.dispatch(), b.dispatch()) {
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
                ) => assert_eq!((oa, wa), (ob, wb)),
                (Dispatch::Idle, Dispatch::Idle) => break,
                (x, y) => panic!("diverged: {x:?} vs {y:?}"),
            }
        }
    }
}
