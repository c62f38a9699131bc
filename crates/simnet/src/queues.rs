//! Per-principal pending-packet queues for lazy protocol processing
//! (paper §4.7).
//!
//! Under LRP-style disciplines, the interrupt handler only *classifies* a
//! packet and appends it to the queue of its resource principal (a process
//! under LRP, a container under resource containers). A kernel thread later
//! drains the queues **in priority order of the principals** and performs
//! the actual protocol processing on the principal's account. Queues are
//! bounded: when a principal's queue is full the packet is dropped at
//! classification time, for early discard of excess traffic under overload
//! ("excess traffic is discarded early").

use std::collections::VecDeque;

use crate::packet::Packet;

/// Bounded per-principal FIFO queues of unprocessed packets.
///
/// `P` is the principal key (process id or container id). The principals
/// with pending packets sit in an ascending `Vec` beside their queues, so
/// the kernel network thread reads them as a slice and a priority scan
/// visits them in key order without walking a tree.
///
/// # Examples
///
/// ```
/// use simnet::{FlowKey, IpAddr, Packet, PacketKind, PendingQueues};
///
/// let mut q: PendingQueues<u32> = PendingQueues::new(2);
/// let f = FlowKey::new(IpAddr::new(1, 1, 1, 1), 9, 80);
/// let p = Packet::new(f, PacketKind::Syn);
/// assert!(q.push(7, p));
/// assert!(q.push(7, p));
/// assert!(!q.push(7, p)); // over capacity: early drop
/// assert_eq!(q.principals(), &[7]);
/// assert_eq!(q.peek_highest(|_| 1), Some(7));
/// assert_eq!(q.pop(7), Some(p));
/// ```
#[derive(Clone, Debug)]
pub struct PendingQueues<P: Ord + Copy> {
    /// The principals with at least one pending packet, ascending.
    principals: Vec<P>,
    /// `queues[i]` holds `principals[i]`'s packets, oldest first.
    queues: Vec<VecDeque<Packet>>,
    capacity: usize,
}

impl<P: Ord + Copy> PendingQueues<P> {
    /// Creates queues with the given per-principal capacity.
    pub fn new(capacity: usize) -> Self {
        PendingQueues {
            principals: Vec::new(),
            queues: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends a packet to `principal`'s queue. Returns `false` (an early
    /// drop, which the caller bills to `principal`) if the queue is full.
    pub fn push(&mut self, principal: P, packet: Packet) -> bool {
        match self.principals.binary_search(&principal) {
            Ok(i) if self.queues[i].len() >= self.capacity => false,
            Ok(i) => {
                self.queues[i].push_back(packet);
                true
            }
            Err(i) => {
                self.principals.insert(i, principal);
                self.queues.insert(i, VecDeque::new());
                self.queues[i].push_back(packet);
                true
            }
        }
    }

    /// Returns the highest-ranked principal with a pending packet, where
    /// rank is supplied by `priority` (higher value = served first). Ties
    /// go to the smaller principal key.
    pub fn peek_highest(&self, mut priority: impl FnMut(P) -> u32) -> Option<P> {
        let mut best: Option<(u32, P)> = None;
        for &p in &self.principals {
            let rank = priority(p);
            if best.is_none_or(|(br, _)| rank > br) {
                best = Some((rank, p));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Removes and returns the oldest packet of `principal`.
    pub fn pop(&mut self, principal: P) -> Option<Packet> {
        let i = self.principals.binary_search(&principal).ok()?;
        let pkt = self.queues[i].pop_front();
        if self.queues[i].is_empty() {
            self.principals.remove(i);
            self.queues.remove(i);
        }
        pkt
    }

    /// The principals that have pending packets, ascending.
    pub fn principals(&self) -> &[P] {
        &self.principals
    }

    /// Returns `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.principals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;
    use crate::packet::{FlowKey, PacketKind};

    fn pkt(n: u8) -> Packet {
        Packet::new(
            FlowKey::new(IpAddr::new(1, 1, 1, n), 1000, 80),
            PacketKind::Syn,
        )
    }

    /// Serves the highest-ranked principal's oldest packet.
    fn serve(q: &mut PendingQueues<u32>, priority: impl FnMut(u32) -> u32) -> Option<u32> {
        let p = q.peek_highest(priority)?;
        q.pop(p).map(|_| p)
    }

    #[test]
    fn fifo_within_principal() {
        let mut q: PendingQueues<u32> = PendingQueues::new(10);
        q.push(1, pkt(1));
        q.push(1, pkt(2));
        assert_eq!(q.pop(1), Some(pkt(1)));
        assert_eq!(q.pop(1), Some(pkt(2)));
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn priority_order_between_principals() {
        let mut q: PendingQueues<u32> = PendingQueues::new(10);
        q.push(1, pkt(1));
        q.push(2, pkt(2));
        q.push(3, pkt(3));
        // Principal 2 has the highest priority.
        let prio = |p: u32| match p {
            2 => 30,
            3 => 20,
            _ => 10,
        };
        assert_eq!(serve(&mut q, prio), Some(2));
        assert_eq!(serve(&mut q, prio), Some(3));
        assert_eq!(serve(&mut q, prio), Some(1));
        assert_eq!(serve(&mut q, prio), None);
    }

    #[test]
    fn tie_goes_to_smaller_key() {
        let mut q: PendingQueues<u32> = PendingQueues::new(10);
        q.push(9, pkt(9));
        q.push(4, pkt(4));
        assert_eq!(q.peek_highest(|_| 5), Some(4));
    }

    #[test]
    fn capacity_enforced_per_principal() {
        let mut q: PendingQueues<u32> = PendingQueues::new(2);
        assert!(q.push(1, pkt(1)));
        assert!(q.push(1, pkt(2)));
        assert!(!q.push(1, pkt(3)));
        // Another principal still has room.
        assert!(q.push(2, pkt(4)));
        assert_eq!(q.principals(), &[1, 2]);
    }

    #[test]
    fn emptied_principal_leaves_the_map() {
        let mut q: PendingQueues<u32> = PendingQueues::new(10);
        q.push(1, pkt(1));
        q.push(2, pkt(2));
        assert_eq!(serve(&mut q, |p| p), Some(2));
        assert_eq!(q.principals(), &[1]);
        assert_eq!(serve(&mut q, |p| p), Some(1));
        assert!(q.is_empty());
        assert_eq!(q.peek_highest(|p| p), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn principals_sorted() {
        let mut q: PendingQueues<u32> = PendingQueues::new(10);
        q.push(5, pkt(5));
        q.push(2, pkt(2));
        q.push(8, pkt(8));
        assert_eq!(q.principals(), &[2, 5, 8]);
    }
}
