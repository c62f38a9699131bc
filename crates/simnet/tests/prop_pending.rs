//! Differential test of the LRP pending queues: `PendingQueues` keeps its
//! principals in a sorted `Vec`, and `RefPending` below is the `BTreeMap`
//! implementation it replaced, kept verbatim. Random push, pop and
//! `peek_highest` sequences over random capacities and priority functions
//! (with many ties) must give identical results on both.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use simnet::{FlowKey, IpAddr, Packet, PacketKind, PendingQueues};

/// The previous `PendingQueues`: one `BTreeMap` entry per principal with
/// pending packets.
struct RefPending {
    queues: BTreeMap<u32, VecDeque<Packet>>,
    capacity: usize,
}

impl RefPending {
    fn new(capacity: usize) -> Self {
        RefPending {
            queues: BTreeMap::new(),
            capacity: capacity.max(1),
        }
    }

    fn push(&mut self, principal: u32, packet: Packet) -> bool {
        let q = self.queues.entry(principal).or_default();
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(packet);
        true
    }

    fn peek_highest(&self, mut priority: impl FnMut(u32) -> u32) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None;
        for &p in self.queues.keys() {
            let rank = priority(p);
            if best.is_none_or(|(br, _)| rank > br) {
                best = Some((rank, p));
            }
        }
        best.map(|(_, p)| p)
    }

    fn pop(&mut self, principal: u32) -> Option<Packet> {
        let q = self.queues.get_mut(&principal)?;
        let pkt = q.pop_front();
        if q.is_empty() {
            self.queues.remove(&principal);
        }
        pkt
    }

    fn principals(&self) -> Vec<u32> {
        self.queues.keys().copied().collect()
    }
}

/// The principals a sequence draws from.
const PRINCIPALS: u32 = 24;

#[derive(Clone, Debug)]
enum Op {
    Push {
        principal: u32,
    },
    Pop {
        principal: u32,
    },
    /// Peek with ranks drawn from `ranks`, shifted by `shift`.
    Peek {
        shift: u32,
    },
    /// Peek, then pop the principal found, as the network thread serves.
    Serve {
        shift: u32,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PRINCIPALS).prop_map(|principal| Op::Push { principal }),
        (0..PRINCIPALS).prop_map(|principal| Op::Push { principal }),
        (0..PRINCIPALS).prop_map(|principal| Op::Pop { principal }),
        (0..PRINCIPALS).prop_map(|shift| Op::Peek { shift }),
        (0..PRINCIPALS).prop_map(|shift| Op::Serve { shift }),
    ]
}

/// A packet that tells each push apart.
fn packet(n: u32) -> Packet {
    let [a, b, c, d] = n.to_be_bytes();
    Packet::new(
        FlowKey::new(IpAddr::new(a, b, c, d), 1000 + (n % 7) as u16, 80),
        PacketKind::Data { bytes: n },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_vec_queues_match_the_btreemap_reference(
        capacity in 0usize..5,
        ranks in prop::collection::vec(0u32..4, PRINCIPALS as usize),
        ops in prop::collection::vec(op(), 1..300),
    ) {
        let mut q: PendingQueues<u32> = PendingQueues::new(capacity);
        let mut r = RefPending::new(capacity);
        let ranks = &ranks;
        let rank = |shift: u32| move |p: u32| ranks[((p + shift) % PRINCIPALS) as usize];
        for (n, op) in ops.iter().enumerate() {
            match *op {
                Op::Push { principal } => {
                    let pkt = packet(n as u32);
                    prop_assert_eq!(q.push(principal, pkt), r.push(principal, pkt), "{:?}", op);
                }
                Op::Pop { principal } => {
                    prop_assert_eq!(q.pop(principal), r.pop(principal), "{:?}", op);
                }
                Op::Peek { shift } => {
                    prop_assert_eq!(
                        q.peek_highest(rank(shift)),
                        r.peek_highest(rank(shift)),
                        "{:?}",
                        op
                    );
                }
                Op::Serve { shift } => {
                    let got = q.peek_highest(rank(shift));
                    prop_assert_eq!(got, r.peek_highest(rank(shift)), "{:?}", op);
                    if let Some(p) = got {
                        prop_assert_eq!(q.pop(p), r.pop(p), "{:?}", op);
                    }
                }
            }
            prop_assert_eq!(q.principals(), &r.principals()[..], "after {:?}", op);
            prop_assert_eq!(q.is_empty(), r.queues.is_empty());
        }
    }
}
