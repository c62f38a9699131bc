//! The SYN flooder of §5.7: "a set of 'malicious' clients sent bogus SYN
//! packets to the server's HTTP port, at a high rate."
//!
//! Open-loop: the flooder never completes a handshake; it just cycles
//! source addresses through a configurable block (so the server's
//! per-prefix defense has something to isolate) and keeps a constant
//! aggregate SYN rate. [`FloodedClients`] puts it next to well-behaved
//! clients behind one kernel.

use simcore::Nanos;
use simnet::{FlowKey, IpAddr, Packet, PacketKind};
use simos::{World, WorldAction};

use crate::clients::HttpClients;

/// The flooder's one timer tag, far above any client's tags.
const FLOOD_TAG: u64 = 1 << 40;
/// SYNs sent per timer tick (batching keeps the event count sane at high
/// rates).
const BURST: u32 = 8;
/// When the flood starts.
const START_AT: Nanos = Nanos::from_millis(1);

/// An open-loop SYN generator.
pub struct SynFlood {
    /// First address of the attacker block.
    pub base: IpAddr,
    /// Number of distinct source addresses to cycle through.
    pub hosts: u32,
    /// Aggregate SYN rate (SYNs per second); 0 disables the flood.
    pub rate_per_sec: f64,
    /// Destination port.
    pub port: u16,
    next_host: u32,
    next_port: u16,
    /// Total SYNs sent.
    pub sent: u64,
}

impl SynFlood {
    /// Creates a flooder from `hosts` addresses starting at `base`.
    pub fn new(base: IpAddr, hosts: u32, rate_per_sec: f64, port: u16) -> Self {
        SynFlood {
            base,
            hosts: hosts.max(1),
            rate_per_sec,
            port,
            next_host: 0,
            next_port: 10_000,
            sent: 0,
        }
    }

    /// Arms the flood-start timer.
    pub fn arm(&self, k: &mut simos::Kernel) {
        if self.rate_per_sec > 0.0 {
            k.arm_world_timer(FLOOD_TAG, START_AT);
        }
    }

    fn interval(&self) -> Nanos {
        Nanos::from_micros_f64(BURST as f64 / self.rate_per_sec * 1e6)
    }

    fn next_addr(&mut self) -> IpAddr {
        let a = IpAddr(self.base.0.wrapping_add(self.next_host));
        self.next_host = (self.next_host + 1) % self.hosts;
        a
    }
}

impl World for SynFlood {
    fn on_packet(&mut self, _pkt: Packet, _now: Nanos, _actions: &mut Vec<WorldAction>) {
        // Bogus SYNs: SYN-ACKs are ignored, handshakes never complete.
    }

    fn on_timer(&mut self, _tag: u64, _now: Nanos, actions: &mut Vec<WorldAction>) {
        if self.rate_per_sec <= 0.0 {
            return;
        }
        for _ in 0..BURST {
            let src = self.next_addr();
            self.next_port = self.next_port.wrapping_add(1).max(1024);
            self.sent += 1;
            actions.push(WorldAction::SendPacket {
                pkt: Packet::new(
                    FlowKey::new(src, self.next_port, self.port),
                    PacketKind::Syn,
                ),
                delay: Nanos::ZERO,
            });
        }
        actions.push(WorldAction::SetTimer {
            tag: FLOOD_TAG,
            delay: self.interval(),
        });
    }
}

/// Well-behaved clients plus a flooder behind one kernel: the world of
/// the §5.7 experiments.
pub struct FloodedClients {
    /// The well-behaved clients.
    pub clients: HttpClients,
    /// The attacker.
    pub flood: SynFlood,
}

impl FloodedClients {
    /// Arms the clients' start timers, then the flood's.
    pub fn arm(&self, k: &mut simos::Kernel) {
        self.clients.arm(k);
        self.flood.arm(k);
    }
}

impl World for FloodedClients {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        // The flooder ignores replies, and the clients ignore packets for
        // addresses they do not own.
        self.clients.on_packet(pkt, now, actions);
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        if tag == FLOOD_TAG {
            self.flood.on_timer(tag, now, actions);
        } else {
            self.clients.on_timer(tag, now, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_respected() {
        let mut f = SynFlood::new(IpAddr::new(192, 168, 0, 0), 256, 10_000.0, 80);
        let mut actions = Vec::new();
        // Simulate ticks for one virtual second.
        let mut now = Nanos::ZERO;
        let mut sent = 0u64;
        while now < Nanos::from_secs(1) {
            actions.clear();
            f.on_timer(FLOOD_TAG, now, &mut actions);
            sent += actions
                .iter()
                .filter(|a| matches!(a, WorldAction::SendPacket { .. }))
                .count() as u64;
            let delay = actions
                .iter()
                .find_map(|a| match a {
                    WorldAction::SetTimer {
                        tag: FLOOD_TAG,
                        delay,
                    } => Some(*delay),
                    _ => None,
                })
                .expect("re-armed on the flood tag");
            now += delay;
        }
        let err = (sent as f64 - 10_000.0).abs() / 10_000.0;
        assert!(err < 0.01, "sent = {sent}");
    }

    #[test]
    fn addresses_cycle_through_block() {
        let mut f = SynFlood::new(IpAddr::new(192, 168, 0, 0), 4, 1000.0, 80);
        let mut actions = Vec::new();
        f.on_timer(FLOOD_TAG, Nanos::ZERO, &mut actions);
        let srcs: Vec<IpAddr> = actions
            .iter()
            .filter_map(|a| match a {
                WorldAction::SendPacket { pkt, .. } => Some(pkt.flow.src),
                _ => None,
            })
            .collect();
        assert_eq!(srcs.len(), 8);
        // 4 distinct hosts cycled twice.
        let distinct: std::collections::HashSet<_> = srcs.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn zero_rate_sends_nothing() {
        let mut f = SynFlood::new(IpAddr::new(192, 168, 0, 0), 4, 0.0, 80);
        let mut actions = Vec::new();
        f.on_timer(FLOOD_TAG, Nanos::ZERO, &mut actions);
        assert!(actions.is_empty());
    }
}
