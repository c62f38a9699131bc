//! Closed-loop HTTP clients with S-Client-style retry behaviour.
//!
//! Each client runs a classic closed loop: open a connection, send one
//! request, wait for the response, repeat — optionally reusing the
//! connection (persistent HTTP) and optionally abandoning a request that
//! exceeds a timeout and immediately retrying on a fresh connection, which
//! is what keeps offered load constant under SYN drops (the S-Client
//! technique of Banga & Druschel '97, used by the paper's measurement
//! infrastructure).

use std::collections::HashMap;

use httpsim::{encode_request, ReqKind};
use simcore::fault::{ClientFault, FaultCounts, FaultInjector, FaultPlan};
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;
use simnet::{FlowKey, IpAddr, Packet, PacketKind};
use simos::{World, WorldAction};

use crate::metrics::ClientMetrics;

/// Configuration of one client.
#[derive(Clone, Debug)]
pub struct ClientSpec {
    /// The client's source address: unique within an [`HttpClients`],
    /// whose constructor panics on a duplicate.
    pub addr: IpAddr,
    /// Destination port.
    pub port: u16,
    /// Request kind.
    pub kind: ReqKind,
    /// Document id requested.
    pub doc: u32,
    /// Cycle through `doc .. doc + doc_cycle` across successive requests
    /// (≤ 1 = always request `doc`). Lets a client sweep a document set
    /// larger than any cache, forcing steady misses on disk-backed
    /// servers.
    pub doc_cycle: u32,
    /// Metrics class. A multi-tenant scenario makes each tenant a class,
    /// so one [`HttpClients`] drives every tenant and reports per-tenant
    /// numbers.
    pub class: usize,
    /// Idle time between response and next request (0 = closed loop at
    /// full speed).
    pub think: Nanos,
    /// Abandon a request and retry on a fresh connection after this long
    /// (None = wait forever).
    pub timeout: Option<Nanos>,
    /// When the client starts.
    pub start_at: Nanos,
    /// Base retry backoff after an abandoned or refused request: the k-th
    /// consecutive failure waits `backoff * 2^min(k, 6)` before retrying
    /// (zero = classic S-Client immediate retry).
    pub backoff: Nanos,
}

impl ClientSpec {
    /// A default closed-loop non-persistent static client.
    pub fn staticloop(addr: IpAddr, class: usize) -> Self {
        ClientSpec {
            addr,
            port: 80,
            kind: ReqKind::Static,
            doc: 0,
            doc_cycle: 0,
            class,
            think: Nanos::ZERO,
            timeout: None,
            start_at: Nanos::from_micros(10),
            backoff: Nanos::ZERO,
        }
    }

    /// Sets the request kind (builder style).
    pub fn with_kind(mut self, kind: ReqKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the abandon-and-retry timeout (builder style).
    pub fn with_timeout(mut self, t: Nanos) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Sets the start time (builder style).
    pub fn starting_at(mut self, t: Nanos) -> Self {
        self.start_at = t;
        self
    }

    /// Cycles through `n` documents starting at `doc` (builder style).
    pub fn cycling_docs(mut self, n: u32) -> Self {
        self.doc_cycle = n;
        self
    }

    /// Sets the exponential retry backoff base (builder style).
    pub fn with_backoff(mut self, base: Nanos) -> Self {
        self.backoff = base;
        self
    }
}

#[derive(Debug)]
struct ClientState {
    next_port: u16,
    /// Monotonically increasing request number; stale timers are detected
    /// by comparing against it.
    req_seq: u64,
    started_at: Nanos,
    /// The current connection completed its handshake (a persistent
    /// client's next request reuses it).
    connected: bool,
    /// Waiting for a response right now.
    in_flight: bool,
    /// Offset into the client's document cycle.
    doc_off: u32,
    /// Consecutive failures since the last completed response; drives the
    /// exponential backoff when [`ClientSpec::backoff`] is non-zero.
    retries: u32,
}

/// Timer-tag sub-spaces within a client's tag block.
const TAG_START: u64 = 0;
const TAG_TIMEOUT: u64 = 1;
const TAGS_PER_CLIENT: u64 = 4;

/// A set of closed-loop HTTP clients implementing [`World`].
///
/// Tag space: client `i` uses tags `[i*4, i*4+4)`; a world that shares a
/// kernel with the clients takes its tags from far above them (as
/// [`crate::synflood::FloodedClients`] does).
pub struct HttpClients {
    specs: Vec<ClientSpec>,
    states: Vec<ClientState>,
    /// Source address → client index. Response demux is one hash lookup,
    /// which is what keeps 100k-client cluster worlds off an O(n) scan
    /// per packet.
    index: HashMap<IpAddr, usize>,
    /// Client-side fault injector (slow / abandoning / malformed clients).
    injector: Option<FaultInjector>,
    /// Collected metrics (read after the run).
    pub metrics: ClientMetrics,
}

impl HttpClients {
    /// Creates the world; metrics are windowed to
    /// `[window_start, window_end]`.
    ///
    /// # Panics
    ///
    /// If two specs share an address: the earlier client would never see
    /// a response.
    pub fn new(specs: Vec<ClientSpec>, window_start: Nanos, window_end: Nanos) -> Self {
        let n_classes = specs.iter().map(|s| s.class + 1).max().unwrap_or(1);
        let states = specs
            .iter()
            .map(|_| ClientState {
                next_port: 999,
                req_seq: 0,
                started_at: Nanos::ZERO,
                connected: false,
                in_flight: false,
                doc_off: 0,
                retries: 0,
            })
            .collect();
        let index: HashMap<IpAddr, usize> =
            specs.iter().enumerate().map(|(i, s)| (s.addr, i)).collect();
        if index.len() != specs.len() {
            // Each address kept its last client, so the first client whose
            // entry names another is a duplicate.
            let (_, dup) = specs
                .iter()
                .enumerate()
                .find(|&(i, s)| index[&s.addr] != i)
                .expect("a shorter index means a duplicate");
            panic!("duplicate client address {}", dup.addr);
        }
        HttpClients {
            specs,
            states,
            index,
            injector: None,
            metrics: ClientMetrics::new(n_classes, window_start, window_end),
        }
    }

    /// Enables client-side fault injection (builder style). Only the
    /// client category of `plan` is consulted; packet and disk faults are
    /// drawn by the kernel from its own streams, so the two never
    /// interfere.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.injector = Some(FaultInjector::new(plan));
        self
    }

    /// Counts of faults this world has injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.injector
            .as_ref()
            .map(|i| i.counts())
            .unwrap_or_default()
    }

    /// Arms every client's start timer on the kernel.
    pub fn arm(&self, k: &mut simos::Kernel) {
        self.arm_with(|tag, at| k.arm_world_timer(tag, at));
    }

    /// Arms every client's start timer through an arbitrary timer sink —
    /// the host-agnostic form of [`HttpClients::arm`], used when the world
    /// is hosted off-kernel (e.g. on a cluster front-end node).
    pub fn arm_with(&self, mut arm: impl FnMut(u64, Nanos)) {
        for (i, spec) in self.specs.iter().enumerate() {
            arm(i as u64 * TAGS_PER_CLIENT + TAG_START, spec.start_at);
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    fn client_of(&self, addr: IpAddr) -> Option<usize> {
        self.index.get(&addr).copied()
    }

    fn flow(&self, i: usize) -> FlowKey {
        FlowKey::new(
            self.specs[i].addr,
            self.states[i].next_port,
            self.specs[i].port,
        )
    }

    /// Encodes the next request, advancing the document cycle.
    fn request_len(&mut self, i: usize) -> u32 {
        let spec = &self.specs[i];
        let doc = spec.doc + self.states[i].doc_off;
        if spec.doc_cycle > 1 {
            self.states[i].doc_off = (self.states[i].doc_off + 1) % spec.doc_cycle;
        }
        encode_request(spec.kind, doc)
    }

    /// Opens a fresh connection and sends a SYN.
    fn new_connection(&mut self, i: usize, now: Nanos, actions: &mut Vec<WorldAction>) {
        let st = &mut self.states[i];
        st.next_port = st.next_port.wrapping_add(1);
        if st.next_port < 1000 {
            st.next_port = 1000;
        }
        st.req_seq += 1;
        st.started_at = now;
        st.connected = false;
        st.in_flight = true;
        actions.push(WorldAction::SendPacket {
            pkt: Packet::new(self.flow(i), PacketKind::Syn),
            delay: Nanos::ZERO,
        });
        self.arm_timeout(i, actions);
    }

    /// Sends the next request on the established connection.
    fn next_request(&mut self, i: usize, now: Nanos, actions: &mut Vec<WorldAction>) {
        let st = &mut self.states[i];
        st.req_seq += 1;
        st.started_at = now;
        st.in_flight = true;
        self.send_request(i, now, actions);
        self.arm_timeout(i, actions);
    }

    /// Emits the Data packet for the client's next request, applying any
    /// client-side fault drawn for it. An abandoning client goes silent —
    /// the request stays in flight so the timeout machinery (if armed)
    /// records the abandon and retries.
    fn send_request(&mut self, i: usize, now: Nanos, actions: &mut Vec<WorldAction>) {
        let mut len = self.request_len(i);
        let mut delay = Nanos::ZERO;
        if let Some(inj) = self.injector.as_mut() {
            match inj.client_fault(now) {
                Some(ClientFault::Abandon) => {
                    trace::emit_at(now, || TraceEventKind::FaultClientAbandon {
                        client: i as u32,
                    });
                    return;
                }
                Some(ClientFault::Malformed) => {
                    trace::emit_at(now, || TraceEventKind::FaultClientMalformed {
                        client: i as u32,
                    });
                    // Shift the encoded kind out of range so the server
                    // rejects the request as garbage.
                    len = len.wrapping_add(7);
                }
                Some(ClientFault::Slow(d)) => {
                    trace::emit_at(now, || TraceEventKind::FaultClientSlow {
                        client: i as u32,
                        delay: d,
                    });
                    delay = d;
                }
                None => {}
            }
        }
        actions.push(WorldAction::SendPacket {
            pkt: Packet::new(self.flow(i), PacketKind::Data { bytes: len }),
            delay,
        });
    }

    /// Schedules the next attempt after a failure, honouring the spec's
    /// exponential backoff (immediate S-Client retry when it is zero).
    fn retry_after_failure(&mut self, i: usize, now: Nanos, actions: &mut Vec<WorldAction>) {
        let backoff = self.specs[i].backoff;
        if backoff.is_zero() {
            self.new_connection(i, now, actions);
            return;
        }
        let st = &mut self.states[i];
        st.in_flight = false;
        // Reconnect from scratch once the backoff expires.
        st.connected = false;
        let k = st.retries.min(6);
        st.retries += 1;
        actions.push(WorldAction::SetTimer {
            tag: i as u64 * TAGS_PER_CLIENT + TAG_START,
            delay: backoff * (1u64 << k),
        });
    }

    fn arm_timeout(&self, i: usize, actions: &mut Vec<WorldAction>) {
        if let Some(t) = self.specs[i].timeout {
            actions.push(WorldAction::SetTimer {
                tag: i as u64 * TAGS_PER_CLIENT + TAG_TIMEOUT,
                delay: t,
            });
        }
    }

    /// After a completed response, either reuse the connection, think, or
    /// reconnect.
    fn after_response(&mut self, i: usize, now: Nanos, actions: &mut Vec<WorldAction>) {
        self.states[i].in_flight = false;
        let think = self.specs[i].think;
        if !think.is_zero() {
            actions.push(WorldAction::SetTimer {
                tag: i as u64 * TAGS_PER_CLIENT + TAG_START,
                delay: think,
            });
        } else if self.specs[i].kind == ReqKind::StaticKeepAlive {
            self.next_request(i, now, actions);
        } else {
            self.new_connection(i, now, actions);
        }
    }
}

impl World for HttpClients {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        let Some(i) = self.client_of(pkt.flow.src) else {
            return;
        };
        if pkt.flow != self.flow(i) {
            return; // A stale connection's packet.
        }
        match pkt.kind {
            PacketKind::SynAck => {
                if !self.states[i].in_flight {
                    return; // Duplicate SYN-ACK after we gave up.
                }
                self.states[i].connected = true;
                actions.push(WorldAction::SendPacket {
                    pkt: Packet::new(pkt.flow, PacketKind::Ack),
                    delay: Nanos::ZERO,
                });
                self.send_request(i, now, actions);
            }
            PacketKind::Data { .. } => {
                if !self.states[i].in_flight {
                    return;
                }
                let latency = now - self.states[i].started_at;
                let class = self.specs[i].class;
                self.metrics.record(class, latency, now);
                self.states[i].retries = 0;
                self.after_response(i, now, actions);
            }
            PacketKind::Rst if self.states[i].in_flight => {
                // Connection refused or torn down: retry from scratch.
                self.metrics.record_abandoned(self.specs[i].class);
                self.retry_after_failure(i, now, actions);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        let i = (tag / TAGS_PER_CLIENT) as usize;
        if i >= self.specs.len() {
            return;
        }
        match tag % TAGS_PER_CLIENT {
            TAG_START if !self.states[i].in_flight => {
                if self.states[i].connected && self.specs[i].kind == ReqKind::StaticKeepAlive {
                    self.next_request(i, now, actions);
                } else {
                    self.new_connection(i, now, actions);
                }
            }
            // Abandon the request if it is still the one we armed the
            // timer for (sequence numbers disambiguate).
            TAG_TIMEOUT
                if self.states[i].in_flight
                    && now.saturating_sub(self.states[i].started_at)
                        >= self.specs[i].timeout.unwrap_or(Nanos::MAX) =>
            {
                self.metrics.record_abandoned(self.specs[i].class);
                // Reset the server side and retry (immediately, unless the
                // spec asks for backoff).
                actions.push(WorldAction::SendPacket {
                    pkt: Packet::new(self.flow(i), PacketKind::Rst),
                    delay: Nanos::ZERO,
                });
                self.retry_after_failure(i, now, actions);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpsim::stats::shared_stats;
    use httpsim::{EventDrivenServer, ServerConfig};
    use rescon::Attributes;
    use simos::{Kernel, KernelConfig};

    fn run_clients(specs: Vec<ClientSpec>, secs: u64) -> HttpClients {
        let stats = shared_stats();
        let mut k = Kernel::new(KernelConfig::unmodified());
        k.spawn_process(
            Box::new(EventDrivenServer::new(ServerConfig::default(), stats)),
            "httpd",
            None,
            Attributes::time_shared(10),
            None,
        );
        let mut clients = HttpClients::new(specs, Nanos::ZERO, Nanos::from_secs(secs));
        clients.arm(&mut k);
        k.run(&mut clients, Nanos::from_secs(secs));
        clients
    }

    #[test]
    fn single_client_completes_requests() {
        let c = run_clients(vec![ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 0)], 1);
        assert!(c.metrics.class(0).completed > 1000);
        assert!(c.metrics.mean_latency_ms(0) < 1.0);
    }

    #[test]
    fn persistent_client_faster_than_per_request() {
        let per_req = run_clients(vec![ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 0)], 1);
        let keep = run_clients(
            vec![ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 0)
                .with_kind(ReqKind::StaticKeepAlive)],
            1,
        );
        assert!(
            keep.metrics.class(0).completed > per_req.metrics.class(0).completed,
            "{} vs {}",
            keep.metrics.class(0).completed,
            per_req.metrics.class(0).completed
        );
    }

    #[test]
    fn think_time_throttles_request_rate() {
        let c = run_clients(
            vec![ClientSpec {
                think: Nanos::from_millis(10),
                ..ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 0)
            }],
            1,
        );
        let done = c.metrics.class(0).completed;
        assert!((50..=110).contains(&done), "done = {done}");
    }

    #[test]
    #[should_panic(expected = "duplicate client address 10.0.0.1")]
    fn duplicate_addresses_are_rejected() {
        HttpClients::new(
            vec![
                ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 0),
                ClientSpec::staticloop(IpAddr::new(10, 0, 0, 2), 0),
                ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 1),
            ],
            Nanos::ZERO,
            Nanos::from_secs(1),
        );
    }

    #[test]
    fn classes_separate_metrics() {
        let c = run_clients(
            vec![
                ClientSpec::staticloop(IpAddr::new(10, 0, 0, 1), 0),
                ClientSpec::staticloop(IpAddr::new(10, 0, 0, 2), 1),
            ],
            1,
        );
        assert!(c.metrics.class(0).completed > 100);
        assert!(c.metrics.class(1).completed > 100);
    }
}
