//! The socket table: listeners, connections, and demultiplexing.
//!
//! This is a deliberately small TCP: a three-way handshake into bounded SYN
//! and accept queues, payload delivery, and FIN teardown. No sequence
//! numbers or retransmission — the paper's experiments run on a lossless
//! LAN, and the only loss that matters (SYN-queue overflow under flood,
//! §5.7) is modelled explicitly, including the paper's kernel modification
//! that *notifies the application* when a SYN is dropped.

use std::collections::{HashMap, VecDeque};

use rescon::ContainerId;
use simcore::span::{self, Outcome, Phase};
use simcore::trace::{self, TraceEventKind, NO_CONTAINER};
use simcore::{Arena, Idx, Nanos};

use crate::addr::{CidrFilter, IpAddr};
use crate::packet::{FlowKey, Packet, PacketKind};

/// Maximum segment payload used when chunking application writes.
pub const MSS: u32 = 1460;

/// Identifier of a socket; generation-checked.
pub type SockId = Idx<Socket>;

/// A listening socket with bounded SYN and accept queues.
#[derive(Debug)]
pub struct ListenState {
    /// Local port.
    pub port: u16,
    /// Foreign-address filter from the paper's new sockaddr namespace.
    pub filter: CidrFilter,
    /// Half-open connections awaiting the final ACK:
    /// `(flow, expiry, span)`.
    syn_queue: VecDeque<(FlowKey, Nanos, u64)>,
    /// Maximum half-open entries.
    pub syn_backlog: usize,
    /// Fully established connections awaiting `accept()`.
    accept_queue: VecDeque<SockId>,
    /// Maximum established-but-unaccepted connections.
    pub accept_backlog: usize,
    /// SYNs dropped because the SYN queue was full.
    pub syn_drops: u64,
    /// Established connections dropped because the accept queue was full.
    pub accept_drops: u64,
    /// Whether the application asked to be notified of SYN drops (§5.7).
    pub notify_syn_drops: bool,
}

/// Established-connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Data may flow in both directions.
    Established,
    /// The peer sent FIN; reads will see EOF after draining.
    PeerClosed,
}

/// A connection socket.
#[derive(Debug)]
pub struct ConnSocket {
    /// Flow identifying the connection.
    pub flow: FlowKey,
    /// Connection state.
    pub state: ConnState,
    /// Bytes received and not yet read by the application.
    pub recv_bytes: u64,
    /// Listener the connection came from.
    pub listener: SockId,
    /// Request span currently riding the connection (`0` = none).
    pub span: u64,
}

/// The two kinds of socket.
#[derive(Debug)]
pub enum SocketKind {
    /// A listening socket.
    Listen(ListenState),
    /// An established connection.
    Conn(ConnSocket),
}

/// A socket plus its resource-container binding (§4.6 "Binding a socket
/// ... to a container").
#[derive(Debug)]
pub struct Socket {
    /// The container charged for kernel processing on this socket.
    pub container: Option<ContainerId>,
    /// Listener or connection state.
    pub kind: SocketKind,
}

/// Result of early demultiplexing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Demux {
    /// The packet belongs to an established connection.
    Conn(SockId),
    /// The packet belongs to a listening socket (SYN / handshake ACK).
    Listen(SockId),
    /// No matching socket.
    NoMatch,
}

/// Events produced by protocol processing, interpreted by the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A packet must be transmitted.
    PacketOut(Packet),
    /// A new connection is ready to `accept()` on the listener.
    AcceptReady {
        /// The listening socket.
        listener: SockId,
        /// The newly established connection.
        conn: SockId,
    },
    /// Data (or EOF) became available on a connection.
    Readable {
        /// The readable connection.
        conn: SockId,
    },
    /// A SYN was dropped due to queue overflow and the application asked
    /// to hear about it (§5.7).
    SynDropped {
        /// The listener whose queue overflowed.
        listener: SockId,
        /// The source address of the dropped SYN.
        src: IpAddr,
    },
    /// A connection was torn down by a peer RST; `container` is whatever
    /// the socket was bound to, so the kernel can release the binding.
    ConnReset {
        /// The reset (already freed) connection socket.
        conn: SockId,
        /// Its container binding at teardown.
        container: Option<ContainerId>,
    },
}

/// The simulated socket table.
///
/// # Examples
///
/// ```
/// use simcore::Nanos;
/// use simnet::{CidrFilter, FlowKey, IpAddr, NetStack, Packet, PacketKind};
///
/// let mut stack = NetStack::new(Nanos::from_secs(5));
/// let l = stack.listen(80, CidrFilter::any(), None, 128, 128, false);
/// let flow = FlowKey::new(IpAddr::new(10, 0, 0, 1), 3000, 80);
///
/// // SYN -> SYN-ACK.
/// let ev = stack.handle_packet(Packet::new(flow, PacketKind::Syn), Nanos::ZERO);
/// assert!(matches!(ev[0], simnet::NetEvent::PacketOut(p)
///     if p.kind == PacketKind::SynAck));
///
/// // ACK establishes; the listener becomes acceptable.
/// let ev = stack.handle_packet(Packet::new(flow, PacketKind::Ack), Nanos::ZERO);
/// assert!(matches!(ev[0], simnet::NetEvent::AcceptReady { listener, .. }
///     if listener == l));
/// ```
pub struct NetStack {
    sockets: Arena<Socket>,
    listeners_by_port: HashMap<u16, Vec<SockId>>,
    conn_by_flow: HashMap<FlowKey, SockId>,
    syn_timeout: Nanos,
    /// Total established connections over the stack's lifetime.
    pub established: u64,
    /// Total connections fully closed.
    pub closed: u64,
}

impl NetStack {
    /// Creates an empty stack; half-open entries expire after
    /// `syn_timeout`.
    pub fn new(syn_timeout: Nanos) -> Self {
        NetStack {
            sockets: Arena::new(),
            listeners_by_port: HashMap::new(),
            conn_by_flow: HashMap::new(),
            syn_timeout,
            established: 0,
            closed: 0,
        }
    }

    /// Opens a listening socket on `port` with the given foreign-address
    /// `filter` (paper §4.8) and queue bounds.
    pub fn listen(
        &mut self,
        port: u16,
        filter: CidrFilter,
        container: Option<ContainerId>,
        syn_backlog: usize,
        accept_backlog: usize,
        notify_syn_drops: bool,
    ) -> SockId {
        let id = self.sockets.insert(Socket {
            container,
            kind: SocketKind::Listen(ListenState {
                port,
                filter,
                syn_queue: VecDeque::new(),
                syn_backlog: syn_backlog.max(1),
                accept_queue: VecDeque::new(),
                accept_backlog: accept_backlog.max(1),
                syn_drops: 0,
                accept_drops: 0,
                notify_syn_drops,
            }),
        });
        self.listeners_by_port.entry(port).or_default().push(id);
        id
    }

    /// Returns a socket view.
    pub fn socket(&self, id: SockId) -> Option<&Socket> {
        self.sockets.get(id)
    }

    /// Sets (or clears) the container bound to a socket.
    pub fn set_container(&mut self, id: SockId, container: Option<ContainerId>) -> bool {
        match self.sockets.get_mut(id) {
            Some(s) => {
                s.container = container;
                true
            }
            None => false,
        }
    }

    /// Returns the container bound to a socket.
    pub fn container_of(&self, id: SockId) -> Option<ContainerId> {
        self.sockets.get(id).and_then(|s| s.container)
    }

    /// Returns the request span riding a connection (`0` when none or
    /// not a connection).
    pub fn span_of(&self, id: SockId) -> u64 {
        match self.sockets.get(id) {
            Some(Socket {
                kind: SocketKind::Conn(cs),
                ..
            }) => cs.span,
            _ => 0,
        }
    }

    /// Sets the request span riding a connection (keep-alive requests
    /// mint a fresh span per request on the same connection).
    pub fn set_span(&mut self, id: SockId, span: u64) {
        if let Some(Socket {
            kind: SocketKind::Conn(cs),
            ..
        }) = self.sockets.get_mut(id)
        {
            cs.span = span;
        }
    }

    /// Early demultiplexing: finds the socket a packet belongs to.
    ///
    /// Established flows win; otherwise the listening socket on the packet's
    /// destination port whose filter matches the source with the longest
    /// prefix (§4.8).
    pub fn classify(&self, pkt: &Packet) -> Demux {
        if let Some(&id) = self.conn_by_flow.get(&pkt.flow) {
            return Demux::Conn(id);
        }
        let mut best: Option<(u8, SockId)> = None;
        if let Some(listeners) = self.listeners_by_port.get(&pkt.flow.dst_port) {
            for &l in listeners {
                let Some(sock) = self.sockets.get(l) else {
                    continue;
                };
                let SocketKind::Listen(ls) = &sock.kind else {
                    continue;
                };
                if !ls.filter.matches(pkt.flow.src) {
                    continue;
                }
                let spec = ls.filter.specificity();
                let better = match best {
                    None => true,
                    Some((bs, _)) => spec > bs,
                };
                if better {
                    best = Some((spec, l));
                }
            }
        }
        match best {
            Some((_, l)) => Demux::Listen(l),
            None => Demux::NoMatch,
        }
    }

    fn evict_expired_syns(ls: &mut ListenState, now: Nanos) {
        while let Some(&(_, expiry, sp)) = ls.syn_queue.front() {
            if expiry <= now {
                ls.syn_queue.pop_front();
                span::finish(sp, expiry, Outcome::Dropped);
            } else {
                break;
            }
        }
    }

    /// Performs protocol processing for one received packet.
    pub fn handle_packet(&mut self, pkt: Packet, now: Nanos) -> Vec<NetEvent> {
        let mut out = Vec::new();
        let demux = self.classify(&pkt);
        self.handle_classified(demux, pkt, now, &mut out);
        out
    }

    /// Performs protocol processing for a packet the caller has already
    /// classified, appending results to `out`. The interrupt path uses
    /// this to avoid re-hashing the flow (it classified for demux
    /// bookkeeping moments earlier) and to reuse one event buffer across
    /// packets instead of allocating per packet.
    pub fn handle_classified(
        &mut self,
        demux: Demux,
        pkt: Packet,
        now: Nanos,
        out: &mut Vec<NetEvent>,
    ) {
        match demux {
            Demux::Conn(id) => self.handle_conn_packet(id, pkt, out),
            Demux::Listen(id) => self.handle_listen_packet(id, pkt, now, out),
            Demux::NoMatch => match pkt.kind {
                // A stray non-RST packet draws a reset.
                PacketKind::Rst => {}
                _ => out.push(NetEvent::PacketOut(Packet::new(pkt.flow, PacketKind::Rst))),
            },
        }
    }

    fn handle_listen_packet(
        &mut self,
        id: SockId,
        pkt: Packet,
        now: Nanos,
        out: &mut Vec<NetEvent>,
    ) {
        let listener_container = self.sockets.get(id).and_then(|s| s.container);
        let Some(sock) = self.sockets.get_mut(id) else {
            return;
        };
        let SocketKind::Listen(ls) = &mut sock.kind else {
            return;
        };
        match pkt.kind {
            PacketKind::Syn => {
                Self::evict_expired_syns(ls, now);
                if ls.syn_queue.iter().any(|&(f, _, _)| f == pkt.flow) {
                    // Duplicate SYN: re-send the SYN-ACK. The freshly
                    // minted span (if any) is redundant with the queued
                    // entry's.
                    span::finish(pkt.span, now, Outcome::Dropped);
                    out.push(NetEvent::PacketOut(Packet::new(
                        pkt.flow,
                        PacketKind::SynAck,
                    )));
                    return;
                }
                if ls.syn_queue.len() >= ls.syn_backlog {
                    // BSD syncache behaviour: evict the *oldest* half-open
                    // entry to make room rather than refusing the new SYN.
                    // Legitimate handshakes complete within an RTT and are
                    // rarely the oldest; a flood's bogus entries are. The
                    // evicted entry counts as the dropped SYN, and its
                    // source is what the notification (§5.7) reports.
                    let evicted = ls.syn_queue.pop_front();
                    ls.syn_drops += 1;
                    trace::emit_at(now, || TraceEventKind::PacketDrop {
                        reason: "syn-evict",
                        container: listener_container
                            .map(|c| c.as_u64())
                            .unwrap_or(NO_CONTAINER),
                    });
                    if let Some((flow, _, sp)) = evicted {
                        span::finish(sp, now, Outcome::Dropped);
                        if ls.notify_syn_drops {
                            out.push(NetEvent::SynDropped {
                                listener: id,
                                src: flow.src,
                            });
                        }
                    }
                }
                ls.syn_queue
                    .push_back((pkt.flow, now + self.syn_timeout, pkt.span));
                out.push(NetEvent::PacketOut(Packet::new(
                    pkt.flow,
                    PacketKind::SynAck,
                )));
            }
            PacketKind::Ack => {
                Self::evict_expired_syns(ls, now);
                let pos = ls.syn_queue.iter().position(|&(f, _, _)| f == pkt.flow);
                let Some(pos) = pos else {
                    return; // Stray or expired handshake.
                };
                let sp = ls.syn_queue.remove(pos).map(|(_, _, sp)| sp).unwrap_or(0);
                if ls.accept_queue.len() >= ls.accept_backlog {
                    ls.accept_drops += 1;
                    trace::emit_at(now, || TraceEventKind::PacketDrop {
                        reason: "accept-overflow",
                        container: listener_container
                            .map(|c| c.as_u64())
                            .unwrap_or(NO_CONTAINER),
                    });
                    span::finish(sp, now, Outcome::Dropped);
                    out.push(NetEvent::PacketOut(Packet::new(pkt.flow, PacketKind::Rst)));
                    return;
                }
                // The handshake is complete: the request now waits for the
                // application to accept it.
                span::transition(sp, Phase::AcceptWait, now);
                let conn = self.sockets.insert(Socket {
                    container: listener_container,
                    kind: SocketKind::Conn(ConnSocket {
                        flow: pkt.flow,
                        state: ConnState::Established,
                        recv_bytes: 0,
                        listener: id,
                        span: sp,
                    }),
                });
                // Re-borrow the listener (the arena insert above may have
                // moved storage).
                let Some(sock) = self.sockets.get_mut(id) else {
                    return;
                };
                let SocketKind::Listen(ls) = &mut sock.kind else {
                    return;
                };
                ls.accept_queue.push_back(conn);
                self.conn_by_flow.insert(pkt.flow, conn);
                self.established += 1;
                out.push(NetEvent::AcceptReady { listener: id, conn });
            }
            // Payload or teardown segments for a flow the stack no longer
            // knows draw a reset, as in real TCP.
            PacketKind::Data { .. } | PacketKind::Fin => {
                out.push(NetEvent::PacketOut(Packet::new(pkt.flow, PacketKind::Rst)));
            }
            // An RST for a half-open connection frees its SYN-queue slot
            // immediately (RFC 793 SYN-RECEIVED handling).
            PacketKind::Rst => {
                ls.syn_queue.retain(|&(f, _, sp)| {
                    if f == pkt.flow {
                        span::finish(sp, now, Outcome::Dropped);
                        false
                    } else {
                        true
                    }
                });
            }
            PacketKind::SynAck => {}
        }
    }

    fn handle_conn_packet(&mut self, id: SockId, pkt: Packet, out: &mut Vec<NetEvent>) {
        let Some(sock) = self.sockets.get_mut(id) else {
            return;
        };
        let SocketKind::Conn(cs) = &mut sock.kind else {
            return;
        };
        match pkt.kind {
            PacketKind::Data { bytes } => {
                cs.recv_bytes += bytes as u64;
                out.push(NetEvent::Readable { conn: id });
            }
            PacketKind::Fin => {
                cs.state = ConnState::PeerClosed;
                out.push(NetEvent::PacketOut(Packet::new(pkt.flow, PacketKind::Ack)));
                out.push(NetEvent::Readable { conn: id });
            }
            PacketKind::Rst => {
                let flow = cs.flow;
                self.conn_by_flow.remove(&flow);
                self.remove_from_accept_queue(id);
                let container = self.sockets.get(id).and_then(|s| s.container);
                self.sockets.remove(id);
                self.closed += 1;
                out.push(NetEvent::ConnReset {
                    conn: id,
                    container,
                });
            }
            PacketKind::Ack => {}
            PacketKind::Syn | PacketKind::SynAck => {}
        }
    }

    fn remove_from_accept_queue(&mut self, conn: SockId) {
        let listener = match self.sockets.get(conn) {
            Some(Socket {
                kind: SocketKind::Conn(cs),
                ..
            }) => cs.listener,
            _ => return,
        };
        if let Some(Socket {
            kind: SocketKind::Listen(ls),
            ..
        }) = self.sockets.get_mut(listener)
        {
            ls.accept_queue.retain(|&c| c != conn);
        }
    }

    /// Accepts the next established connection on a listener, if any.
    pub fn accept(&mut self, listener: SockId) -> Option<SockId> {
        loop {
            let next = match self.sockets.get_mut(listener) {
                Some(Socket {
                    kind: SocketKind::Listen(ls),
                    ..
                }) => ls.accept_queue.pop_front()?,
                _ => return None,
            };
            // The connection may have been reset while queued.
            if self.sockets.contains(next) {
                return Some(next);
            }
        }
    }

    /// Returns how many connections are waiting in a listener's accept
    /// queue.
    pub fn accept_queue_len(&self, listener: SockId) -> usize {
        match self.sockets.get(listener) {
            Some(Socket {
                kind: SocketKind::Listen(ls),
                ..
            }) => ls.accept_queue.len(),
            _ => 0,
        }
    }

    /// Reads (consumes) all buffered bytes; returns `(bytes, eof)`.
    pub fn read(&mut self, conn: SockId) -> (u64, bool) {
        match self.sockets.get_mut(conn) {
            Some(Socket {
                kind: SocketKind::Conn(cs),
                ..
            }) => {
                let n = cs.recv_bytes;
                cs.recv_bytes = 0;
                (n, cs.state == ConnState::PeerClosed)
            }
            _ => (0, true),
        }
    }

    /// Returns `true` if a connection has unread data or a pending EOF.
    pub fn readable(&self, conn: SockId) -> bool {
        match self.sockets.get(conn) {
            Some(Socket {
                kind: SocketKind::Conn(cs),
                ..
            }) => cs.recv_bytes > 0 || cs.state == ConnState::PeerClosed,
            _ => false,
        }
    }

    /// Queues `bytes` of payload for transmission; returns the segments to
    /// send (MSS-sized).
    pub fn send(&mut self, conn: SockId, bytes: u64) -> Vec<Packet> {
        let (flow, sp) = match self.sockets.get(conn) {
            Some(Socket {
                kind: SocketKind::Conn(cs),
                ..
            }) => (cs.flow, cs.span),
            _ => return Vec::new(),
        };
        let mut out = Vec::new();
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(MSS as u64) as u32;
            out.push(Packet::new(flow, PacketKind::Data { bytes: chunk }).with_span(sp));
            remaining -= chunk as u64;
        }
        out
    }

    /// Closes a connection from the application side; returns the FIN to
    /// transmit. The socket is freed.
    pub fn close(&mut self, conn: SockId) -> Option<Packet> {
        let flow = match self.sockets.get(conn) {
            Some(Socket {
                kind: SocketKind::Conn(cs),
                ..
            }) => cs.flow,
            _ => return None,
        };
        self.remove_from_accept_queue(conn);
        self.conn_by_flow.remove(&flow);
        self.sockets.remove(conn);
        self.closed += 1;
        Some(Packet::new(flow, PacketKind::Fin))
    }

    /// Closes a listening socket: it leaves its port's listeners and the
    /// socket table, with its half-open connections. The caller first
    /// drains the accept queue ([`NetStack::accept`]) and closes each
    /// queued connection like an accepted one.
    pub fn close_listen(&mut self, listener: SockId) {
        let Some(Socket {
            kind: SocketKind::Listen(ls),
            ..
        }) = self.sockets.get(listener)
        else {
            return;
        };
        debug_assert!(
            ls.accept_queue.is_empty(),
            "listener closed with queued connections"
        );
        if let Some(v) = self.listeners_by_port.get_mut(&ls.port) {
            v.retain(|&l| l != listener);
        }
        self.sockets.remove(listener);
    }

    /// Returns listener drop counters `(syn_drops, accept_drops)`.
    pub fn listener_drops(&self, listener: SockId) -> (u64, u64) {
        match self.sockets.get(listener) {
            Some(Socket {
                kind: SocketKind::Listen(ls),
                ..
            }) => (ls.syn_drops, ls.accept_drops),
            _ => (0, 0),
        }
    }

    /// Returns the number of live sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Returns `(bound container, half-open entries)` for every listening
    /// socket, in slot order; used by the metrics sampler to report
    /// per-container SYN-queue occupancy.
    pub fn listener_syn_occupancy(&self) -> Vec<(Option<ContainerId>, usize)> {
        self.sockets
            .iter()
            .filter_map(|(_, s)| match &s.kind {
                SocketKind::Listen(ls) => Some((s.container, ls.syn_queue.len())),
                SocketKind::Conn(_) => None,
            })
            .collect()
    }

    /// Returns the number of half-open entries on a listener.
    pub fn syn_queue_len(&self, listener: SockId) -> usize {
        match self.sockets.get(listener) {
            Some(Socket {
                kind: SocketKind::Listen(ls),
                ..
            }) => ls.syn_queue.len(),
            _ => 0,
        }
    }

    /// Evicts expired half-open entries from a listener's SYN queue.
    /// Eviction is otherwise lazy (it runs when the listener processes a
    /// handshake packet), so admission control — which refuses packets
    /// *before* they reach the protocol code — must trigger it
    /// explicitly or stale flood entries would pin the queue at its
    /// budget forever.
    pub fn expire_syns(&mut self, listener: SockId, now: Nanos) {
        if let Some(Socket {
            kind: SocketKind::Listen(ls),
            ..
        }) = self.sockets.get_mut(listener)
        {
            Self::evict_expired_syns(ls, now);
        }
    }

    /// Whether a listener asked to be notified of dropped SYNs (§5.7).
    /// `false` for non-listeners.
    pub fn notify_syn_drops(&self, listener: SockId) -> bool {
        match self.sockets.get(listener) {
            Some(Socket {
                kind: SocketKind::Listen(ls),
                ..
            }) => ls.notify_syn_drops,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u8, port: u16) -> FlowKey {
        FlowKey::new(IpAddr::new(10, 0, 0, n), 3000 + n as u16, port)
    }

    fn stack_with_listener() -> (NetStack, SockId) {
        let mut s = NetStack::new(Nanos::from_secs(5));
        let l = s.listen(80, CidrFilter::any(), None, 4, 4, false);
        (s, l)
    }

    fn establish(s: &mut NetStack, f: FlowKey, now: Nanos) -> SockId {
        s.handle_packet(Packet::new(f, PacketKind::Syn), now);
        let ev = s.handle_packet(Packet::new(f, PacketKind::Ack), now);
        match ev[0] {
            NetEvent::AcceptReady { conn, .. } => conn,
            _ => panic!("expected AcceptReady, got {ev:?}"),
        }
    }

    #[test]
    fn three_way_handshake() {
        let (mut s, l) = stack_with_listener();
        let f = flow(1, 80);
        let ev = s.handle_packet(Packet::new(f, PacketKind::Syn), Nanos::ZERO);
        assert_eq!(
            ev,
            vec![NetEvent::PacketOut(Packet::new(f, PacketKind::SynAck))]
        );
        assert_eq!(s.syn_queue_len(l), 1);
        let conn = establish(&mut s, f, Nanos::ZERO);
        assert_eq!(s.syn_queue_len(l), 0);
        assert_eq!(s.accept(l), Some(conn));
        assert_eq!(s.accept(l), None);
        assert_eq!(s.established, 1);
    }

    #[test]
    fn duplicate_syn_resends_synack_without_new_entry() {
        let (mut s, l) = stack_with_listener();
        let f = flow(1, 80);
        s.handle_packet(Packet::new(f, PacketKind::Syn), Nanos::ZERO);
        let ev = s.handle_packet(Packet::new(f, PacketKind::Syn), Nanos::ZERO);
        assert_eq!(
            ev,
            vec![NetEvent::PacketOut(Packet::new(f, PacketKind::SynAck))]
        );
        assert_eq!(s.syn_queue_len(l), 1);
    }

    #[test]
    fn syn_queue_overflow_evicts_oldest_and_counts() {
        let (mut s, l) = stack_with_listener(); // backlog 4
        for i in 0..6 {
            s.handle_packet(Packet::new(flow(i, 80), PacketKind::Syn), Nanos::ZERO);
        }
        assert_eq!(s.syn_queue_len(l), 4);
        assert_eq!(s.listener_drops(l).0, 2);
        // The two oldest entries (0 and 1) were evicted: their handshakes
        // can no longer complete, while the newest can.
        let ev = s.handle_packet(Packet::new(flow(0, 80), PacketKind::Ack), Nanos::ZERO);
        assert!(ev.is_empty());
        let ev = s.handle_packet(Packet::new(flow(5, 80), PacketKind::Ack), Nanos::ZERO);
        assert!(matches!(ev[0], NetEvent::AcceptReady { .. }));
    }

    #[test]
    fn syn_drop_notification_reports_evicted_source() {
        let mut s = NetStack::new(Nanos::from_secs(5));
        let l = s.listen(80, CidrFilter::any(), None, 1, 4, true);
        s.handle_packet(Packet::new(flow(1, 80), PacketKind::Syn), Nanos::ZERO);
        let ev = s.handle_packet(Packet::new(flow(2, 80), PacketKind::Syn), Nanos::ZERO);
        // The *evicted* (oldest) entry is the dropped one; the new SYN is
        // answered.
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[0],
            NetEvent::SynDropped {
                listener: l,
                src: IpAddr::new(10, 0, 0, 1)
            }
        );
        assert!(matches!(ev[1], NetEvent::PacketOut(p) if p.kind == PacketKind::SynAck));
    }

    #[test]
    fn expired_syns_are_evicted() {
        let (mut s, l) = stack_with_listener();
        for i in 0..4 {
            s.handle_packet(Packet::new(flow(i, 80), PacketKind::Syn), Nanos::ZERO);
        }
        assert_eq!(s.syn_queue_len(l), 4);
        // 6 s later the old entries have expired: a new SYN fits.
        let ev = s.handle_packet(
            Packet::new(flow(9, 80), PacketKind::Syn),
            Nanos::from_secs(6),
        );
        assert!(matches!(ev[0], NetEvent::PacketOut(_)));
        assert_eq!(s.syn_queue_len(l), 1);
        // The expired handshake can no longer complete.
        let ev = s.handle_packet(
            Packet::new(flow(0, 80), PacketKind::Ack),
            Nanos::from_secs(6),
        );
        assert!(ev.is_empty());
    }

    #[test]
    fn accept_queue_overflow_resets() {
        let mut s = NetStack::new(Nanos::from_secs(5));
        let l = s.listen(80, CidrFilter::any(), None, 16, 2, false);
        for i in 0..3 {
            let f = flow(i, 80);
            s.handle_packet(Packet::new(f, PacketKind::Syn), Nanos::ZERO);
            let ev = s.handle_packet(Packet::new(f, PacketKind::Ack), Nanos::ZERO);
            if i < 2 {
                assert!(matches!(ev[0], NetEvent::AcceptReady { .. }));
            } else {
                assert_eq!(
                    ev,
                    vec![NetEvent::PacketOut(Packet::new(f, PacketKind::Rst))]
                );
            }
        }
        assert_eq!(s.listener_drops(l).1, 1);
    }

    #[test]
    fn data_and_read() {
        let (mut s, _l) = stack_with_listener();
        let f = flow(1, 80);
        let conn = establish(&mut s, f, Nanos::ZERO);
        let ev = s.handle_packet(Packet::new(f, PacketKind::Data { bytes: 100 }), Nanos::ZERO);
        assert_eq!(ev, vec![NetEvent::Readable { conn }]);
        assert!(s.readable(conn));
        assert_eq!(s.read(conn), (100, false));
        assert!(!s.readable(conn));
        assert_eq!(s.read(conn), (0, false));
    }

    #[test]
    fn fin_yields_eof() {
        let (mut s, _l) = stack_with_listener();
        let f = flow(1, 80);
        let conn = establish(&mut s, f, Nanos::ZERO);
        let ev = s.handle_packet(Packet::new(f, PacketKind::Fin), Nanos::ZERO);
        assert_eq!(ev.len(), 2);
        assert_eq!(s.read(conn), (0, true));
    }

    #[test]
    fn send_segments_by_mss() {
        let (mut s, _l) = stack_with_listener();
        let conn = establish(&mut s, flow(1, 80), Nanos::ZERO);
        let pkts = s.send(conn, 3000);
        assert_eq!(pkts.len(), 3);
        let total: u32 = pkts.iter().map(|p| p.kind.payload_bytes()).sum();
        assert_eq!(total, 3000);
        assert!(pkts.iter().all(|p| p.kind.payload_bytes() <= MSS));
        assert!(s.send(conn, 0).is_empty());
    }

    #[test]
    fn close_frees_and_emits_fin() {
        let (mut s, _l) = stack_with_listener();
        let f = flow(1, 80);
        let conn = establish(&mut s, f, Nanos::ZERO);
        let fin = s.close(conn).unwrap();
        assert_eq!(fin.kind, PacketKind::Fin);
        assert_eq!(s.closed, 1);
        // Later packets to the dead flow draw a reset.
        let ev = s.handle_packet(Packet::new(f, PacketKind::Data { bytes: 1 }), Nanos::ZERO);
        assert_eq!(
            ev,
            vec![NetEvent::PacketOut(Packet::new(f, PacketKind::Rst))]
        );
    }

    #[test]
    fn rst_tears_down_even_in_accept_queue() {
        let (mut s, l) = stack_with_listener();
        let f = flow(1, 80);
        let _conn = establish(&mut s, f, Nanos::ZERO);
        s.handle_packet(Packet::new(f, PacketKind::Rst), Nanos::ZERO);
        assert_eq!(s.accept(l), None);
        assert_eq!(s.closed, 1);
    }

    #[test]
    fn filter_demux_longest_prefix_wins() {
        let mut s = NetStack::new(Nanos::from_secs(5));
        let l_any = s.listen(80, CidrFilter::any(), None, 4, 4, false);
        let l_net = s.listen(
            80,
            CidrFilter::new(IpAddr::new(10, 0, 0, 0), 8),
            None,
            4,
            4,
            false,
        );
        let l_host = s.listen(
            80,
            CidrFilter::new(IpAddr::new(10, 0, 0, 7), 32),
            None,
            4,
            4,
            false,
        );
        let probe = |s: &NetStack, a: IpAddr| {
            s.classify(&Packet::new(FlowKey::new(a, 1, 80), PacketKind::Syn))
        };
        assert_eq!(probe(&s, IpAddr::new(10, 0, 0, 7)), Demux::Listen(l_host));
        assert_eq!(probe(&s, IpAddr::new(10, 1, 2, 3)), Demux::Listen(l_net));
        assert_eq!(probe(&s, IpAddr::new(99, 0, 0, 1)), Demux::Listen(l_any));
    }

    #[test]
    fn classify_no_listener_is_nomatch() {
        let s = NetStack::new(Nanos::from_secs(5));
        let d = s.classify(&Packet::new(flow(1, 81), PacketKind::Syn));
        assert_eq!(d, Demux::NoMatch);
    }

    #[test]
    fn established_flow_beats_listener() {
        let (mut s, _l) = stack_with_listener();
        let f = flow(1, 80);
        let conn = establish(&mut s, f, Nanos::ZERO);
        assert_eq!(
            s.classify(&Packet::new(f, PacketKind::Data { bytes: 1 })),
            Demux::Conn(conn)
        );
    }

    #[test]
    fn close_listen_removes_the_listener() {
        let (mut s, l) = stack_with_listener();
        let conn = establish(&mut s, flow(1, 80), Nanos::ZERO);
        assert_eq!(s.accept(l), Some(conn));
        s.close_listen(l);
        assert!(s.socket(l).is_none());
        assert_eq!(
            s.classify(&Packet::new(flow(2, 80), PacketKind::Syn)),
            Demux::NoMatch
        );
        // The accepted connection outlives its listener.
        assert_eq!(s.socket_count(), 1);
        assert_eq!(
            s.classify(&Packet::new(flow(1, 80), PacketKind::Data { bytes: 1 })),
            Demux::Conn(conn)
        );
    }

    #[test]
    fn container_binding_roundtrip() {
        let (mut s, l) = stack_with_listener();
        let mut ct = rescon::ContainerTable::new();
        let c = ct.create(None, rescon::Attributes::time_shared(5)).unwrap();
        assert!(s.set_container(l, Some(c)));
        assert_eq!(s.container_of(l), Some(c));
        // Connections inherit the listener's container at establishment.
        let conn = establish(&mut s, flow(1, 80), Nanos::ZERO);
        assert_eq!(s.container_of(conn), Some(c));
    }
}
