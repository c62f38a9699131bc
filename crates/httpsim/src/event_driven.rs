//! The single-process event-driven server (thttpd derivative) used in all
//! of the paper's experiments.
//!
//! One thread multiplexes every connection. Per §4.8 ("Containers in an
//! event-driven server", Figure 10), when containers are enabled the
//! server creates a resource container per connection, binds the
//! connection's socket to it, and sets its thread's resource binding to
//! the connection's container while working on its behalf — so both its
//! user-level work and the kernel's network processing are charged to the
//! right activity.

use std::collections::HashMap;

use rescon::{Attributes, ContainerFd, ContainerId};

use sched::TaskId;
use simcore::slab::SockTable;
use simcore::trace::NO_CONTAINER;
use simcore::Nanos;
use simnet::{CidrFilter, IpAddr, SockId, Socket};
use simos::{AppEvent, AppHandler, ListenSpec, SysCtx};

use crate::cgi::CgiWorker;
use crate::request::{decode_request, ReqKind};
use crate::stats::SharedStats;

/// Which readiness API the server uses (§5.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventApi {
    /// Classic `select()`: each call scans the whole interest set.
    Select,
    /// The scalable event API of [Banga/Druschel/Mogul '98]: O(1) event
    /// delivery, in container-priority order when containers are enabled.
    Scalable,
}

/// A client class: a filtered listen socket with its own priority (§4.8).
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Label for reports.
    pub name: String,
    /// Foreign-address filter selecting this class's clients.
    pub filter: CidrFilter,
    /// Numeric priority of the class's container (0 = starvable).
    pub priority: u32,
    /// Ask the kernel for SYN-drop notifications on this listener.
    pub notify_syn_drops: bool,
}

impl ClassSpec {
    /// The default single class: everyone, priority 10.
    pub fn default_class() -> Self {
        ClassSpec {
            name: "default".to_string(),
            filter: CidrFilter::any(),
            priority: 10,
            notify_syn_drops: false,
        }
    }
}

/// How static documents are backed (what a request pays beyond parsing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileBacking {
    /// Every document is resident in memory, as in the paper's §5.3
    /// experiments (a single cached 1 KB file).
    AlwaysCached,
    /// Documents live on the simulated disk: every static request issues
    /// `read_file`, and misses in the kernel's accounted buffer cache go
    /// through the I/O scheduler with the service time charged to the
    /// connection's container.
    Disk {
        /// Offset added to document ids to form on-disk file ids, so that
        /// servers with disjoint document trees do not share cache
        /// entries (e.g. `tenant << 32`).
        file_base: u64,
    },
}

/// Tag-space bit distinguishing disk-read completions from compute
/// continuations (connection ids stay well below this).
const DISK_TAG: u64 = 1 << 63;

/// CGI response size in bytes.
const CGI_RESPONSE_BYTES: u64 = 1024;
/// Prefix length the SYN-flood defense isolates a flood source under.
const DEFENSE_MASK: u8 = 16;
/// SYN-drop notices from one prefix before the defense isolates it.
const DEFENSE_THRESHOLD: u32 = 16;

/// CGI sandbox configuration (§5.6): a fixed-share parent container with a
/// CPU limit, under which every CGI request's container is reparented.
#[derive(Clone, Copy, Debug)]
pub struct CgiSandbox {
    /// Guaranteed share of the parent container.
    pub share: f64,
    /// CPU-limit fraction (the sandbox wall).
    pub limit: f64,
    /// Averaging window of the limit.
    pub window: Nanos,
}

/// Event-driven server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listening port.
    pub port: u16,
    /// Readiness API.
    pub api: EventApi,
    /// User-level CPU to parse a request and prepare the response.
    pub parse_cost: Nanos,
    /// Static response size.
    pub response_bytes: u64,
    /// Create one container per connection (vs. sharing the class
    /// container), as in §5.4's overhead check.
    pub container_per_connection: bool,
    /// Client classes; at least one.
    pub classes: Vec<ClassSpec>,
    /// CPU burned by each CGI request (§5.6: "about 2 seconds").
    pub cgi_cpu: Nanos,
    /// Optional CGI sandbox (§5.6). Ignored when containers are disabled.
    pub cgi_sandbox: Option<CgiSandbox>,
    /// Enable the SYN-flood defense (§5.7): isolate a /16 prefix behind
    /// a priority-zero filtered listener after 16 SYN-drop notices from
    /// it.
    pub defense: bool,
    /// How static documents are backed (resident or on the simulated
    /// disk).
    pub files: FileBacking,
    /// Hierarchy placement: per-connection and per-class containers (and
    /// the CGI sandbox) are created under this container — e.g. a guest
    /// server's root container in the Rent-A-Server experiment (§5.8).
    pub conn_parent: Option<ContainerId>,
    /// CGI worker processes' default containers are created under this
    /// container (lets harnesses account baseline CGI CPU).
    pub cgi_container_parent: Option<ContainerId>,
    /// Application-level preference: ready connections whose peer matches
    /// are handled first (the baseline's best effort in Figure 11:
    /// "handling events on its socket ... before events on other
    /// sockets").
    pub preferred: Option<CidrFilter>,
    /// Kernel memory reserved per in-flight request (modelling request
    /// parse buffers and response headers), released when the response is
    /// prepared or the connection torn down. Zero (the default) skips the
    /// reservation entirely; on memory-limited kernels a non-zero value
    /// drives the simmem charge/reclaim path once per request.
    pub request_kmem: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 80,
            api: EventApi::Scalable,
            parse_cost: Nanos::from_micros(47),
            response_bytes: 1024,
            container_per_connection: true,
            classes: vec![ClassSpec::default_class()],
            cgi_cpu: Nanos::from_secs(2),
            cgi_sandbox: None,
            defense: false,
            files: FileBacking::AlwaysCached,
            conn_parent: None,
            cgi_container_parent: None,
            preferred: None,
            request_kmem: 0,
        }
    }
}

/// Per-connection server state.
#[derive(Debug)]
struct Conn {
    class: usize,
    container: Option<(ContainerFd, ContainerId)>,
    /// Decoded request awaiting its parse continuation.
    pending_req: Option<(ReqKind, u32)>,
    /// Virtual time the in-flight request was read off the socket; feeds
    /// the per-container latency histogram when the response goes out.
    req_start: Nanos,
    /// Kernel memory currently reserved for the in-flight request
    /// (non-zero only with [`ServerConfig::request_kmem`]).
    kmem: u64,
}

/// The event-driven server application.
pub struct EventDrivenServer {
    cfg: ServerConfig,
    stats: SharedStats,
    /// Listener sockets, parallel to `cfg.classes` (+ defense listeners).
    listeners: Vec<SockId>,
    /// Class container of each listener (containers mode).
    class_containers: Vec<Option<(ContainerFd, ContainerId)>>,
    conns: SockTable<Socket, Conn>,
    /// Responses stalled by send backpressure: remaining bytes and
    /// whether the connection closes once the response drains.
    tx_pending: SockTable<Socket, (u64, bool)>,
    by_tag: HashMap<u64, SockId>,
    cgi_parent: Option<(ContainerFd, ContainerId)>,
    /// Open handle to `cfg.conn_parent`, if any.
    conn_parent_fd: Option<ContainerFd>,
    /// Compute continuations in flight; the wait is re-armed at zero.
    pending: u32,
    /// SYN-drop notices per /N prefix.
    drop_counts: HashMap<u32, u32>,
    /// Prefixes that have completed handshakes: never isolated (a flood
    /// source, by definition, never completes one).
    known_good: Vec<u32>,
    isolated: Vec<u32>,
    started: bool,
}

impl EventDrivenServer {
    /// Creates a server with the given configuration and shared stats.
    pub fn new(cfg: ServerConfig, stats: SharedStats) -> Self {
        EventDrivenServer {
            cfg,
            stats,
            listeners: Vec::new(),
            class_containers: Vec::new(),
            conns: SockTable::new(),
            tx_pending: SockTable::new(),
            by_tag: HashMap::new(),
            cgi_parent: None,
            conn_parent_fd: None,
            pending: 0,
            drop_counts: HashMap::new(),
            known_good: Vec::new(),
            isolated: Vec::new(),
            started: false,
        }
    }

    fn start(&mut self, sys: &mut SysCtx<'_>) {
        debug_assert!(!self.started);
        self.started = true;
        if sys.containers_enabled() {
            if let Some(parent) = self.cfg.conn_parent {
                self.conn_parent_fd = sys.open_container(parent).ok();
            }
        }
        let parent_fd = self.conn_parent_fd;
        let classes = self.cfg.classes.clone();
        for class in &classes {
            let mut spec = ListenSpec::port(self.cfg.port).filter(class.filter);
            if class.notify_syn_drops {
                spec = spec.notify_syn_drops();
            }
            let l = sys.listen(spec);
            let cc = if sys.containers_enabled() {
                let fd = sys
                    .create_container(
                        parent_fd,
                        Attributes::time_shared(class.priority).named(&class.name),
                    )
                    .expect("class container");
                let id = sys.resolve_fd(fd).expect("fresh fd");
                sys.bind_socket(l, fd).expect("bind listener");
                // The server thread serves this class: keep the class
                // container in its scheduler binding so it is scheduled at
                // the combined priority of the classes it serves (§4.3).
                let _ = sys.join_scheduler_binding(id);
                Some((fd, id))
            } else {
                None
            };
            self.listeners.push(l);
            self.class_containers.push(cc);
            if self.cfg.api == EventApi::Scalable {
                sys.event_register(l);
            }
        }
        if sys.containers_enabled() {
            if let Some(sandbox) = self.cfg.cgi_sandbox {
                let attrs = Attributes::fixed_share(sandbox.share)
                    .with_cpu_limit(sandbox.limit, sandbox.window)
                    .named("cgi-parent");
                let fd = sys
                    .create_container(self.conn_parent_fd, attrs)
                    .expect("cgi parent");
                let id = sys.resolve_fd(fd).expect("fresh fd");
                self.cgi_parent = Some((fd, id));
            }
        }
        self.rearm(sys);
    }

    fn rearm(&mut self, sys: &mut SysCtx<'_>) {
        if self.pending > 0 {
            return;
        }
        match self.cfg.api {
            EventApi::Select => {
                let mut socks = self.listeners.clone();
                socks.extend(self.conns.keys());
                socks.sort();
                sys.select_wait(socks);
            }
            EventApi::Scalable => sys.event_wait(),
        }
    }

    fn accept_all(&mut self, sys: &mut SysCtx<'_>, listener: SockId) {
        let class = self
            .listeners
            .iter()
            .position(|&l| l == listener)
            .unwrap_or(0);
        // Refresh the class container in the scheduler binding (it would
        // otherwise be pruned as stale).
        if let Some(Some((_, class_id))) = self.class_containers.get(class) {
            let _ = sys.join_scheduler_binding(*class_id);
        }
        while let Some(conn) = sys.accept(listener) {
            self.reclaim_stale(sys, conn);
            self.stats.borrow_mut().accepted += 1;
            // A completed handshake vouches for the peer's prefix: it is
            // not a spoofing flood source (§5.7 assumes the network rejects
            // spoofed sources, so established peers are distinguishable).
            if self.cfg.defense {
                if let Some(peer) = sys.peer_addr(conn) {
                    let mask = CidrFilter::new(peer, DEFENSE_MASK);
                    let prefix = peer.0 & mask.mask();
                    if !self.known_good.contains(&prefix) {
                        self.known_good.push(prefix);
                    }
                    self.drop_counts.remove(&prefix);
                }
            }
            let container = if sys.containers_enabled() && self.cfg.container_per_connection {
                let prio = self
                    .cfg
                    .classes
                    .get(class)
                    .map(|c| c.priority)
                    .unwrap_or(10);
                match sys.create_container(self.conn_parent_fd, Attributes::time_shared(prio)) {
                    Ok(fd) => {
                        let id = sys.resolve_fd(fd).expect("fresh fd");
                        let _ = sys.bind_socket(conn, fd);
                        Some((fd, id))
                    }
                    Err(_) => None,
                }
            } else {
                None
            };
            if self.cfg.api == EventApi::Scalable {
                sys.event_register(conn);
            }
            self.conns.insert(
                conn,
                Conn {
                    class,
                    container,
                    pending_req: None,
                    req_start: Nanos::ZERO,
                    kmem: 0,
                },
            );
        }
    }

    fn handle_readable(&mut self, sys: &mut SysCtx<'_>, conn: SockId) {
        let Some(state) = self.conns.get_mut(conn) else {
            return;
        };
        let Ok((bytes, eof)) = sys.read(conn) else {
            // The socket vanished under us (e.g. reset while the event was
            // queued): drop our state without a redundant close.
            self.teardown_conn(sys, conn, false);
            return;
        };
        if bytes == 0 {
            if eof {
                self.teardown_conn(sys, conn, true);
            }
            return;
        }
        let Some((kind, doc)) = decode_request(bytes) else {
            // Garbage request: drop the connection.
            self.teardown_conn(sys, conn, true);
            return;
        };
        state.pending_req = Some((kind, doc));
        state.req_start = sys.now();
        // Attach the connection's request span (rcspan) to the serving
        // thread so the parse/compute work items are attributed to it.
        sys.span_attach(conn);
        // Charge user work to the connection's activity: set the thread's
        // resource binding (§4.8) and tag the work item explicitly.
        let charge = state.container.map(|(_, id)| id);
        if let Some(id) = charge {
            let _ = sys.bind_thread(id);
        }
        // Per-request kernel buffers: charged to the request's principal,
        // so a memory-limited tenant pays its own reclaim stalls here.
        let want_kmem = self.cfg.request_kmem;
        if want_kmem > 0 && sys.kmem_reserve(want_kmem).is_ok() {
            state.kmem += want_kmem;
        }
        let tag = conn.as_u64();
        self.by_tag.insert(tag, conn);
        self.pending += 1;
        sys.compute_charged(self.cfg.parse_cost, tag, charge);
    }

    /// Continues a request after its parse CPU: static requests on a
    /// disk-backed server issue `read_file` (buffer-cache hits queue the
    /// copy immediately; misses complete out-of-band once the disk has
    /// served them); everything else responds right away.
    fn continue_request(&mut self, sys: &mut SysCtx<'_>, conn: SockId) {
        if let FileBacking::Disk { file_base } = self.cfg.files {
            if let Some(state) = self.conns.get(conn) {
                if let Some((ReqKind::Static | ReqKind::StaticKeepAlive, doc)) = state.pending_req {
                    let charge = state.container.map(|(_, id)| id);
                    let tag = DISK_TAG | conn.as_u64();
                    self.by_tag.insert(tag, conn);
                    sys.read_file(file_base + doc as u64, self.cfg.response_bytes, tag, charge);
                    return;
                }
            }
        }
        self.finish_request(sys, conn);
    }

    fn finish_request(&mut self, sys: &mut SysCtx<'_>, conn: SockId) {
        let Some(state) = self.conns.get_mut(conn) else {
            return;
        };
        let Some((kind, _doc)) = state.pending_req.take() else {
            return;
        };
        if state.kmem > 0 {
            sys.kmem_release(state.kmem);
            state.kmem = 0;
        }
        let class = state.class;
        let started = state.req_start;
        let conn_container = state.container.map(|(_, id)| id);
        match kind {
            ReqKind::Static | ReqKind::StaticKeepAlive => {
                let want = self.cfg.response_bytes;
                let sent = sys.send(conn, want).unwrap_or(want);
                let now = sys.now();
                self.stats.borrow_mut().record_static(class, now);
                if rctrace::active() {
                    // Attribute the latency to the request's activity: its
                    // own container if it has one, else its class's.
                    let principal = conn_container
                        .or_else(|| {
                            self.class_containers
                                .get(class)
                                .and_then(|c| c.map(|(_, id)| id))
                        })
                        .map(|c| c.as_u64())
                        .unwrap_or(NO_CONTAINER);
                    rctrace::record_latency(principal, now - started, now, sys.span_of(conn));
                }
                if sent >= want {
                    // Response fully queued: the request's span finishes
                    // when its last byte leaves the wire.
                    sys.span_finish_on_tx(conn);
                }
                if sent < want {
                    // Send backpressure (§4.4's sockbuf limit made real):
                    // remember the unsent tail and finish as the link
                    // drains — by writability event under the scalable
                    // API, by blocking under classic select().
                    self.tx_pending
                        .insert(conn, (want - sent, kind == ReqKind::Static));
                    match self.cfg.api {
                        EventApi::Scalable => sys.event_register_writable(conn),
                        EventApi::Select => sys.send_wait(conn),
                    }
                } else if kind == ReqKind::Static {
                    self.teardown_conn(sys, conn, true);
                }
            }
            ReqKind::Cgi => {
                self.dispatch_cgi(sys, conn);
            }
        }
    }

    fn dispatch_cgi(&mut self, sys: &mut SysCtx<'_>, conn: SockId) {
        let Some(state) = self.conns.get_mut(conn) else {
            return;
        };
        let container = state.container;
        if state.kmem > 0 {
            sys.kmem_release(state.kmem);
            state.kmem = 0;
        }
        self.stats.borrow_mut().cgi_dispatched += 1;
        // §5.6: each CGI request's container becomes a child of the
        // CGI-parent container, putting it inside the resource sandbox.
        if let (Some((fd, _id)), Some((parent_fd, _))) = (container, self.cgi_parent) {
            let _ = sys.set_container_parent(fd, Some(parent_fd));
        }
        let worker = CgiWorker::new(
            conn,
            self.cfg.cgi_cpu,
            CGI_RESPONSE_BYTES,
            container.map(|(_, id)| id),
            self.stats.clone(),
        );
        // The CGI child is a plain process: in the baselines it thereby
        // becomes its own resource principal; under containers its thread
        // immediately binds to the request's container.
        let cgi_pid = sys.spawn_process(
            Box::new(worker),
            "cgi",
            self.cfg.cgi_container_parent,
            Attributes::time_shared(10),
        );
        // Pass the connection (and its container, §4.8: "pass the
        // connection's container to the CGI process").
        sys.pass_socket(conn, cgi_pid);
        if let Some((fd, _)) = container {
            let _ = sys.pass_container(fd, cgi_pid);
        }
        // The server is done with this connection.
        let _ = sys.bind_thread_default();
        if let Some(st) = self.conns.remove(conn) {
            self.by_tag.remove(&conn.as_u64());
            if let Some((fd, _)) = st.container {
                let _ = sys.close_container(fd);
            }
        }
    }

    /// Continues a response stalled by send backpressure: the kernel
    /// signalled the socket writable, so push the remaining bytes (again
    /// charged to the connection's activity) and finish the teardown or
    /// pipeline once the response has fully drained.
    fn continue_send(&mut self, sys: &mut SysCtx<'_>, conn: SockId) {
        let Some(&(remaining, close_after)) = self.tx_pending.get(conn) else {
            return;
        };
        if let Some(state) = self.conns.get(conn) {
            if let Some((_, id)) = state.container {
                let _ = sys.bind_thread(id);
            }
        }
        let sent = sys.send(conn, remaining).unwrap_or(remaining);
        if sent >= remaining {
            // The backpressured tail is fully queued: arm the span's
            // finish-on-last-wire-byte.
            sys.span_finish_on_tx(conn);
            self.tx_pending.remove(conn);
            if self.cfg.api == EventApi::Scalable {
                sys.event_deregister_writable(conn);
            }
            let _ = sys.bind_thread_default();
            if close_after {
                self.teardown_conn(sys, conn, true);
            } else {
                // A readable event may have been coalesced with this
                // writability notice; poll the socket so pipelined
                // requests are not stranded.
                self.handle_readable(sys, conn);
            }
        } else {
            self.tx_pending
                .insert(conn, (remaining - sent, close_after));
            if self.cfg.api == EventApi::Select {
                sys.send_wait(conn);
            }
        }
    }

    fn teardown_conn(&mut self, sys: &mut SysCtx<'_>, conn: SockId, close: bool) {
        // Rebind away from the per-connection container before dropping
        // the final references so it can be destroyed.
        let _ = sys.bind_thread_default();
        self.tx_pending.remove(conn);
        if let Some(st) = self.conns.remove(conn) {
            self.by_tag.remove(&conn.as_u64());
            self.by_tag.remove(&(DISK_TAG | conn.as_u64()));
            if st.kmem > 0 {
                sys.kmem_release(st.kmem);
            }
            if close {
                let _ = sys.close(conn);
                self.stats.borrow_mut().closed += 1;
            }
            if let Some((fd, _)) = st.container {
                let _ = sys.close_container(fd);
            }
        } else if close {
            let _ = sys.close(conn);
        }
    }

    /// Reclaims per-connection state orphaned by a socket that died
    /// without this server noticing — a fault-injected reset while the
    /// connection was parked in a wait set produces no readable event,
    /// so `teardown_conn` never ran. Once the kernel recycles the slot
    /// for a fresh accept the old state is unreachable forever; release
    /// its kernel-memory charge and per-connection container now,
    /// exactly as `teardown_conn` would have, minus the socket close
    /// (the socket is already gone). Keeping this on the accept path is
    /// what lets `SockTable`'s insert-time use-after-free assert stay
    /// strict.
    fn reclaim_stale(&mut self, sys: &mut SysCtx<'_>, fresh: SockId) {
        self.tx_pending.remove_stale(fresh);
        if let Some((old, st)) = self.conns.remove_stale(fresh) {
            self.by_tag.remove(&old.as_u64());
            self.by_tag.remove(&(DISK_TAG | old.as_u64()));
            if st.kmem > 0 {
                sys.kmem_release(st.kmem);
            }
            if let Some((fd, _)) = st.container {
                let _ = sys.close_container(fd);
            }
        }
    }

    fn handle_ready(&mut self, sys: &mut SysCtx<'_>, mut ready: Vec<SockId>) {
        if let Some(pref) = self.cfg.preferred {
            // Best-effort user-level prioritization (Figure 11 baseline).
            ready.sort_by_key(|&s| {
                let preferred = sys.peer_addr(s).map(|a| pref.matches(a)).unwrap_or(false);
                if preferred {
                    0u8
                } else {
                    1u8
                }
            });
        }
        for s in ready {
            if self.listeners.contains(&s) {
                self.accept_all(sys, s);
            } else if self.tx_pending.contains_key(s) {
                // Writability notice: a stalled response may resume.
                self.continue_send(sys, s);
            } else if self.conns.contains_key(s) {
                self.handle_readable(sys, s);
            }
        }
        self.rearm(sys);
    }

    fn handle_syn_drop(&mut self, sys: &mut SysCtx<'_>, _listener: SockId, src: IpAddr) {
        self.stats.borrow_mut().syn_drop_notices += 1;
        if !self.cfg.defense || !sys.containers_enabled() {
            return;
        }
        let mask = CidrFilter::new(src, DEFENSE_MASK);
        let prefix = src.0 & mask.mask();
        if self.isolated.contains(&prefix) || self.known_good.contains(&prefix) {
            return;
        }
        let n = self.drop_counts.entry(prefix).or_insert(0);
        *n += 1;
        if *n < DEFENSE_THRESHOLD {
            return;
        }
        // §5.7: isolate the misbehaving clients on a filtered listener
        // bound to a container with numeric priority zero.
        self.isolated.push(prefix);
        self.stats.borrow_mut().isolations += 1;
        let flt = CidrFilter::new(IpAddr(prefix), DEFENSE_MASK);
        let l = sys.listen(ListenSpec::port(self.cfg.port).filter(flt));
        if let Ok(fd) = sys.create_container(None, Attributes::time_shared(0).named("isolated")) {
            let _ = sys.bind_socket(l, fd);
        }
        self.listeners.push(l);
        self.class_containers.push(None);
        self.cfg.classes.push(ClassSpec {
            name: "isolated".to_string(),
            filter: flt,
            priority: 0,
            notify_syn_drops: false,
        });
        if self.cfg.api == EventApi::Scalable {
            sys.event_register(l);
        }
        // Note: no re-arm here — this upcall was delivered out-of-band and
        // the kernel restores the server's wait when it returns.
    }
}

impl AppHandler for EventDrivenServer {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _thread: TaskId, ev: AppEvent) {
        match ev {
            AppEvent::Start => self.start(sys),
            AppEvent::SelectReady { ready } | AppEvent::EventReady { events: ready } => {
                self.handle_ready(sys, ready)
            }
            AppEvent::Continue { tag } => {
                self.pending = self.pending.saturating_sub(1);
                if let Some(conn) = self.by_tag.get(&tag).copied() {
                    self.continue_request(sys, conn);
                }
                self.rearm(sys);
            }
            AppEvent::FileRead { tag, bytes, cached } => {
                if let Some(conn) = self.by_tag.remove(&tag) {
                    self.stats.borrow_mut().record_cache(cached);
                    // The thread may have served other connections while
                    // the disk was busy: rebind to this connection's
                    // container before responding on its behalf.
                    if let Some(state) = self.conns.get(conn) {
                        if let Some((_, id)) = state.container {
                            let _ = sys.bind_thread(id);
                        }
                    }
                    sys.span_attach(conn);
                    if bytes == 0 {
                        // Short read: the disk failed the request. The
                        // connection already paid for the parse and the
                        // wasted service time; abort it rather than send
                        // a response backed by nothing.
                        self.stats.borrow_mut().io_errors += 1;
                        self.teardown_conn(sys, conn, true);
                    } else {
                        self.finish_request(sys, conn);
                    }
                }
                self.rearm(sys);
            }
            AppEvent::Writable { sock } => {
                // Out-of-band writability upcall (the select()-mode
                // blocking path): resume the stalled response. If it
                // drained, the blocking send released the thread — re-arm
                // the wait it displaced.
                self.continue_send(sys, sock);
                if !self.tx_pending.contains_key(sock) {
                    self.rearm(sys);
                }
            }
            AppEvent::SynDropNotice { listener, src } => self.handle_syn_drop(sys, listener, src),
            AppEvent::ConnReset { conn } => {
                // Peer reset mid-stream: the kernel already dropped the
                // socket; release our connection state and its container.
                // (Delivered out-of-band: no re-arm.)
                self.teardown_conn(sys, conn, true);
            }
            AppEvent::Timer { .. } => self.rearm(sys),
            AppEvent::ChildExited { .. } => {
                // CGI child finished; nothing to do — it answered the
                // client directly. (Delivered out-of-band: no re-arm.)
            }
            AppEvent::MemKill { .. } => {
                // A container this server held kernel memory under was
                // OOM-killed; the per-connection teardown already arrived
                // as individual ConnReset upcalls. (Out-of-band: no
                // re-arm.)
            }
        }
    }
}
