//! The syscall surface applications program against.
//!
//! A [`SysCtx`] is handed to an [`crate::AppHandler`] for the duration of
//! one upcall. Control-plane calls (container operations, `listen`,
//! `accept`, `read`) take effect immediately and queue their CPU cost;
//! data-plane calls with timing significance (`compute`, `send`, `close`,
//! the blocking waits) are queued cost-before-effect, preserving the exact
//! order the application issued them.
//!
//! The container operations implement §4.6 of the paper one-for-one, with
//! the per-operation costs of Table 1 charged to the calling thread.

use rescon::{Attributes, ContainerFd, ContainerId, ContainerRef, RcError, ResourceUsage};
use sched::TaskId;
use simcore::span::{self, Phase};
use simcore::trace::{self, TraceEventKind, NO_CONTAINER};
use simcore::{Nanos, SpanRef};
use simnet::{CidrFilter, SockId};

use crate::app::AppHandler;
use crate::cost;
use crate::ids::Pid;
use crate::kernel::Kernel;
use crate::thread::{Op, WaitFor, WorkItem};

/// Errors returned by data-plane socket syscalls (`send`, `read`,
/// `close`) when the socket id does not name a live socket of the right
/// kind. One convention across the surface: silent no-ops hide
/// use-after-close bugs in applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysError {
    /// Unknown, closed, or wrong-kind socket.
    BadSocket,
    /// A kernel memory reservation could not be satisfied: the requesting
    /// container's subtree is over its `mem_limit` and reclaim plus
    /// container-targeted OOM freed too little (§4.4). Only returned when the kernel was built with
    /// [`crate::MemParams`].
    NoMem,
}

/// Builder-style specification of a listening socket, passed to
/// [`SysCtx::listen`] (and [`Kernel::setup_listen`]).
///
/// Replaces the old positional `(port, filter, notify_syn_drops)`
/// argument list. SYN admission control is kernel-wide
/// ([`crate::KernelConfig::with_admission`]).
///
/// # Examples
///
/// ```
/// use simos::ListenSpec;
/// use simnet::CidrFilter;
///
/// let spec = ListenSpec::port(80)
///     .filter(CidrFilter::any())
///     .notify_syn_drops();
/// let _ = spec;
/// ```
#[derive(Clone, Debug)]
pub struct ListenSpec {
    pub(crate) port: u16,
    pub(crate) filter: CidrFilter,
    pub(crate) notify_syn_drops: bool,
}

impl ListenSpec {
    /// Listens on `port`, accepting any foreign address, without SYN-drop
    /// notification.
    pub fn port(port: u16) -> Self {
        ListenSpec {
            port,
            filter: CidrFilter::any(),
            notify_syn_drops: false,
        }
    }

    /// Restricts the listener to clients matching `filter` (§4.8).
    pub fn filter(mut self, filter: CidrFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Asks for [`crate::AppEvent::SynDropNotice`] upcalls when this
    /// listener's SYN queue overflows (§5.7).
    pub fn notify_syn_drops(mut self) -> Self {
        self.notify_syn_drops = true;
        self
    }
}

/// The per-upcall syscall context: the calling process and thread plus a
/// mutable view of the kernel.
pub struct SysCtx<'a> {
    k: &'a mut Kernel,
    pid: Pid,
    thread: TaskId,
}

impl<'a> SysCtx<'a> {
    pub(crate) fn new(k: &'a mut Kernel, pid: Pid, thread: TaskId) -> Self {
        SysCtx { k, pid, thread }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.k.clock_now()
    }

    /// The calling process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Whether the kernel exposes the container API (§4) — `false` on the
    /// unmodified and LRP baselines.
    pub fn containers_enabled(&self) -> bool {
        self.k.cfg.containers_enabled()
    }

    /// Emits a paired syscall enter/exit trace record. Simulated syscalls
    /// apply their control-plane effects instantly (the CPU cost is queued
    /// separately on the thread), so the pair brackets a zero-width
    /// interval at the call's issue time.
    fn trace_sys(&self, name: &'static str) {
        if !trace::enabled() {
            return;
        }
        let now = self.k.clock_now();
        let container = self
            .current_binding()
            .map(|c| c.as_u64())
            .unwrap_or(NO_CONTAINER);
        trace::emit_at(now, || TraceEventKind::SyscallEnter {
            name,
            task: self.thread.0,
            pid: self.pid.0,
            container,
        });
        trace::emit_at(now, || TraceEventKind::SyscallExit {
            name,
            task: self.thread.0,
        });
    }

    fn charge(&mut self, cost: Nanos) {
        if let Some(th) = self.k.thread_mut(self.thread) {
            let span = SpanRef::of(th.cur_span);
            th.push_work(WorkItem {
                cost,
                op: Op::Nop,
                charge_to: None,
                kernel_mode: true,
                span,
            });
        }
    }

    fn push(&mut self, cost: Nanos, op: Op) {
        if let Some(th) = self.k.thread_mut(self.thread) {
            let span = SpanRef::of(th.cur_span);
            th.push_work(WorkItem {
                cost,
                op,
                charge_to: None,
                kernel_mode: false,
                span,
            });
        }
    }

    // ------------------------------------------------------------------
    // Sockets
    // ------------------------------------------------------------------

    /// Creates a listening socket from a [`ListenSpec`]. The listener is
    /// initially bound to the process's default container.
    pub fn listen(&mut self, spec: ListenSpec) -> SockId {
        self.trace_sys("listen");
        self.charge(cost::LISTEN_SYSCALL);
        self.k.setup_listen(self.pid, spec)
    }

    /// Accepts one established connection, if available. The new socket
    /// inherits the listener's container binding.
    pub fn accept(&mut self, listener: SockId) -> Option<SockId> {
        self.trace_sys("accept");
        self.charge(cost::ACCEPT_SYSCALL);
        let conn = self.k.stack.accept(listener)?;
        self.k.register_socket(conn, self.pid);
        if span::enabled() {
            // Accept ends the request's accept-queue wait; it is now the
            // application's CPU problem. The accepting thread starts
            // acting on its behalf.
            let sp = self.k.stack.span_of(conn);
            if sp != 0 {
                span::transition(sp, Phase::CpuQueue, self.k.clock_now());
                if let Some(th) = self.k.thread_mut(self.thread) {
                    th.cur_span = sp;
                }
            }
        }
        Some(conn)
    }

    /// Reads all buffered payload bytes; returns `(bytes, eof)`.
    ///
    /// # Errors
    ///
    /// [`SysError::BadSocket`] if `sock` is not a live connection; no cost
    /// is charged.
    pub fn read(&mut self, sock: SockId) -> Result<(u64, bool), SysError> {
        self.trace_sys("read");
        match self.k.stack.socket(sock).map(|s| &s.kind) {
            Some(simnet::SocketKind::Conn(_)) => {}
            _ => return Err(SysError::BadSocket),
        }
        self.charge(cost::READ_SYSCALL);
        Ok(self.k.stack.read(sock))
    }

    /// Returns the foreign address of a connection (like `getpeername`).
    pub fn peer_addr(&self, sock: SockId) -> Option<simnet::IpAddr> {
        match self.k.stack.socket(sock)? {
            simnet::Socket {
                kind: simnet::SocketKind::Conn(cs),
                ..
            } => Some(cs.flow.src),
            _ => None,
        }
    }

    /// Returns `true` if a socket has unread data, an EOF, or an
    /// acceptable connection.
    pub fn sock_ready(&self, sock: SockId) -> bool {
        self.k.sock_ready(sock)
    }

    /// Queues at most `bytes` for transmission, returning how many were
    /// accepted. The CPU cost (syscall + per-packet transmit work) is
    /// consumed before any packet leaves the NIC.
    ///
    /// With a finite link configured, the accepted count is clamped to
    /// the sending principal's remaining sockbuf headroom
    /// ([`SysCtx::tx_headroom`]): a partial or zero return is
    /// backpressure, and the caller should wait for writability via
    /// [`SysCtx::send_wait`] or [`SysCtx::event_register_writable`].
    /// Without a link every byte is always accepted.
    ///
    /// # Errors
    ///
    /// [`SysError::BadSocket`] if `sock` is not a live connection; no cost
    /// is charged.
    pub fn send(&mut self, sock: SockId, bytes: u64) -> Result<u64, SysError> {
        self.trace_sys("send");
        match self.k.stack.socket(sock).map(|s| &s.kind) {
            Some(simnet::SocketKind::Conn(_)) => {}
            _ => return Err(SysError::BadSocket),
        }
        let accepted = bytes.min(self.k.tx_headroom(sock));
        let pkts = self.k.stack.send(sock, accepted);
        if pkts.is_empty() {
            return Ok(0);
        }
        self.k.link_reserve(sock, accepted);
        let sp = pkts.first().map(|p| p.span).unwrap_or(0);
        if sp != 0 {
            self.k.span_tx_queued(sp, pkts.len() as u32);
        }
        let cost = cost::WRITE_SYSCALL + cost::DATA_TX * pkts.len() as u64;
        self.push(cost, Op::Transmit { pkts });
        Ok(accepted)
    }

    /// Blocks the thread until `sock` has send headroom again, then
    /// delivers [`crate::AppEvent::Writable`]. Without a finite link the
    /// wake is immediate (everything is always writable).
    pub fn send_wait(&mut self, sock: SockId) {
        self.trace_sys("send_wait");
        self.push(cost::WRITE_SYSCALL, Op::Block(WaitFor::Writable(sock)));
    }

    /// Whether `sock` can accept send bytes without queueing past its
    /// principal's sockbuf limit.
    pub fn sock_writable(&self, sock: SockId) -> bool {
        self.k.sock_writable(sock)
    }

    /// Send bytes `sock`'s principal may queue before backpressure;
    /// `u64::MAX` when unlimited.
    pub fn tx_headroom(&self, sock: SockId) -> u64 {
        self.k.tx_headroom(sock)
    }

    /// Whether the kernel models a finite-bandwidth transmit link.
    pub fn link_configured(&self) -> bool {
        self.k.link_configured()
    }

    /// Closes a connection or a listener after all previously queued work
    /// completes. Closing a listener also closes the connections still
    /// queued on it.
    ///
    /// # Errors
    ///
    /// [`SysError::BadSocket`] if `sock` is not a live socket; no cost is
    /// charged.
    pub fn close(&mut self, sock: SockId) -> Result<(), SysError> {
        self.trace_sys("close");
        if self.k.stack.socket(sock).is_none() {
            return Err(SysError::BadSocket);
        }
        self.push(cost::CLOSE_SYSCALL + cost::FIN_TX, Op::CloseSock { sock });
        Ok(())
    }

    /// Blocks the thread in `select()` over `socks` once queued work
    /// drains. The scan cost is linear in the interest-set size (§5.5).
    pub fn select_wait(&mut self, socks: Vec<SockId>) {
        self.trace_sys("select");
        let scan = cost::select_scan(socks.len());
        self.push(scan, Op::Block(WaitFor::Select { socks }));
    }

    /// Registers a socket with the scalable event API (§5.5).
    pub fn event_register(&mut self, sock: SockId) {
        self.charge(cost::EVENT_API_BASE);
        if let Some(p) = self.k.process_mut(self.pid) {
            if !p.event_interest.contains(&sock) {
                p.event_interest.push(sock);
            }
            // A socket that is already ready must not be missed.
            if self.k.sock_ready(sock) {
                if let Some(p) = self.k.process_mut(self.pid) {
                    p.queue_event(sock);
                }
            }
        }
    }

    /// Registers a socket for *writability* notification with the
    /// scalable event API: when send backpressure on the socket drains,
    /// the process receives [`crate::AppEvent::Writable`] (if a thread is
    /// parked in [`SysCtx::event_wait`], it wakes with the socket in its
    /// batch). Without a finite link sockets are always writable, so the
    /// notification fires immediately.
    pub fn event_register_writable(&mut self, sock: SockId) {
        self.charge(cost::EVENT_API_BASE);
        let writable = self.k.sock_writable(sock);
        if let Some(p) = self.k.process_mut(self.pid) {
            if !p.event_interest_w.contains(&sock) {
                p.event_interest_w.push(sock);
            }
            // A socket that is already writable must not be missed.
            if writable {
                p.queue_writable_event(sock);
            }
        }
    }

    /// Drops *writability* interest only (read interest is untouched):
    /// the natural bookend to [`SysCtx::event_register_writable`] once a
    /// backpressured response has drained.
    pub fn event_deregister_writable(&mut self, sock: SockId) {
        self.charge(cost::EVENT_API_BASE);
        if let Some(p) = self.k.process_mut(self.pid) {
            p.event_interest_w.retain(|&s| s != sock);
        }
    }

    /// Removes a socket from the scalable event API: clears read and
    /// write interest and drops any queued-but-undelivered events for it.
    /// The socket stays open; it simply delivers no further events.
    pub fn event_deregister(&mut self, sock: SockId) {
        self.charge(cost::EVENT_API_BASE);
        if let Some(p) = self.k.process_mut(self.pid) {
            p.event_interest.retain(|&s| s != sock);
            p.event_interest_w.retain(|&s| s != sock);
            p.event_queue.retain(|&s| s != sock);
        }
    }

    /// Blocks on the scalable event API once queued work drains.
    pub fn event_wait(&mut self) {
        self.trace_sys("event_wait");
        self.push(cost::EVENT_API_BASE, Op::Block(WaitFor::Event));
    }

    /// Blocks until `sock` is readable (blocking `read()` pattern of
    /// thread-per-connection servers).
    pub fn read_wait(&mut self, sock: SockId) {
        self.push(cost::READ_SYSCALL, Op::Block(WaitFor::Readable(sock)));
    }

    /// Blocks until `listener` has an acceptable connection.
    pub fn accept_wait(&mut self, listener: SockId) {
        self.push(
            cost::ACCEPT_SYSCALL,
            Op::Block(WaitFor::Acceptable(listener)),
        );
    }

    /// Sleeps until `deadline`, then receives `AppEvent::Timer { tag }`.
    pub fn sleep_until(&mut self, deadline: Nanos, tag: u64) {
        self.k.schedule_app_timer(self.thread, deadline, tag);
        self.push(Nanos::from_nanos(500), Op::Block(WaitFor::Timer { tag }));
    }

    /// Queues a pure CPU burn of `cost`, then receives
    /// `AppEvent::Continue { tag }`.
    pub fn compute(&mut self, cost: Nanos, tag: u64) {
        if let Some(th) = self.k.thread_mut(self.thread) {
            let span = SpanRef::of(th.cur_span);
            th.push_work(WorkItem {
                cost,
                op: Op::Upcall(crate::app::AppEvent::Continue { tag }),
                charge_to: None,
                kernel_mode: false,
                span,
            });
        }
    }

    /// Like [`SysCtx::compute`], but charges the CPU to `charge_to`
    /// regardless of the thread's resource binding when the work actually
    /// runs — needed when several connections' work is queued at once.
    pub fn compute_charged(&mut self, cost: Nanos, tag: u64, charge_to: Option<ContainerId>) {
        if let Some(th) = self.k.thread_mut(self.thread) {
            let span = SpanRef::of(th.cur_span);
            th.push_work(WorkItem {
                cost,
                op: Op::Upcall(crate::app::AppEvent::Continue { tag }),
                charge_to,
                kernel_mode: false,
                span,
            });
        }
    }

    /// Reads `bytes` of `file` from the filesystem. On a buffer-cache hit
    /// only the copy cost is queued on the calling thread; on a miss the
    /// request goes through the disk scheduler and completes
    /// asynchronously (the thread may block or keep serving other work —
    /// the completion is delivered out-of-band like a timer). Either way
    /// the thread receives [`crate::AppEvent::FileRead`] carrying `tag`
    /// once the data is in user space.
    ///
    /// Disk service time, buffer-cache residency, and the copy CPU are all
    /// charged to `charge_to` (defaulting to the thread's resource
    /// binding), extending the paper's accounting to disk bandwidth (§7).
    pub fn read_file(&mut self, file: u64, bytes: u64, tag: u64, charge_to: Option<ContainerId>) {
        self.trace_sys("read_file");
        self.charge(cost::READ_SYSCALL);
        let principal = charge_to
            .or_else(|| self.current_binding())
            .unwrap_or_else(|| self.k.containers.root());
        if self.k.disk_cache.lookup(file).is_some() {
            if let Some(th) = self.k.thread_mut(self.thread) {
                let span = SpanRef::of(th.cur_span);
                th.push_work(WorkItem {
                    cost: cost::file_copy(bytes),
                    op: Op::Upcall(crate::app::AppEvent::FileRead {
                        tag,
                        bytes,
                        cached: true,
                    }),
                    charge_to: Some(principal),
                    kernel_mode: true,
                    span,
                });
            }
        } else {
            let sp = self
                .k
                .thread_ref(self.thread)
                .map(|t| t.cur_span)
                .unwrap_or(0);
            self.k
                .submit_disk_read(file, bytes, principal, self.thread, tag, sp);
        }
    }

    /// Transfers ownership of a socket to another process (descriptor
    /// passing); subsequent readiness events go to the receiver.
    pub fn pass_socket(&mut self, sock: SockId, to: Pid) {
        self.k.reassign_socket(sock, self.pid, to);
    }

    /// Terminates the calling thread after queued work completes; the
    /// process exits with its last thread.
    pub fn exit(&mut self) {
        self.trace_sys("exit");
        self.push(cost::EXIT, Op::Exit);
    }

    /// Reserves `bytes` of pinned kernel memory on behalf of the calling
    /// process (modelling pageable structures an application asks the
    /// kernel to hold: e.g. large routing or translation tables). The
    /// charge lands on the process's default container under
    /// `MemClass::Other` and stays until [`SysCtx::kmem_release`], process
    /// exit, or a container-targeted OOM kill. When the kernel memory
    /// subsystem is configured and the charge cannot be satisfied even
    /// after reclaim and OOM, returns [`SysError::NoMem`].
    pub fn kmem_reserve(&mut self, bytes: u64) -> Result<(), SysError> {
        self.trace_sys("kmem_reserve");
        self.charge(cost::RC_USAGE);
        let reclaimed_before = self.k.mem_acct().map(|m| m.reclaimed_bytes).unwrap_or(0);
        let ok = self.k.kmem_reserve(self.pid, bytes);
        // With a non-zero reclaim cost configured, page stealing that
        // this charge forced shows up as a kernel-mode stall on the
        // calling thread, attributed to the current request span as
        // reclaim time (zero pages stolen or zero cost: no extra work,
        // and every pre-existing run stays byte-identical).
        let per_kb = self
            .k
            .mem_acct()
            .map(|m| m.params.reclaim_cost_per_kb)
            .unwrap_or(Nanos::ZERO);
        if !per_kb.is_zero() {
            let reclaimed = self
                .k
                .mem_acct()
                .map(|m| m.reclaimed_bytes)
                .unwrap_or(0)
                .saturating_sub(reclaimed_before);
            if reclaimed > 0 {
                let stall = Nanos::from_nanos(per_kb.as_nanos() * reclaimed.div_ceil(1024));
                if let Some(th) = self.k.thread_mut(self.thread) {
                    let span = SpanRef {
                        id: th.cur_span,
                        stall: true,
                    };
                    th.push_work(WorkItem {
                        cost: stall,
                        op: Op::Nop,
                        charge_to: None,
                        kernel_mode: true,
                        span,
                    });
                }
            }
        }
        if ok {
            Ok(())
        } else {
            Err(SysError::NoMem)
        }
    }

    /// Returns up to `bytes` of a previous [`SysCtx::kmem_reserve`] to the
    /// kernel (silently capped at the amount actually held).
    pub fn kmem_release(&mut self, bytes: u64) {
        self.trace_sys("kmem_release");
        self.charge(cost::RC_USAGE);
        self.k.kmem_release(self.pid, bytes);
    }

    // ------------------------------------------------------------------
    // Request spans (rcspan)
    // ------------------------------------------------------------------

    /// Declares that the calling thread is now working on behalf of the
    /// request span riding `conn`. Costless and purely observational:
    /// subsequent queued work (syscall costs, `compute`, `read_file`) is
    /// attributed to that span's phase ledger. A no-op when the span
    /// layer is off or the connection carries no open span.
    pub fn span_attach(&mut self, conn: SockId) {
        if !span::enabled() {
            return;
        }
        let sp = self.k.stack.span_of(conn);
        if let Some(th) = self.k.thread_mut(self.thread) {
            th.cur_span = sp;
        }
    }

    /// The request span riding `conn` (`0` when none or the layer is
    /// off). Applications use it to correlate their own logs with the
    /// exported trace.
    pub fn span_of(&self, conn: SockId) -> u64 {
        if !span::enabled() {
            return 0;
        }
        self.k.stack.span_of(conn)
    }

    /// Arms finish-on-transmit for the request span riding `conn`: the
    /// span finishes `Completed` when the last queued response packet
    /// clears the (possibly finite) link — so end-to-end latency is
    /// measured to the last wire byte, not to the `send` syscall.
    /// Costless, observational, and a no-op when the layer is off.
    pub fn span_finish_on_tx(&mut self, conn: SockId) {
        if !span::enabled() {
            return;
        }
        let sp = self.k.stack.span_of(conn);
        self.k.span_arm_finish(sp);
    }

    // ------------------------------------------------------------------
    // Containers (§4.6), each charged its Table 1 cost
    // ------------------------------------------------------------------

    fn require_containers(&self) -> Result<(), RcError> {
        if self.containers_enabled() {
            Ok(())
        } else {
            Err(RcError::NotFound)
        }
    }

    /// Creates a resource container and returns its descriptor.
    pub fn create_container(
        &mut self,
        parent: Option<ContainerFd>,
        attrs: Attributes,
    ) -> Result<ContainerFd, RcError> {
        self.require_containers()?;
        self.trace_sys("rc_create");
        self.charge(cost::RC_CREATE);
        let parent_id = match parent {
            Some(fd) => Some(self.resolve_fd(fd)?),
            None => None,
        };
        let now = self.k.clock_now();
        let id = self.k.containers.create_at(parent_id, attrs, now)?;
        let p = self.k.process_mut(self.pid).ok_or(RcError::NotFound)?;
        Ok(p.containers.adopt(id))
    }

    /// Resolves a container descriptor to its id (useful for cross-API
    /// plumbing such as socket binding).
    pub fn resolve_fd(&self, fd: ContainerFd) -> Result<ContainerId, RcError> {
        self.k
            .process_ref(self.pid)
            .ok_or(RcError::NotFound)?
            .containers
            .resolve(fd)
    }

    /// Opens a descriptor for an existing container id (§4.6 "obtain
    /// handle for existing container").
    pub fn open_container(&mut self, id: ContainerId) -> Result<ContainerFd, RcError> {
        self.require_containers()?;
        self.charge(cost::RC_HANDLE);
        let containers = &mut self.k.containers;
        containers.add_descriptor_ref(id)?;
        let p = self.k.process_mut(self.pid).ok_or(RcError::NotFound)?;
        Ok(p.containers.adopt(id))
    }

    /// Releases a container descriptor (§4.6 "Container release").
    pub fn close_container(&mut self, fd: ContainerFd) -> Result<bool, RcError> {
        self.require_containers()?;
        self.trace_sys("rc_release");
        self.charge(cost::RC_DESTROY);
        let p = self.k.process_mut(self.pid).ok_or(RcError::NotFound)?;
        let id = p.containers.forget(fd)?;
        self.k.containers.drop_descriptor_ref(id)
    }

    /// Changes a container's parent (§4.6 "Set a container's parent").
    pub fn set_container_parent(
        &mut self,
        fd: ContainerFd,
        parent: Option<ContainerFd>,
    ) -> Result<(), RcError> {
        self.require_containers()?;
        self.charge(cost::RC_ATTRS);
        let id = self.resolve_fd(fd)?;
        let parent_id = match parent {
            Some(p) => Some(self.resolve_fd(p)?),
            None => None,
        };
        self.k.containers.set_parent(id, parent_id)
    }

    /// Sets a container's attributes (§4.6 "Container attributes").
    pub fn set_container_attrs(
        &mut self,
        fd: ContainerFd,
        attrs: Attributes,
    ) -> Result<(), RcError> {
        self.require_containers()?;
        self.charge(cost::RC_ATTRS);
        let id = self.resolve_fd(fd)?;
        self.k.containers.set_attrs(id, attrs)
    }

    /// Reads a container's attributes.
    pub fn container_attrs(&mut self, fd: ContainerFd) -> Result<Attributes, RcError> {
        self.require_containers()?;
        self.charge(cost::RC_ATTRS);
        let id = self.resolve_fd(fd)?;
        self.k.containers.attrs(id).cloned()
    }

    /// Reads a container's usage (§4.6 "Container usage information").
    pub fn container_usage(&mut self, fd: ContainerFd) -> Result<ResourceUsage, RcError> {
        self.require_containers()?;
        self.trace_sys("rc_usage");
        self.charge(cost::RC_USAGE);
        let id = self.resolve_fd(fd)?;
        self.k.containers.usage(id)
    }

    /// Sets the calling thread's resource binding (§4.6 "Binding a thread
    /// to a container"). Subsequent consumption is charged there.
    ///
    /// Accepts either a [`ContainerFd`] (the application path: resolved
    /// through the descriptor table, charged the Table 1 bind cost) or a
    /// raw [`ContainerId`] (the trusted in-process path used by
    /// library-based resource handlers, §2: no descriptor check, no
    /// charge), via `impl Into<ContainerRef>`.
    pub fn bind_thread(&mut self, c: impl Into<ContainerRef>) -> Result<(), RcError> {
        self.require_containers()?;
        let id = match c.into() {
            ContainerRef::Fd(fd) => {
                self.trace_sys("rc_bind_thread");
                self.charge(cost::RC_BIND);
                self.resolve_fd(fd)?
            }
            ContainerRef::Id(id) => id,
        };
        let now = self.k.clock_now();
        self.k.containers.bind_thread(id)?;
        let old = {
            // Split borrows: the container table is consulted through a
            // snapshot of live ids to weed the scheduler binding.
            let containers = &self.k.containers;
            let th = self
                .k
                .threads
                .get_mut(self.thread)
                .ok_or(RcError::NotFound)?;
            let old = th.resource_binding;
            th.resource_binding = id;
            th.sched_binding.retain_live(|c| containers.contains(c));
            th.sched_binding.touch(id, now);
            old
        };
        let _ = self.k.containers.unbind_thread(old);
        let binding = self
            .k
            .thread_ref(self.thread)
            .map(|t| t.sched_binding.containers().to_vec())
            .unwrap_or_default();
        self.k
            .scheduler_mut()
            .set_binding(self.thread, &binding, now);
        Ok(())
    }

    /// Rebinds the calling thread to its process's default container
    /// (e.g. after finishing work for a connection whose container is
    /// about to be destroyed). A no-op when containers are disabled.
    pub fn bind_thread_default(&mut self) -> Result<(), RcError> {
        if !self.containers_enabled() {
            return Ok(());
        }
        let c = self
            .k
            .process_container(self.pid)
            .ok_or(RcError::NotFound)?;
        if self.current_binding() == Some(c) {
            return Ok(());
        }
        self.charge(cost::RC_BIND);
        self.bind_thread(c)
    }

    /// Returns the process's default container id.
    pub fn default_container(&self) -> Option<ContainerId> {
        self.k.process_container(self.pid)
    }

    /// Returns the calling thread's current resource binding.
    pub fn current_binding(&self) -> Option<ContainerId> {
        self.k.thread_ref(self.thread).map(|t| t.resource_binding)
    }

    /// Adds a container to the calling thread's *scheduler binding*
    /// without changing its resource binding (§4.3: the kernel tracks the
    /// set of containers a multiplexed thread serves; a server thread that
    /// accepts from a class's listening socket serves that class).
    pub fn join_scheduler_binding(&mut self, id: ContainerId) -> Result<(), RcError> {
        if !self.containers_enabled() {
            return Ok(());
        }
        if !self.k.containers.contains(id) {
            return Err(RcError::NotFound);
        }
        let now = self.k.clock_now();
        let binding = {
            let containers = &self.k.containers;
            let th = self
                .k
                .threads
                .get_mut(self.thread)
                .ok_or(RcError::NotFound)?;
            th.sched_binding.retain_live(|c| containers.contains(c));
            th.sched_binding.touch(id, now);
            th.sched_binding.containers().to_vec()
        };
        self.k
            .scheduler_mut()
            .set_binding(self.thread, &binding, now);
        Ok(())
    }

    /// Resets the thread's scheduler binding to only its current resource
    /// binding (§4.6 "Reset the scheduler binding").
    pub fn reset_scheduler_binding(&mut self) {
        self.charge(cost::RC_BIND);
        let now = self.k.clock_now();
        let binding = {
            let Some(th) = self.k.thread_mut(self.thread) else {
                return;
            };
            th.sched_binding.reset(th.resource_binding, now);
            th.sched_binding.containers().to_vec()
        };
        self.k
            .scheduler_mut()
            .set_binding(self.thread, &binding, now);
    }

    /// Binds a socket to a container (§4.6 "Binding a socket or file to a
    /// container"); subsequent kernel consumption for the socket is
    /// charged there. Like [`SysCtx::bind_thread`], accepts a descriptor
    /// (charged, checked) or a raw id (trusted) via
    /// `impl Into<ContainerRef>`.
    pub fn bind_socket(&mut self, sock: SockId, c: impl Into<ContainerRef>) -> Result<(), RcError> {
        self.require_containers()?;
        let id = match c.into() {
            ContainerRef::Fd(fd) => {
                self.trace_sys("rc_bind_socket");
                self.charge(cost::RC_BIND);
                self.resolve_fd(fd)?
            }
            ContainerRef::Id(id) => id,
        };
        let old = self.k.stack.container_of(sock);
        self.k.containers.bind_socket(id)?;
        self.k.stack.set_container(sock, Some(id));
        if let Some(o) = old {
            let _ = self.k.containers.unbind_socket(o);
        }
        Ok(())
    }

    /// Passes a container to another process (§4.6 "Sharing containers
    /// between processes"); the sender retains access.
    pub fn pass_container(&mut self, fd: ContainerFd, to: Pid) -> Result<ContainerFd, RcError> {
        self.require_containers()?;
        self.charge(cost::RC_PASS);
        let id = self.resolve_fd(fd)?;
        self.k.containers.add_descriptor_ref(id)?;
        let recv = self.k.process_mut(to).ok_or(RcError::NotFound)?;
        Ok(recv.containers.adopt(id))
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Forks a child process running `handler`. The child's default
    /// container is created under `container_parent` (defaulting to the
    /// root, like a plain UNIX process) with `attrs`.
    pub fn spawn_process(
        &mut self,
        handler: Box<dyn AppHandler>,
        name: &str,
        container_parent: Option<ContainerId>,
        attrs: Attributes,
    ) -> Pid {
        self.trace_sys("fork");
        self.charge(cost::FORK);
        self.k
            .spawn_process(handler, name, container_parent, attrs, Some(self.pid))
    }

    /// Creates an extra thread in the calling process.
    pub fn spawn_thread(&mut self) -> Option<TaskId> {
        self.charge(cost::FORK / 4);
        self.k.spawn_thread(self.pid)
    }
}
