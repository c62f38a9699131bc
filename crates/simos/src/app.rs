//! The application model: state machines driven by kernel upcalls.
//!
//! Simulated applications cannot run on real OS threads inside virtual
//! time, so each process is a state machine implementing [`AppHandler`].
//! The kernel delivers an [`AppEvent`] to the handler only after the CPU
//! cost of the triggering work has been consumed on the simulated CPU, so
//! application-visible timing reflects scheduling and queueing exactly.

use sched::TaskId;
use simnet::{IpAddr, SockId};

use crate::ids::Pid;
use crate::syscall::SysCtx;

/// An upcall delivered to an application state machine.
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// The process's first thread has started.
    Start,
    /// `select()` returned; `ready` holds the readable/acceptable sockets
    /// among the interest set (in interest-set order).
    SelectReady {
        /// Ready sockets.
        ready: Vec<SockId>,
    },
    /// The scalable event API delivered a batch of per-socket events, in
    /// container-priority order when containers are enabled (§5.5).
    EventReady {
        /// Sockets with pending events.
        events: Vec<SockId>,
    },
    /// A deferred computation queued with [`SysCtx::compute`] finished.
    Continue {
        /// The application-chosen continuation tag.
        tag: u64,
    },
    /// A timer armed with [`SysCtx::sleep_until`] fired.
    Timer {
        /// The application-chosen tag.
        tag: u64,
    },
    /// A file read issued with [`SysCtx::read_file`] finished: the data is
    /// in user space (after a buffer-cache hit or a disk read plus copy).
    FileRead {
        /// The application-chosen tag.
        tag: u64,
        /// Bytes delivered.
        bytes: u64,
        /// `true` if served from the buffer cache without touching the
        /// disk.
        cached: bool,
    },
    /// A socket blocked by send backpressure has headroom again: either a
    /// [`SysCtx::send_wait`] unblocked or the socket was registered for
    /// writability with [`SysCtx::event_register_writable`].
    Writable {
        /// The socket that became writable.
        sock: SockId,
    },
    /// The kernel dropped a SYN because a listen queue overflowed, and the
    /// application had asked to be notified (§5.7).
    SynDropNotice {
        /// Listener whose queue overflowed.
        listener: SockId,
        /// Source address of the dropped SYN.
        src: IpAddr,
    },
    /// The peer reset an established connection. The kernel has already
    /// released the socket and its buffers; the application must drop its
    /// own per-connection state (and container references, §4.6) or they
    /// stay bound to a dead connection forever.
    ConnReset {
        /// The connection that was reset.
        conn: SockId,
    },
    /// A container-targeted OOM kill hit a container this process owned
    /// resources under: the kernel has released the container's socket
    /// buffers (connections were reset), cache pages, and explicit
    /// [`SysCtx::kmem_reserve`] reservations. The application must drop
    /// its own state for the killed activity.
    MemKill {
        /// Raw key of the killed container.
        container: u64,
    },
    /// A child process exited.
    ChildExited {
        /// The exited child.
        pid: Pid,
    },
}

/// A simulated application: one handler per process, shared by all of the
/// process's threads.
///
/// Handlers must not busy-wait: after handling an event, every live thread
/// should either have queued work, be blocked (via `select_wait`,
/// `event_wait`, `sleep_until`, ...), or have exited.
pub trait AppHandler {
    /// Handles one upcall on behalf of `thread`.
    fn on_event(&mut self, sys: &mut SysCtx<'_>, thread: TaskId, event: AppEvent);
}
