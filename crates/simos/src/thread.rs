//! Threads: the schedulable entities of the simulated kernel.
//!
//! A thread owns a FIFO queue of [`WorkItem`]s. Each item carries a CPU
//! cost and an operation; the operation's effects (packets sent, upcalls
//! delivered, blocking) apply only once the cost has been fully consumed
//! on the simulated CPU. This cost-before-effect discipline is what makes
//! response times come out right under contention.

use std::collections::VecDeque;

use rescon::{ContainerId, SchedulerBinding};
use sched::TaskId;
use simcore::{Nanos, SpanRef};
use simnet::{Packet, SockId};

use crate::app::AppEvent;
use crate::ids::Pid;

/// What a blocked thread is waiting for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitFor {
    /// `select()` over an interest set: wakes when any socket is readable
    /// or has an acceptable connection.
    Select {
        /// The interest set.
        socks: Vec<SockId>,
    },
    /// The process's scalable-event-API queue is non-empty.
    Event,
    /// A specific socket is readable (blocking `read()`).
    Readable(SockId),
    /// A specific listener has an acceptable connection (blocking
    /// `accept()`).
    Acceptable(SockId),
    /// A specific socket has send headroom again (blocking writers under
    /// link backpressure).
    Writable(SockId),
    /// A timer deadline.
    Timer {
        /// Application tag delivered on expiry.
        tag: u64,
    },
    /// Nothing: parked until the kernel finds work (kernel network
    /// threads idle this way).
    Idle,
}

/// An operation performed when a work item's cost has been consumed.
#[derive(Debug)]
pub enum Op {
    /// Pure CPU burn; no effect.
    Nop,
    /// Deliver an upcall to the owning process's handler.
    Upcall(AppEvent),
    /// Re-check `select()` readiness and deliver `SelectReady` (or
    /// re-block if nothing is ready anymore).
    DeliverSelect {
        /// The interest set supplied to `select_wait`.
        socks: Vec<SockId>,
    },
    /// Drain the process's event-API queue and deliver `EventReady` (or
    /// re-block if empty).
    DeliverEvents,
    /// Transmit prepared packets (the cost was computed at enqueue time).
    Transmit {
        /// Packets to hand to the NIC.
        pkts: Vec<Packet>,
    },
    /// Transmit one prepared packet, as [`Op::Transmit`] does, without a
    /// `Vec` (the kernel network thread sends one per work item).
    TransmitOne {
        /// The packet to hand to the NIC.
        pkt: Packet,
    },
    /// Re-check writability and deliver `Writable` (or re-block if the
    /// headroom was consumed again before the thread ran).
    DeliverWritable {
        /// The socket whose backpressure drained.
        sock: SockId,
    },
    /// Close a connection socket and transmit its FIN.
    CloseSock {
        /// Socket to close.
        sock: SockId,
    },
    /// Block the thread (executed after all queued work, keeping the
    /// syscall order an application issued).
    Block(WaitFor),
    /// Protocol-process one received packet on a kernel network thread.
    ProtoRx {
        /// The packet to process.
        pkt: Packet,
    },
    /// Terminate the thread; the process exits when its last thread does.
    Exit,
}

/// A unit of queued work: consume `cost`, then perform `op`.
#[derive(Debug)]
pub struct WorkItem {
    /// CPU cost to consume before the effect applies.
    pub cost: Nanos,
    /// Effect.
    pub op: Op,
    /// Charge to this container instead of the thread's current resource
    /// binding (used by kernel network threads processing a packet for a
    /// specific container).
    pub charge_to: Option<ContainerId>,
    /// Charge as kernel-mode time.
    pub kernel_mode: bool,
    /// Request span this work executes on behalf of
    /// ([`SpanRef::NONE`] when none); purely observational.
    pub span: SpanRef,
}

/// Scheduling state of a thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Waiting for a condition.
    Blocked(WaitFor),
}

/// What kind of thread this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadKind {
    /// An application thread driven by upcalls.
    App,
    /// The per-process kernel network thread (§5.1: "a per-process kernel
    /// thread is used to perform processing of network packets in priority
    /// order of their containers").
    KernelNet,
}

/// A simulated thread.
#[derive(Debug)]
pub struct Thread {
    /// Scheduler-visible id.
    pub id: TaskId,
    /// Owning process.
    pub pid: Pid,
    /// Thread kind.
    pub kind: ThreadKind,
    /// Current resource binding (§4.2): the container charged for this
    /// thread's consumption.
    pub resource_binding: ContainerId,
    /// Scheduler binding (§4.3): containers recently served.
    pub sched_binding: SchedulerBinding,
    /// Queued work, FIFO.
    pub queue: VecDeque<WorkItem>,
    /// Remaining cost of the front work item.
    pub remaining: Nanos,
    /// Scheduling state.
    pub state: ThreadState,
    /// Request span the thread is currently working on behalf of
    /// (`0` = none). Set when a span-tagged work item completes and
    /// inherited by work the thread pushes from syscalls; purely
    /// observational.
    pub cur_span: u64,
}

impl Thread {
    /// Creates a runnable thread bound to `container`.
    pub fn new(id: TaskId, pid: Pid, kind: ThreadKind, container: ContainerId, now: Nanos) -> Self {
        let mut sched_binding = SchedulerBinding::new();
        sched_binding.touch(container, now);
        Thread {
            id,
            pid,
            kind,
            resource_binding: container,
            sched_binding,
            queue: VecDeque::new(),
            remaining: Nanos::ZERO,
            state: ThreadState::Runnable,
            cur_span: 0,
        }
    }

    /// Appends a work item; if the queue was empty, primes `remaining`.
    pub fn push_work(&mut self, item: WorkItem) {
        if self.queue.is_empty() {
            self.remaining = item.cost;
        }
        self.queue.push_back(item);
    }

    /// Returns `true` if the thread has queued work.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Pops the completed front item (its cost must be fully consumed) and
    /// primes the next one.
    pub fn pop_completed(&mut self) -> Option<WorkItem> {
        debug_assert!(self.remaining.is_zero(), "front item not finished");
        let item = self.queue.pop_front()?;
        self.remaining = self.queue.front().map(|i| i.cost).unwrap_or(Nanos::ZERO);
        Some(item)
    }

    /// The container the front work item should be charged to.
    pub fn charge_container(&self) -> ContainerId {
        self.queue
            .front()
            .and_then(|i| i.charge_to)
            .unwrap_or(self.resource_binding)
    }

    /// Whether the front work item is kernel-mode work.
    pub fn charge_kernel_mode(&self) -> bool {
        self.queue
            .front()
            .map(|i| i.kernel_mode)
            .unwrap_or(self.kind == ThreadKind::KernelNet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescon::{Attributes, ContainerTable};

    fn mk_thread() -> (ContainerTable, Thread) {
        let mut t = ContainerTable::new();
        let c = t.create(None, Attributes::time_shared(1)).unwrap();
        (
            t,
            Thread::new(TaskId(1), Pid(1), ThreadKind::App, c, Nanos::ZERO),
        )
    }

    fn nop(cost: u64) -> WorkItem {
        WorkItem {
            cost: Nanos::from_micros(cost),
            op: Op::Nop,
            charge_to: None,
            kernel_mode: false,
            span: SpanRef::NONE,
        }
    }

    #[test]
    fn push_primes_remaining() {
        let (_t, mut th) = mk_thread();
        assert!(!th.has_work());
        th.push_work(nop(5));
        assert_eq!(th.remaining, Nanos::from_micros(5));
        th.push_work(nop(9));
        // Remaining still tracks the front item.
        assert_eq!(th.remaining, Nanos::from_micros(5));
    }

    #[test]
    fn pop_completed_advances_queue() {
        let (_t, mut th) = mk_thread();
        th.push_work(nop(5));
        th.push_work(nop(9));
        th.remaining = Nanos::ZERO;
        let done = th.pop_completed().unwrap();
        assert_eq!(done.cost, Nanos::from_micros(5));
        assert_eq!(th.remaining, Nanos::from_micros(9));
        th.remaining = Nanos::ZERO;
        th.pop_completed().unwrap();
        assert!(!th.has_work());
        assert!(th.pop_completed().is_none());
    }

    #[test]
    fn charge_container_prefers_item_override() {
        let (mut table, mut th) = mk_thread();
        let other = table.create(None, Attributes::time_shared(2)).unwrap();
        th.push_work(WorkItem {
            cost: Nanos::from_micros(1),
            op: Op::Nop,
            charge_to: Some(other),
            kernel_mode: true,
            span: SpanRef::NONE,
        });
        assert_eq!(th.charge_container(), other);
        assert!(th.charge_kernel_mode());
        th.remaining = Nanos::ZERO;
        th.pop_completed();
        assert_eq!(th.charge_container(), th.resource_binding);
        assert!(!th.charge_kernel_mode());
    }

    #[test]
    fn kernel_thread_defaults_to_kernel_mode() {
        let mut table = ContainerTable::new();
        let c = table.create(None, Attributes::time_shared(1)).unwrap();
        let th = Thread::new(TaskId(2), Pid(1), ThreadKind::KernelNet, c, Nanos::ZERO);
        assert!(th.charge_kernel_mode());
    }
}
