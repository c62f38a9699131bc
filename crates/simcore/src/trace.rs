//! Typed, zero-cost-when-disabled kernel tracing.
//!
//! Every subsystem in the workspace (`simos`, `simnet`, `simdisk`,
//! `sched`, `rescon`) records structured [`TraceEvent`]s into a bounded
//! thread-local ring at its decision points: context switches, thread
//! state changes, syscall entry/exit, packet demultiplexing and drops,
//! LRP kthread dispatch, disk queue/start/complete, cache hits and
//! evictions, container lifecycle and charges, and scheduler picks.
//!
//! Tracing is **off by default** and, when off, every [`emit`] costs one
//! thread-local branch; the event-construction closure is never
//! evaluated. Recording is side-effect-free with respect to the
//! simulation: enabling tracing must never change a run's virtual-time
//! results (property-tested at workspace level).
//!
//! The session is thread-local because a simulation is single-threaded
//! by construction; the Rust test harness gives each test its own
//! thread, so concurrent tests never share a ring.
//!
//! Higher-level session management (metrics sampling, exporters) lives in
//! the `rctrace` crate; this module is only the event taxonomy and the
//! ring.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use crate::time::Nanos;

/// Sentinel for "no owning container" in a trace event. Real container
/// ids are `Idx::as_u64()` values, whose generation-in-the-high-bits
/// encoding never produces `u64::MAX`.
pub const NO_CONTAINER: u64 = u64::MAX;

/// What kind of consumption a [`TraceEventKind::Charge`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargeKind {
    /// User-mode CPU time (nanoseconds).
    Cpu,
    /// Kernel-mode CPU time (nanoseconds).
    KernelCpu,
    /// Disk service time (nanoseconds).
    Disk,
    /// Received bytes.
    RxBytes,
    /// Transmitted bytes.
    TxBytes,
    /// Link wire time (nanoseconds) on a finite-bandwidth transmit link.
    TxTime,
    /// Kernel memory charged (bytes).
    Mem,
}

impl ChargeKind {
    /// Stable lower-case label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            ChargeKind::Cpu => "cpu",
            ChargeKind::KernelCpu => "kernel_cpu",
            ChargeKind::Disk => "disk",
            ChargeKind::RxBytes => "rx_bytes",
            ChargeKind::TxBytes => "tx_bytes",
            ChargeKind::TxTime => "tx_time",
            ChargeKind::Mem => "mem",
        }
    }
}

/// A structured kernel trace event.
///
/// Fields use primitive ids: task ids are the scheduler's raw `u32`,
/// containers are `Idx::as_u64()` values (or [`NO_CONTAINER`]), so the
/// substrate stays ignorant of the higher crates' types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A CPU switched from one thread to another.
    CtxSwitch {
        /// Previously running task (`u32::MAX` when coming from idle).
        from: u32,
        /// Task now running.
        to: u32,
        /// Container the new task charges by default.
        container: u64,
        /// The CPU on which the switch happened (always 0 on a
        /// uniprocessor configuration).
        cpu: u32,
    },
    /// The load balancer migrated a thread between CPUs.
    Migrate {
        /// The migrated task.
        task: u32,
        /// CPU the task left.
        from_cpu: u32,
        /// CPU the task now runs on.
        to_cpu: u32,
        /// Container whose imbalance motivated the migration.
        container: u64,
    },
    /// A thread became runnable or blocked.
    ThreadState {
        /// The task whose state changed.
        task: u32,
        /// `true` = runnable, `false` = blocked/parked.
        runnable: bool,
    },
    /// A syscall was entered.
    SyscallEnter {
        /// Static syscall name.
        name: &'static str,
        /// Calling task.
        task: u32,
        /// Calling process.
        pid: u32,
        /// The calling thread's resource binding.
        container: u64,
    },
    /// A syscall returned.
    SyscallExit {
        /// Static syscall name.
        name: &'static str,
        /// Calling task.
        task: u32,
    },
    /// Early demultiplexing classified a received packet.
    PacketDemux {
        /// Destination port of the packet.
        port: u16,
        /// Whether a socket matched.
        matched: bool,
        /// Owning container of the matched socket.
        container: u64,
    },
    /// A packet was dropped before protocol processing.
    PacketDrop {
        /// Static reason ("no-owner", "queue-full", "syn-evict",
        /// "accept-overflow").
        reason: &'static str,
        /// Container charged for the packet, when known.
        container: u64,
    },
    /// The LRP kernel thread dequeued a packet for protocol processing.
    LrpDispatch {
        /// The kernel network thread.
        task: u32,
        /// Principal whose queue was served.
        container: u64,
    },
    /// A disk request entered the I/O scheduler queue.
    DiskQueue {
        /// Request id.
        req: u64,
        /// File identifier.
        file: u64,
        /// Transfer size in bytes.
        bytes: u64,
        /// Container charged for the service time.
        container: u64,
    },
    /// The disk started servicing a request.
    DiskStart {
        /// Request id.
        req: u64,
        /// File identifier.
        file: u64,
        /// Container charged.
        container: u64,
        /// Seek + rotation + transfer service time.
        service: Nanos,
    },
    /// A disk request completed.
    DiskComplete {
        /// Request id.
        req: u64,
        /// Container charged.
        container: u64,
        /// Service time charged.
        service: Nanos,
    },
    /// An outbound packet entered the transmit link scheduler queue.
    LinkQueue {
        /// Destination port of the queued packet.
        port: u16,
        /// Wire bytes (headers + payload) of the packet.
        bytes: u64,
        /// Container whose queue it joined.
        container: u64,
    },
    /// The transmit link started putting a packet on the wire.
    LinkStart {
        /// Destination port of the packet.
        port: u16,
        /// Wire bytes (headers + payload) of the packet.
        bytes: u64,
        /// Container charged for the wire time.
        container: u64,
        /// Time the packet occupies the link.
        wire: Nanos,
    },
    /// The buffer cache served a lookup from memory.
    CacheHit {
        /// File identifier.
        file: u64,
        /// Owner of the resident bytes.
        container: u64,
    },
    /// The buffer cache missed.
    CacheMiss {
        /// File identifier.
        file: u64,
    },
    /// The buffer cache evicted a resident file.
    CacheEvict {
        /// File identifier.
        file: u64,
        /// Bytes released.
        bytes: u64,
        /// Owner whose memory charge was released.
        container: u64,
    },
    /// A resource container was created.
    ContainerCreate {
        /// The new container.
        container: u64,
        /// Its parent ([`NO_CONTAINER`] for the root or parentless).
        parent: u64,
    },
    /// A resource container was destroyed.
    ContainerDestroy {
        /// The destroyed container.
        container: u64,
    },
    /// Consumption was charged to a container.
    Charge {
        /// The charged container.
        container: u64,
        /// What resource.
        kind: ChargeKind,
        /// Nanoseconds or bytes, per [`ChargeKind`].
        amount: u64,
    },
    /// The CPU scheduler picked a task.
    SchedPick {
        /// The picked task.
        task: u32,
        /// Granted slice length.
        slice: Nanos,
    },
    /// A subtree with a memory limit crossed its pressure threshold
    /// (usage above the configured fraction of the limit) after a
    /// successful charge.
    MemPressure {
        /// The limited container under pressure.
        container: u64,
        /// Its subtree memory usage in bytes.
        used: u64,
        /// Its configured memory limit in bytes.
        limit: u64,
    },
    /// The reclaim driver stole a reclaimable (cache) page set to make
    /// room under a violated memory limit.
    Reclaim {
        /// The limited container whose subtree was over budget.
        container: u64,
        /// The owner the bytes were stolen from (within that subtree).
        victim: u64,
        /// File identifier of the stolen cache entry.
        file: u64,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// Reclaim could not satisfy a hard allocation; the OOM killer
    /// targeted the offending principal (largest charge in the violating
    /// subtree).
    OomKill {
        /// The limited container whose subtree was over budget.
        container: u64,
        /// The principal that was killed.
        victim: u64,
        /// The victim's charged bytes at kill time.
        bytes: u64,
    },
    /// A memory charge was refused by a limit on the ancestor chain
    /// (after any reclaim and OOM attempts).
    MemRefused {
        /// The container the charge was for.
        container: u64,
        /// The ancestor whose limit refused it.
        refusing: u64,
        /// The refusing ancestor's configured limit in bytes.
        limit: u64,
        /// The refusing ancestor's subtree usage in bytes.
        used: u64,
        /// Bytes the caller wanted to charge.
        wanted: u64,
    },
    /// Fault injection silently dropped an inbound packet before the
    /// stack saw it.
    FaultPacketDrop {
        /// Destination port of the lost packet.
        port: u16,
        /// Container the packet would have charged, when known
        /// ([`NO_CONTAINER`] when it was lost before classification).
        container: u64,
    },
    /// Fault injection corrupted an inbound packet's payload.
    FaultPacketCorrupt {
        /// Destination port of the corrupted packet.
        port: u16,
        /// Container the packet charges, when known.
        container: u64,
    },
    /// Fault injection delayed an inbound packet in flight.
    FaultPacketDelay {
        /// Destination port of the delayed packet.
        port: u16,
        /// Extra in-flight delay.
        delay: Nanos,
        /// Container the packet charges, when known.
        container: u64,
    },
    /// Fault injection failed a disk request with an I/O error.
    FaultDiskError {
        /// File identifier of the failed request.
        file: u64,
        /// Container charged for the wasted service time.
        container: u64,
    },
    /// Fault injection added a latency spike to a disk request.
    FaultDiskSpike {
        /// File identifier of the spiked request.
        file: u64,
        /// Extra service time added.
        extra: Nanos,
        /// Container charged.
        container: u64,
    },
    /// Fault injection made a client abandon its request mid-stream.
    FaultClientAbandon {
        /// Index of the misbehaving client.
        client: u32,
    },
    /// Fault injection made a client send a malformed request.
    FaultClientMalformed {
        /// Index of the misbehaving client.
        client: u32,
    },
    /// A request completed over a declared latency SLO threshold (the
    /// online monitor fires one instant per violating sample).
    SloViolation {
        /// The tenant container the SLO is declared on.
        container: u64,
        /// The minted request id of the violating request.
        request: u64,
        /// The request's end-to-end latency.
        latency: Nanos,
        /// The declared threshold it exceeded.
        threshold: Nanos,
    },
    /// Fault injection slowed a client's request transmission.
    FaultClientSlow {
        /// Index of the misbehaving client.
        client: u32,
        /// Extra transmission delay.
        delay: Nanos,
    },
    /// The CPU scheduling policy was hot-swapped, its tasks carried
    /// across as policy-neutral snapshots.
    PolicySwap {
        /// Name of the detached policy.
        from: &'static str,
        /// Name of the attached policy.
        to: &'static str,
    },
}

/// One recorded event: virtual time plus the structured payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time at which the event was recorded.
    pub at: Nanos,
    /// The structured payload.
    pub kind: TraceEventKind,
}

/// The drained contents of a trace session.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer {
    /// Retained events, oldest first (the most recent `capacity`).
    pub events: Vec<TraceEvent>,
    /// Total events emitted while enabled (including evicted ones).
    pub emitted: u64,
    /// Events evicted because the ring was full.
    pub dropped: u64,
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    emitted: u64,
    dropped: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static NOW: Cell<Nanos> = const { Cell::new(Nanos::ZERO) };
    static RING: RefCell<Option<Ring>> = const { RefCell::new(None) };
}

/// Returns `true` if tracing is enabled on this thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Starts a trace session retaining at most `capacity` events. Any
/// previous session's events are discarded.
pub fn start(capacity: usize) {
    RING.with(|r| {
        *r.borrow_mut() = Some(Ring {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            emitted: 0,
            dropped: 0,
        });
    });
    NOW.with(|n| n.set(Nanos::ZERO));
    ENABLED.with(|e| e.set(true));
}

/// Stops the session and returns everything recorded. Idempotent: a
/// second call returns an empty buffer.
pub fn stop() -> TraceBuffer {
    ENABLED.with(|e| e.set(false));
    RING.with(|r| match r.borrow_mut().take() {
        Some(ring) => TraceBuffer {
            events: ring.events.into(),
            emitted: ring.emitted,
            dropped: ring.dropped,
        },
        None => TraceBuffer::default(),
    })
}

/// A trace session detached from the thread-local slot by [`pause`], so a
/// different session can run in the meantime (cluster drivers hold one
/// per node and swap them around each kernel step).
pub struct PausedTrace {
    enabled: bool,
    now: Nanos,
    ring: Option<Ring>,
}

/// Detaches the current session — enabled flag, clock, and ring — leaving
/// tracing disabled until [`resume`] or [`start`] is called.
pub fn pause() -> PausedTrace {
    PausedTrace {
        enabled: ENABLED.with(|e| e.replace(false)),
        now: NOW.with(|n| n.get()),
        ring: RING.with(|r| r.borrow_mut().take()),
    }
}

/// Reinstates a session captured by [`pause`], restoring its clock and
/// enabled flag exactly as they were.
pub fn resume(paused: PausedTrace) {
    RING.with(|r| *r.borrow_mut() = paused.ring);
    NOW.with(|n| n.set(paused.now));
    ENABLED.with(|e| e.set(paused.enabled));
}

/// Advances the session clock; subsequent [`emit`]s are stamped with
/// `at`. The kernel calls this wherever it advances its own clock.
#[inline]
pub fn set_now(at: Nanos) {
    if enabled() {
        NOW.with(|n| n.set(at));
    }
}

/// Records an event at the current session clock. `f` is only evaluated
/// when tracing is enabled.
#[inline]
pub fn emit(f: impl FnOnce() -> TraceEventKind) {
    if !enabled() {
        return;
    }
    record(NOW.with(|n| n.get()), f());
}

/// Records an event at an explicit virtual time (for call sites that
/// know `now` but run outside the kernel's clock updates).
#[inline]
pub fn emit_at(at: Nanos, f: impl FnOnce() -> TraceEventKind) {
    if !enabled() {
        return;
    }
    record(at, f());
}

fn record(at: Nanos, kind: TraceEventKind) {
    RING.with(|r| {
        if let Some(ring) = r.borrow_mut().as_mut() {
            ring.emitted += 1;
            if ring.events.len() == ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(TraceEvent { at, kind });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing_and_never_evaluates() {
        let _ = stop();
        emit(|| panic!("must not evaluate"));
        emit_at(Nanos::ZERO, || panic!("must not evaluate"));
        assert!(!enabled());
        assert!(stop().events.is_empty());
    }

    #[test]
    fn events_are_stamped_with_session_clock() {
        start(16);
        set_now(Nanos::from_micros(5));
        emit(|| TraceEventKind::CacheMiss { file: 7 });
        emit_at(Nanos::from_micros(9), || TraceEventKind::CacheMiss {
            file: 8,
        });
        let buf = stop();
        assert_eq!(buf.events.len(), 2);
        assert_eq!(buf.events[0].at, Nanos::from_micros(5));
        assert_eq!(buf.events[1].at, Nanos::from_micros(9));
        assert_eq!(buf.emitted, 2);
        assert_eq!(buf.dropped, 0);
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        start(3);
        for i in 0..5 {
            emit_at(Nanos::from_nanos(i), || TraceEventKind::CacheMiss {
                file: i,
            });
        }
        let buf = stop();
        assert_eq!(buf.events.len(), 3);
        assert_eq!(buf.emitted, 5);
        assert_eq!(buf.dropped, 2);
        let files: Vec<u64> = buf
            .events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::CacheMiss { file } => file,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(files, [2, 3, 4]);
    }

    #[test]
    fn stop_is_idempotent_and_restartable() {
        start(4);
        emit(|| TraceEventKind::CacheMiss { file: 1 });
        assert_eq!(stop().events.len(), 1);
        assert_eq!(stop().events.len(), 0);
        start(4);
        assert!(enabled());
        assert!(stop().events.is_empty());
    }

    #[test]
    fn charge_kind_labels_are_stable() {
        for (k, l) in [
            (ChargeKind::Cpu, "cpu"),
            (ChargeKind::KernelCpu, "kernel_cpu"),
            (ChargeKind::Disk, "disk"),
            (ChargeKind::RxBytes, "rx_bytes"),
            (ChargeKind::TxBytes, "tx_bytes"),
            (ChargeKind::TxTime, "tx_time"),
            (ChargeKind::Mem, "mem"),
        ] {
            assert_eq!(k.label(), l);
        }
    }
}
