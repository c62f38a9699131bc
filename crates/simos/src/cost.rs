//! The CPU cost model, calibrated to the paper's measured per-request
//! costs (§5.3).
//!
//! The paper measures, on a 500 MHz Alpha 21164 running Digital UNIX 4.0D:
//!
//! - 2954 requests/s for 1 KB cached static files with one request per
//!   connection → **338 µs of CPU per request**;
//! - 9487 requests/s with persistent connections → **105 µs per request**.
//!
//! The constants below decompose those totals into per-operation costs
//! with plausible early-demultiplexing / protocol / syscall / user-level
//! splits (the paper does not publish a breakdown; the *totals* are what
//! the experiments depend on, and the baseline-throughput integration test
//! pins both totals to within a few percent).
//!
//! Persistent-request total: `INTR_DEMUX + DATA_RX + event wake (≈
//! EVENT_API_BASE + EVENT_API_PER_EVENT) + READ_SYSCALL + user work (≈47
//! µs, charged by the application) + WRITE_SYSCALL + DATA_TX + demux of
//! the request ACK` ≈ 105 µs. Connection setup/teardown adds ≈ 233 µs
//! (SYN + SYN-ACK + establish + accept + FIN exchange + close + fd churn),
//! for 338 µs total.
//!
//! Container-primitive costs are taken directly from Table 1 of the paper.
//! The simulator models this one machine, so the costs are constants.

use simcore::Nanos;
use simnet::PacketKind;

/// Microsecond helper for readable constants.
const fn us(n: u64) -> Nanos {
    Nanos::from_micros(n)
}

// --- Interrupt-level costs ---

/// Early demultiplex + packet-filter per received packet (always at
/// interrupt level, in every discipline).
pub const INTR_DEMUX: Nanos = Nanos::from_nanos(3_900);
/// Context-switch overhead, charged as uncounted system overhead.
pub const CTX_SWITCH: Nanos = us(3);

// --- Protocol processing (interrupt level or kernel thread) ---

/// TCP/IP receive processing of a SYN (PCB lookup, queue insert).
pub const SYN_PROC: Nanos = us(54);
/// Transmit path of the SYN-ACK.
pub const SYNACK_TX: Nanos = us(24);
/// Receive processing of the handshake-completing ACK, including PCB
/// allocation and accept-queue insertion.
pub const ESTABLISH_PROC: Nanos = us(58);
/// Receive processing of a data segment.
pub const DATA_RX: Nanos = us(17);
/// Transmit path of a data segment (copy + checksum of ≤ MSS bytes).
pub const DATA_TX: Nanos = us(24);
/// Receive processing of a FIN or RST.
pub const FIN_RX: Nanos = us(12);
/// Transmit path of a FIN, including PCB teardown scheduling.
pub const FIN_TX: Nanos = us(28);

// --- Socket syscalls ---

/// `accept()` including fd allocation.
pub const ACCEPT_SYSCALL: Nanos = us(28);
/// `read()` from a socket.
pub const READ_SYSCALL: Nanos = us(6);
/// `write()` base cost (per-packet `DATA_TX` comes on top).
pub const WRITE_SYSCALL: Nanos = us(7);
/// `close()` of a connection, including fd and PCB release.
pub const CLOSE_SYSCALL: Nanos = us(36);
/// Creating a listening socket.
pub const LISTEN_SYSCALL: Nanos = us(25);

// --- Event delivery ---

/// Fixed cost of a `select()` call.
pub const SELECT_BASE: Nanos = us(6);
/// Per-descriptor scan cost of `select()` (the linear term of §5.5).
pub const SELECT_PER_FD: Nanos = Nanos::from_nanos(2_000);
/// Fixed cost of a scalable-event-API wait/dequeue.
pub const EVENT_API_BASE: Nanos = us(3);
/// Per-event delivery cost of the scalable event API.
pub const EVENT_API_PER_EVENT: Nanos = us(1);

// --- Process machinery ---

/// `fork()`/`exec()` of a CGI process.
pub const FORK: Nanos = us(400);
/// Process teardown.
pub const EXIT: Nanos = us(150);

// --- Container primitives (Table 1 of the paper) ---

/// Create a resource container: 2.36 µs.
pub const RC_CREATE: Nanos = Nanos::from_nanos(2_360);
/// Destroy a resource container: 2.10 µs.
pub const RC_DESTROY: Nanos = Nanos::from_nanos(2_100);
/// Change a thread's resource binding: 1.04 µs.
pub const RC_BIND: Nanos = Nanos::from_nanos(1_040);
/// Obtain container resource usage: 2.04 µs.
pub const RC_USAGE: Nanos = Nanos::from_nanos(2_040);
/// Set/get container attributes: 2.10 µs.
pub const RC_ATTRS: Nanos = Nanos::from_nanos(2_100);
/// Move a container between processes: 3.15 µs.
pub const RC_PASS: Nanos = Nanos::from_nanos(3_150);
/// Obtain a handle for an existing container: 1.90 µs.
pub const RC_HANDLE: Nanos = Nanos::from_nanos(1_900);

// --- File I/O ---

/// Interrupt-level handling of a disk completion (the disk interrupt
/// itself; the request's *service time* is disk time, charged to the
/// owning container by `simdisk`, not CPU).
pub const DISK_INTR: Nanos = us(10);
/// CPU cost of copying file data to the application, per KiB; paid on
/// buffer-cache hits and on miss completions alike.
pub const FILE_COPY_PER_KB: Nanos = us(3);

// --- Link model ---

/// One-way wire+switch latency between client and server.
pub const LINK_LATENCY: Nanos = us(40);

/// Cost of one `select()` scan over `n` descriptors.
pub fn select_scan(n: usize) -> Nanos {
    SELECT_BASE + SELECT_PER_FD * n as u64
}

/// Cost of delivering `n` events through the scalable event API.
pub fn event_delivery(n: usize) -> Nanos {
    EVENT_API_BASE + EVENT_API_PER_EVENT * n as u64
}

/// CPU cost of copying `bytes` of file data to the application
/// (rounded up to whole KiB).
pub fn file_copy(bytes: u64) -> Nanos {
    FILE_COPY_PER_KB * bytes.div_ceil(1024).max(1)
}

/// Protocol-processing cost of a received packet by kind.
pub fn rx_cost(kind: PacketKind) -> Nanos {
    match kind {
        PacketKind::Syn => SYN_PROC,
        PacketKind::Ack => ESTABLISH_PROC,
        PacketKind::Data { .. } => DATA_RX,
        PacketKind::Fin | PacketKind::Rst => FIN_RX,
        PacketKind::SynAck => DATA_RX,
    }
}

/// Transmit cost of an outgoing packet by kind.
pub fn tx_cost(kind: PacketKind) -> Nanos {
    match kind {
        PacketKind::SynAck => SYNACK_TX,
        PacketKind::Data { .. } => DATA_TX,
        PacketKind::Fin => FIN_TX,
        PacketKind::Rst => FIN_TX,
        PacketKind::Syn | PacketKind::Ack => SYNACK_TX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_scan_is_linear() {
        let c0 = select_scan(0);
        let c10 = select_scan(10);
        let c20 = select_scan(20);
        assert_eq!(c20 - c10, c10 - c0);
        assert_eq!(c0, SELECT_BASE);
    }

    #[test]
    fn event_delivery_much_cheaper_than_select_at_scale() {
        assert!(event_delivery(2) < select_scan(100));
    }

    #[test]
    fn table1_values_match_paper() {
        assert_eq!(RC_CREATE, Nanos::from_nanos(2_360));
        assert_eq!(RC_DESTROY, Nanos::from_nanos(2_100));
        assert_eq!(RC_BIND, Nanos::from_nanos(1_040));
        assert_eq!(RC_USAGE, Nanos::from_nanos(2_040));
        assert_eq!(RC_ATTRS, Nanos::from_nanos(2_100));
        assert_eq!(RC_PASS, Nanos::from_nanos(3_150));
        assert_eq!(RC_HANDLE, Nanos::from_nanos(1_900));
    }

    #[test]
    fn container_primitives_are_negligible_vs_request() {
        // §5.4: "all such operations have costs much smaller than that of a
        // single HTTP transaction".
        let per_request = Nanos::from_micros(105);
        for c in [
            RC_CREATE, RC_DESTROY, RC_BIND, RC_USAGE, RC_ATTRS, RC_PASS, RC_HANDLE,
        ] {
            assert!(c * 10 < per_request);
        }
    }

    #[test]
    fn rx_tx_costs_cover_all_kinds() {
        for k in [
            PacketKind::Syn,
            PacketKind::SynAck,
            PacketKind::Ack,
            PacketKind::Data { bytes: 1 },
            PacketKind::Fin,
            PacketKind::Rst,
        ] {
            assert!(!rx_cost(k).is_zero());
            assert!(!tx_cost(k).is_zero());
        }
    }
}
