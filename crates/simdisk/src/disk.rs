//! The disk device: a single-spindle, one-request-at-a-time server with a
//! positional cost model and exact per-container charging.
//!
//! Service time for a read is
//!
//! ```text
//! service = (SEEK + ROTATION, if the head moves to a different file)
//!         + bytes / TRANSFER_RATE
//! ```
//!
//! so back-to-back reads of the same file stream at the transfer rate
//! while interleaved reads of different files pay a positioning penalty —
//! enough structure for scheduling experiments without modelling tracks.
//!
//! The device is clockless: the kernel owns simulated time. It calls
//! [`SimDisk::submit`] when a request arrives, asks
//! [`SimDisk::next_completion_time`] for the next interesting instant, and
//! calls [`SimDisk::advance`] when that instant is reached. `advance`
//! charges each completed request's service time to its container and
//! accumulates the *same* value into the disk's busy-time counter, so
//!
//! ```text
//! Σ over containers of charged disk time  ==  total_busy
//! ```
//!
//! holds exactly (pinned by a proptest in `tests/prop_disk.rs`).

use rescon::{ContainerId, ContainerTable};
use simcore::span;
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;

use crate::iosched::{IoSched, QueuedRequest};

/// Device-assigned identifier for a submitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

// The physical cost model approximates a late-1990s server disk (the
// hardware era of the paper's testbed).

/// Average seek time paid when the head moves between files: 5 ms.
const SEEK: Nanos = Nanos::from_micros(5_000);
/// Average rotational latency paid along with a seek: 3 ms (10k RPM).
const ROTATION: Nanos = Nanos::from_micros(3_000);
/// Media transfer rate in bytes per second: 20 MiB/s.
const TRANSFER_RATE: u64 = 20 * 1024 * 1024;

/// Service time for reading `bytes` of `file` given the previous head
/// position.
fn service(file: u64, bytes: u64, last_file: Option<u64>) -> Nanos {
    let positioning = if last_file == Some(file) {
        Nanos::ZERO
    } else {
        SEEK + ROTATION
    };
    let transfer =
        Nanos::from_nanos((bytes as u128 * 1_000_000_000 / TRANSFER_RATE as u128) as u64);
    positioning + transfer
}

/// A read request as submitted by the kernel.
#[derive(Clone, Copy, Debug)]
pub struct DiskRequest {
    /// File identifier (position proxy for the cost model).
    pub file: u64,
    /// Bytes to read.
    pub bytes: u64,
    /// Container charged for the service time.
    pub charge_to: ContainerId,
    /// CPU whose interrupt path will handle the completion (0 on a
    /// uniprocessor).
    pub intr_cpu: u32,
    /// Request span waiting on this transfer (`0` = none).
    pub span: u64,
}

/// A finished request, returned by [`SimDisk::advance`].
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The id returned by [`SimDisk::submit`].
    pub req: ReqId,
    /// File that was read.
    pub file: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Container the service time was charged to.
    pub charge_to: ContainerId,
    /// Time the request occupied the disk.
    pub service: Nanos,
    /// Simulated time at which the request finished.
    pub finish: Nanos,
    /// CPU whose interrupt path handles the completion.
    pub intr_cpu: u32,
    /// `false` when the request failed with an injected I/O error. The
    /// service time is charged either way: a failed transfer occupies
    /// the spindle exactly like a successful one.
    pub ok: bool,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    req: QueuedRequest,
    service: Nanos,
    finish: Nanos,
}

/// A deterministic single-disk device.
///
/// # Examples
///
/// ```
/// use rescon::ContainerTable;
/// use simcore::Nanos;
/// use simdisk::{DiskRequest, FifoIoSched, SimDisk};
///
/// let mut table = ContainerTable::new();
/// let mut disk = SimDisk::new(Box::new(FifoIoSched::new()));
/// disk.submit(
///     DiskRequest { file: 7, bytes: 8192, charge_to: table.root(), intr_cpu: 0, span: 0 },
///     &table,
///     Nanos::ZERO,
/// );
/// let t = disk.next_completion_time().unwrap();
/// let done = disk.advance(t, &mut table);
/// assert_eq!(done.len(), 1);
/// assert_eq!(disk.total_busy(), done[0].service);
/// assert_eq!(table.usage(table.root()).unwrap().disk_time, disk.total_busy());
/// ```
pub struct SimDisk {
    sched: Box<dyn IoSched>,
    inflight: Option<InFlight>,
    /// File of the most recently started request (head position).
    last_file: Option<u64>,
    total_busy: Nanos,
    completed: u64,
    next_id: u64,
}

impl SimDisk {
    /// Creates an idle disk with the given queue discipline.
    pub fn new(sched: Box<dyn IoSched>) -> Self {
        SimDisk {
            sched,
            inflight: None,
            last_file: None,
            total_busy: Nanos::ZERO,
            completed: 0,
            next_id: 0,
        }
    }

    /// Submits a read. If the disk is idle it starts service immediately;
    /// otherwise the request waits in the scheduler's queue. Returns the
    /// id that the eventual [`Completion`] will carry.
    pub fn submit(&mut self, req: DiskRequest, table: &ContainerTable, now: Nanos) -> ReqId {
        self.submit_with_fault(req, Nanos::ZERO, false, table, now)
    }

    /// Submits a read carrying an injected fault: `extra_service` is
    /// added to the physical service time (a latency spike) and `fail`
    /// marks the eventual [`Completion`] as an I/O error. The fault is
    /// decided at submit time so the device itself stays deterministic
    /// and clockless.
    pub fn submit_with_fault(
        &mut self,
        req: DiskRequest,
        extra_service: Nanos,
        fail: bool,
        table: &ContainerTable,
        now: Nanos,
    ) -> ReqId {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let queued = QueuedRequest {
            id,
            file: req.file,
            bytes: req.bytes,
            charge_to: req.charge_to,
            intr_cpu: req.intr_cpu,
            extra_service,
            fail,
            span: req.span,
        };
        self.sched.enqueue(queued);
        trace::emit_at(now, || TraceEventKind::DiskQueue {
            req: id.0,
            file: req.file,
            bytes: req.bytes,
            container: req.charge_to.as_u64(),
        });
        span::transition(req.span, span::Phase::DiskQueue, now);
        if self.inflight.is_none() {
            self.start_next(table, now);
        }
        id
    }

    /// Completes every request whose finish time is at or before `now`,
    /// charging service time to the owning containers, and starts the next
    /// queued request (the disk is work-conserving: it never idles while
    /// requests wait).
    pub fn advance(&mut self, now: Nanos, table: &mut ContainerTable) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some(inflight) = self.inflight {
            if inflight.finish > now {
                break;
            }
            self.inflight = None;
            // Charge the exact value accumulated into `total_busy`; a
            // request whose container was destroyed mid-flight bills the
            // root so accounting still conserves.
            let charged_to = inflight.req.charge_to;
            if table
                .charge_disk(charged_to, inflight.service, inflight.req.bytes)
                .is_err()
            {
                let root = table.root();
                table
                    .charge_disk(root, inflight.service, inflight.req.bytes)
                    .expect("root container always exists");
            }
            self.total_busy += inflight.service;
            self.completed += 1;
            trace::emit_at(inflight.finish, || TraceEventKind::DiskComplete {
                req: inflight.req.id.0,
                container: charged_to.as_u64(),
                service: inflight.service,
            });
            done.push(Completion {
                req: inflight.req.id,
                file: inflight.req.file,
                bytes: inflight.req.bytes,
                charge_to: charged_to,
                service: inflight.service,
                finish: inflight.finish,
                intr_cpu: inflight.req.intr_cpu,
                ok: !inflight.req.fail,
            });
            // Back-to-back service starts at the completion instant, not
            // at `now`, so a late `advance` call does not stretch time.
            self.start_next(table, inflight.finish);
        }
        done
    }

    fn start_next(&mut self, table: &ContainerTable, start: Nanos) {
        debug_assert!(self.inflight.is_none());
        let Some(req) = self.sched.dequeue() else {
            return;
        };
        let service = service(req.file, req.bytes, self.last_file) + req.extra_service;
        self.sched.charge(req.charge_to, service, table);
        trace::emit_at(start, || TraceEventKind::DiskStart {
            req: req.id.0,
            file: req.file,
            container: req.charge_to.as_u64(),
            service,
        });
        span::transition(req.span, span::Phase::DiskService, start);
        self.last_file = Some(req.file);
        self.inflight = Some(InFlight {
            req,
            service,
            finish: start + service,
        });
    }

    /// Finish time of the in-flight request, or `None` when fully idle.
    pub fn next_completion_time(&self) -> Option<Nanos> {
        self.inflight.map(|f| f.finish)
    }

    /// Cumulative time the disk has spent serving completed requests.
    /// Equals the sum of disk time charged across all containers.
    pub fn total_busy(&self) -> Nanos {
        self.total_busy
    }

    /// Number of completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether a request is currently being served.
    pub fn busy(&self) -> bool {
        self.inflight.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iosched::{FifoIoSched, ShareIoSched};
    use rescon::Attributes;

    fn drain(disk: &mut SimDisk, table: &mut ContainerTable) -> Vec<Completion> {
        let mut all = Vec::new();
        while let Some(t) = disk.next_completion_time() {
            all.extend(disk.advance(t, table));
        }
        all
    }

    #[test]
    fn sequential_reads_skip_positioning() {
        assert_eq!(
            service(1, 0, Some(1)),
            Nanos::ZERO,
            "same file, no bytes: free"
        );
        let first = service(1, 4096, None);
        let next = service(1, 4096, Some(1));
        assert_eq!(first - next, SEEK + ROTATION);
    }

    #[test]
    fn single_request_charges_owner() {
        let mut table = ContainerTable::new();
        let c = table.create(None, Attributes::time_shared(5)).unwrap();
        let mut disk = SimDisk::new(Box::new(FifoIoSched::new()));
        disk.submit(
            DiskRequest {
                file: 1,
                bytes: 65536,
                charge_to: c,
                intr_cpu: 0,
                span: 0,
            },
            &table,
            Nanos::ZERO,
        );
        let done = drain(&mut disk, &mut table);
        assert_eq!(done.len(), 1);
        let u = table.usage(c).unwrap();
        assert_eq!(u.disk_time, done[0].service);
        assert_eq!(u.disk_reads, 1);
        assert_eq!(u.disk_bytes, 65536);
        assert_eq!(disk.total_busy(), done[0].service);
    }

    #[test]
    fn work_conserving_back_to_back() {
        let mut table = ContainerTable::new();
        let mut disk = SimDisk::new(Box::new(FifoIoSched::new()));
        let root = table.root();
        for i in 0..3 {
            disk.submit(
                DiskRequest {
                    file: i,
                    bytes: 4096,
                    charge_to: root,
                    intr_cpu: 0,
                    span: 0,
                },
                &table,
                Nanos::ZERO,
            );
        }
        // Advance far past everything in one call: completions chain at
        // their finish instants, so busy time has no idle gaps.
        let done = disk.advance(Nanos::from_secs(10), &mut table);
        assert_eq!(done.len(), 3);
        for w in done.windows(2) {
            assert_eq!(w[0].finish + w[1].service, w[1].finish);
        }
        assert!(!disk.busy());
        assert_eq!(disk.completed(), 3);
    }

    #[test]
    fn share_discipline_splits_busy_time() {
        let mut table = ContainerTable::new();
        let big = table.create(None, Attributes::fixed_share(0.7)).unwrap();
        let small = table.create(None, Attributes::fixed_share(0.3)).unwrap();
        let mut disk = SimDisk::new(Box::new(ShareIoSched::new()));
        // Keep both backlogged: resubmit on completion.
        let mut now = Nanos::ZERO;
        for _ in 0..4 {
            for &(c, f) in &[(big, 1u64), (small, 1000u64)] {
                disk.submit(
                    DiskRequest {
                        file: f,
                        bytes: 32768,
                        charge_to: c,
                        intr_cpu: 0,
                        span: 0,
                    },
                    &table,
                    now,
                );
            }
        }
        for i in 0..2000u64 {
            let t = disk.next_completion_time().unwrap();
            now = t;
            for c in disk.advance(t, &mut table) {
                disk.submit(
                    DiskRequest {
                        file: c.file.wrapping_add(i),
                        bytes: 32768,
                        charge_to: c.charge_to,
                        intr_cpu: 0,
                        span: 0,
                    },
                    &table,
                    now,
                );
            }
        }
        let tb = table.usage(big).unwrap().disk_time;
        let ts = table.usage(small).unwrap().disk_time;
        let frac = tb.ratio(tb + ts);
        assert!((frac - 0.7).abs() < 0.05, "big disk-time fraction = {frac}");
    }

    #[test]
    fn injected_faults_still_charge_full_service() {
        let mut table = ContainerTable::new();
        let c = table.create(None, Attributes::time_shared(5)).unwrap();
        let mut disk = SimDisk::new(Box::new(FifoIoSched::new()));
        let base = service(1, 4096, None);
        let spike = Nanos::from_micros(700);
        disk.submit_with_fault(
            DiskRequest {
                file: 1,
                bytes: 4096,
                charge_to: c,
                intr_cpu: 0,
                span: 0,
            },
            spike,
            false,
            &table,
            Nanos::ZERO,
        );
        disk.submit_with_fault(
            DiskRequest {
                file: 1,
                bytes: 4096,
                charge_to: c,
                intr_cpu: 0,
                span: 0,
            },
            Nanos::ZERO,
            true,
            &table,
            Nanos::ZERO,
        );
        let done = drain(&mut disk, &mut table);
        assert_eq!(done.len(), 2);
        assert!(done[0].ok);
        assert_eq!(done[0].service, base + spike, "spike extends service");
        assert!(!done[1].ok, "second request fails");
        // Failed transfers occupy the spindle and bill the owner exactly
        // like successful ones, so the conservation identity holds.
        assert_eq!(
            table.usage(c).unwrap().disk_time,
            disk.total_busy(),
            "charged == busy with faults in play"
        );
    }

    #[test]
    fn destroyed_container_bills_root() {
        let mut table = ContainerTable::new();
        let c = table.create(None, Attributes::time_shared(5)).unwrap();
        let mut disk = SimDisk::new(Box::new(FifoIoSched::new()));
        disk.submit(
            DiskRequest {
                file: 1,
                bytes: 4096,
                charge_to: c,
                intr_cpu: 0,
                span: 0,
            },
            &table,
            Nanos::ZERO,
        );
        table.drop_descriptor_ref(c).unwrap();
        let before = table.usage(table.root()).unwrap().disk_time;
        let done = drain(&mut disk, &mut table);
        let after = table.usage(table.root()).unwrap().disk_time;
        assert_eq!(after - before, done[0].service);
    }
}
