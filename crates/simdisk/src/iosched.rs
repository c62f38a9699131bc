//! Disk request dispatch disciplines.
//!
//! The device ([`crate::SimDisk`]) pulls the next request from an
//! [`IoSched`] whenever it goes idle. The FIFO discipline reproduces the
//! unmodified kernel of the paper's baselines: the disk queue is a single
//! line, so a container that keeps many large requests outstanding imposes
//! its queueing delay on every other principal. The share-aware discipline
//! applies the same proportional-share machinery the CPU schedulers use
//! (stride scheduling over container virtual time), so disk bandwidth
//! divides according to container shares under contention.

use std::collections::{HashMap, VecDeque};

use rescon::{ContainerId, ContainerTable};
use simcore::Nanos;

use crate::disk::ReqId;

/// A request waiting for the disk, as seen by the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Device-assigned request id.
    pub id: ReqId,
    /// File being read (head position proxy).
    pub file: u64,
    /// Bytes to transfer.
    pub bytes: u64,
    /// Container that pays for the service time.
    pub charge_to: ContainerId,
    /// CPU whose interrupt path handles the completion (0 on a
    /// uniprocessor).
    pub intr_cpu: u32,
    /// Injected latency spike added to the physical service time.
    pub extra_service: Nanos,
    /// Injected I/O error: the completion is delivered failed after the
    /// full (charged) service time.
    pub fail: bool,
    /// Request span waiting on this transfer (`0` = none).
    pub span: u64,
}

/// Dispatch order policy for pending disk requests.
pub trait IoSched {
    /// Adds a request to the queue.
    fn enqueue(&mut self, req: QueuedRequest);

    /// Removes and returns the next request to serve, or `None` if idle.
    fn dequeue(&mut self) -> Option<QueuedRequest>;

    /// Informs the scheduler of the actual service time of a dispatched
    /// request, so proportional-share disciplines can advance virtual time.
    fn charge(&mut self, charge_to: ContainerId, service: Nanos, table: &ContainerTable);

    /// Number of queued (not yet dispatched) requests.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Arrival-order dispatch: the unmodified-kernel baseline.
///
/// # Examples
///
/// ```
/// use rescon::ContainerTable;
/// use simcore::Nanos;
/// use simdisk::{FifoIoSched, IoSched, QueuedRequest, ReqId};
///
/// let table = ContainerTable::new();
/// let mut q = FifoIoSched::new();
/// let req = QueuedRequest {
///     id: ReqId(0), file: 1, bytes: 4096, charge_to: table.root(), intr_cpu: 0,
///     extra_service: Nanos::ZERO, fail: false, span: 0,
/// };
/// q.enqueue(req);
/// assert_eq!(q.dequeue(), Some(req));
/// assert!(q.dequeue().is_none());
/// ```
#[derive(Debug, Default)]
pub struct FifoIoSched {
    queue: VecDeque<QueuedRequest>,
}

impl FifoIoSched {
    /// Creates an empty FIFO queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IoSched for FifoIoSched {
    fn enqueue(&mut self, req: QueuedRequest) {
        self.queue.push_back(req);
    }

    fn dequeue(&mut self) -> Option<QueuedRequest> {
        self.queue.pop_front()
    }

    fn charge(&mut self, _charge_to: ContainerId, _service: Nanos, _table: &ContainerTable) {}

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[derive(Debug)]
struct ContainerQueue {
    queue: VecDeque<QueuedRequest>,
    /// Virtual pass value; the non-empty queue with the lowest pass
    /// dispatches next.
    pass: f64,
}

/// Proportional-share dispatch over container virtual time.
///
/// Each container owns a FIFO of its requests and a pass value that
/// advances by `service / effective_share` whenever the disk serves one of
/// its requests. The non-empty queue with the smallest pass dispatches
/// next, so over any busy interval each backlogged container receives disk
/// time proportional to its effective share — the disk-bandwidth analogue
/// of the paper's fixed-share CPU guarantee.
///
/// A container whose queue drains re-joins at the current virtual time
/// when it next submits, so idle time is not banked as credit (same
/// revocation rule as the CPU stride scheduler).
#[derive(Debug, Default)]
pub struct ShareIoSched {
    queues: HashMap<ContainerId, ContainerQueue>,
    /// Global virtual time: the highest pass ever charged.
    vtime: f64,
    queued: usize,
}

impl ShareIoSched {
    /// Creates an empty share-aware queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn share(table: &ContainerTable, id: ContainerId) -> f64 {
        // A destroyed container's leftover requests dispatch at a nominal
        // small share rather than stalling the queue.
        table.effective_share(id).unwrap_or(0.01).max(1e-6)
    }
}

impl IoSched for ShareIoSched {
    fn enqueue(&mut self, req: QueuedRequest) {
        let vtime = self.vtime;
        let q = self
            .queues
            .entry(req.charge_to)
            .or_insert_with(|| ContainerQueue {
                queue: VecDeque::new(),
                pass: vtime,
            });
        if q.queue.is_empty() {
            // Re-joining after idling: no banked credit.
            q.pass = q.pass.max(vtime);
        }
        q.queue.push_back(req);
        self.queued += 1;
    }

    fn dequeue(&mut self) -> Option<QueuedRequest> {
        let mut best: Option<(f64, ContainerId)> = None;
        for (&id, q) in &self.queues {
            if q.queue.is_empty() {
                continue;
            }
            let better = match best {
                None => true,
                Some((bp, bid)) => q.pass < bp || (q.pass == bp && id < bid),
            };
            if better {
                best = Some((q.pass, id));
            }
        }
        let (_, id) = best?;
        let req = self.queues.get_mut(&id)?.queue.pop_front()?;
        self.queued -= 1;
        Some(req)
    }

    fn charge(&mut self, charge_to: ContainerId, service: Nanos, table: &ContainerTable) {
        let share = Self::share(table, charge_to);
        if let Some(q) = self.queues.get_mut(&charge_to) {
            q.pass += service.as_secs_f64() / share;
            if q.pass > self.vtime {
                self.vtime = q.pass;
            }
        }
    }

    fn len(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescon::Attributes;

    fn req(id: u64, charge_to: ContainerId) -> QueuedRequest {
        QueuedRequest {
            id: ReqId(id),
            file: id,
            bytes: 4096,
            charge_to,
            intr_cpu: 0,
            extra_service: Nanos::ZERO,
            fail: false,
            span: 0,
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let table = ContainerTable::new();
        let mut q = FifoIoSched::new();
        for i in 0..5 {
            q.enqueue(req(i, table.root()));
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().id, ReqId(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn share_sched_splits_by_effective_share() {
        let mut table = ContainerTable::new();
        let big = table.create(None, Attributes::fixed_share(0.7)).unwrap();
        let small = table.create(None, Attributes::fixed_share(0.3)).unwrap();
        let mut q = ShareIoSched::new();
        // Both containers keep deep backlogs; equal per-request service.
        let service = Nanos::from_millis(5);
        let mut served = HashMap::new();
        let mut next_id = 0u64;
        for _ in 0..4 {
            q.enqueue(req(next_id, big));
            q.enqueue(req(next_id + 1, small));
            next_id += 2;
        }
        for _ in 0..1000 {
            let r = q.dequeue().unwrap();
            q.charge(r.charge_to, service, &table);
            *served.entry(r.charge_to).or_insert(0u64) += 1;
            q.enqueue(req(next_id, r.charge_to));
            next_id += 1;
        }
        let b = served[&big] as f64;
        let s = served[&small] as f64;
        let frac = b / (b + s);
        assert!((frac - 0.7).abs() < 0.02, "big fraction = {frac}");
    }

    #[test]
    fn share_sched_rejoins_at_current_vtime() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        let b = table.create(None, Attributes::fixed_share(0.5)).unwrap();
        let mut q = ShareIoSched::new();
        let service = Nanos::from_millis(5);
        // `a` runs alone for a long stretch.
        for i in 0..100 {
            q.enqueue(req(i, a));
            let r = q.dequeue().unwrap();
            q.charge(r.charge_to, service, &table);
        }
        // `b` arrives; it must not monopolize the disk to "catch up".
        let mut b_served = 0;
        let mut next_id = 100u64;
        q.enqueue(req(next_id, a));
        q.enqueue(req(next_id + 1, b));
        next_id += 2;
        for _ in 0..100 {
            let r = q.dequeue().unwrap();
            q.charge(r.charge_to, service, &table);
            if r.charge_to == b {
                b_served += 1;
            }
            q.enqueue(req(next_id, r.charge_to));
            next_id += 1;
        }
        assert!((40..=60).contains(&b_served), "b_served = {b_served}");
    }

    #[test]
    fn share_sched_len_counts_all_queues() {
        let mut table = ContainerTable::new();
        let a = table.create(None, Attributes::time_shared(5)).unwrap();
        let mut q = ShareIoSched::new();
        q.enqueue(req(0, a));
        q.enqueue(req(1, table.root()));
        assert_eq!(q.len(), 2);
        q.dequeue();
        assert_eq!(q.len(), 1);
    }
}
