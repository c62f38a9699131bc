//! Measuring layers from outside: timing wrappers around the calls the
//! simulator makes into the server and client layers, the trace-variant
//! tally of the counting pass, and the scheduler probe.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use rescon::{Attributes, ContainerId, ContainerTable};
use sched::{CpuId, TaskId};
use simcore::{Nanos, TraceBuffer, TraceEventKind};
use simnet::Packet;
use simos::{AppEvent, AppHandler, SchedPolicyKind, SysCtx, World, WorldAction};

use crate::Workload;

/// Calls into one layer and the host time they took, since the last
/// [`SpanAcc::take`].
#[derive(Debug, Default)]
pub struct SpanAcc {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl SpanAcc {
    fn add(&self, since: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
    }

    /// Returns `(calls, ns)` and resets both.
    pub fn take(&self) -> (u64, u64) {
        (self.calls.replace(0), self.ns.replace(0))
    }
}

/// The child-span accumulators of a traced run.
#[derive(Debug, Default)]
pub struct Spans {
    /// `AppHandler::on_event` calls: the httpsim servers, including the
    /// syscalls they make.
    pub httpsim: Rc<SpanAcc>,
    /// `World` callbacks: the workload clients.
    pub workload: Rc<SpanAcc>,
}

/// Times every callback into the wrapped client world.
pub struct TimedWorld {
    inner: Box<dyn World>,
    acc: Rc<SpanAcc>,
}

impl TimedWorld {
    /// Wraps `inner`, adding each callback to `acc`.
    pub fn new(inner: Box<dyn World>, acc: Rc<SpanAcc>) -> Self {
        TimedWorld { inner, acc }
    }
}

impl World for TimedWorld {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        let t = Instant::now();
        self.inner.on_packet(pkt, now, actions);
        self.acc.add(t);
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        let t = Instant::now();
        self.inner.on_timer(tag, now, actions);
        self.acc.add(t);
    }
}

/// Times every upcall into the wrapped server.
pub struct TimedApp {
    inner: Box<dyn AppHandler>,
    acc: Rc<SpanAcc>,
}

impl TimedApp {
    /// Wraps `inner`, adding each upcall to `acc`.
    pub fn new(inner: Box<dyn AppHandler>, acc: Rc<SpanAcc>) -> Self {
        TimedApp { inner, acc }
    }
}

impl AppHandler for TimedApp {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, thread: TaskId, event: AppEvent) {
        let t = Instant::now();
        self.inner.on_event(sys, thread, event);
        self.acc.add(t);
    }
}

/// Host ns one timing wrapper adds per call around an empty body, split
/// into the part its own span records and the part that falls outside it,
/// to the caller: each wrapper reads the clock twice, and half of each read
/// lands on either side of the span. The median of five batches.
pub fn wrapper_ns() -> (f64, f64) {
    const CALLS: u64 = 100_000;
    let acc = SpanAcc::default();
    let batch = || {
        let t = Instant::now();
        for _ in 0..CALLS {
            let since = Instant::now();
            std::hint::black_box(&acc);
            acc.add(since);
        }
        let total = t.elapsed().as_nanos() as f64;
        let inside = acc.take().1 as f64;
        (inside / CALLS as f64, (total - inside) / CALLS as f64)
    };
    let mut samples: Vec<(f64, f64)> = (0..5).map(|_| batch()).collect();
    samples.sort_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)));
    samples[2]
}

/// Trace-event variants counted by the counting pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// `SchedPick` events.
    pub picks: u64,
    /// `Charge` events.
    pub charges: u64,
    /// `SyscallEnter` events.
    pub syscalls: u64,
    /// Ring evictions (the ring must hold a whole slice).
    pub dropped: u64,
}

impl Tally {
    /// Adds the events of one slice's trace ring. `live` is the container
    /// count when the slice began; the running count follows container
    /// creation and destruction, and the highest value is returned.
    pub fn add(&mut self, buf: &TraceBuffer, mut live: u64) -> u64 {
        self.dropped += buf.dropped;
        let mut peak = live;
        for e in &buf.events {
            match e.kind {
                TraceEventKind::SchedPick { .. } => self.picks += 1,
                TraceEventKind::Charge { .. } => self.charges += 1,
                TraceEventKind::SyscallEnter { .. } => self.syscalls += 1,
                TraceEventKind::ContainerCreate { .. } => {
                    live += 1;
                    peak = peak.max(live);
                }
                TraceEventKind::ContainerDestroy { .. } => live = live.saturating_sub(1),
                _ => {}
            }
        }
        peak
    }
}

/// Host ns per `Scheduler::pick` + `charge` pair on a scheduler built by
/// `rcpolicy::build_cpu` for the workload's policy and CPU count, over a
/// container table and task bindings shaped like the workload's servers
/// at `live` containers: the median of five timed batches.
pub fn probe_pick_ns(w: Workload, live: u64) -> f64 {
    let mut table = ContainerTable::new();
    let ts = || Attributes::time_shared(10);
    let mut create = |parent: Option<ContainerId>, attrs: Attributes| {
        table.create(parent, attrs).expect("probe container")
    };
    // Containers beyond the root and the fixed ones below are per-connection.
    let (policy, ncpus, bindings): (_, u32, Vec<Vec<ContainerId>>) = match w {
        Workload::HttpBaseline => (
            SchedPolicyKind::DecayUsage,
            1,
            vec![vec![create(None, ts())]],
        ),
        Workload::ConnContainers => {
            // The multiplexed server thread is bound to every connection
            // container; the kernel network thread to the process. The
            // server creates connection containers under the root.
            let proc = create(None, ts());
            let conns = (0..live.saturating_sub(2).max(1))
                .map(|_| create(None, ts()))
                .collect();
            (SchedPolicyKind::MultiLevel, 1, vec![conns, vec![proc]])
        }
        Workload::TenantsSmpIo => {
            // One pool worker per connection container; the disk tenant's
            // server and network thread on its process container.
            let pool = create(None, Attributes::fixed_share(0.7));
            let disk = create(None, Attributes::fixed_share(0.3));
            let pool_proc = create(Some(pool), ts());
            let disk_proc = create(Some(disk), ts());
            let mut b: Vec<Vec<ContainerId>> = (0..live.saturating_sub(5).max(1))
                .map(|_| vec![create(None, ts())])
                .collect();
            b.push(vec![pool_proc]);
            b.push(vec![disk_proc]);
            b.push(vec![disk_proc]);
            (SchedPolicyKind::MultiLevel, 4, b)
        }
        Workload::ClusterSparse => {
            // One node: two tenants with an 8-thread pool each.
            let mut b = Vec::new();
            for share in [0.7, 0.3] {
                let tenant = create(None, Attributes::fixed_share(share));
                let proc = create(Some(tenant), ts());
                b.extend((0..8).map(|_| vec![proc]));
            }
            (SchedPolicyKind::MultiLevel, 1, b)
        }
    };
    let mut sched = rcpolicy::build_cpu(policy, ncpus);
    for (i, b) in bindings.iter().enumerate() {
        let task = TaskId(i as u32 + 1);
        sched.add_task(task, b, CpuId(i as u32 % ncpus), Nanos::ZERO);
        sched.set_runnable(task, true, Nanos::ZERO);
    }
    let slice = Nanos::from_micros(50);
    let mut now = Nanos::ZERO;
    let mut n = 0u64;
    let mut pick_charge = |count: u64| {
        let t = Instant::now();
        for _ in 0..count {
            let cpu = CpuId(n as u32 % ncpus);
            if let Some(p) = sched.pick(cpu, &table, now) {
                let b = &bindings[p.task.0 as usize - 1];
                sched.charge(p.task, b[n as usize % b.len()], slice, &table, now);
            }
            now += slice / ncpus as u64;
            n += 1;
        }
        t.elapsed().as_nanos() as f64
    };
    // The clock is read only around a batch, never inside it. Double the
    // batch until it takes 20 ms (this also warms up), then time five.
    let mut count = 1000;
    while pick_charge(count) < 20e6 {
        count *= 2;
    }
    let mut ns: Vec<f64> = (0..5)
        .map(|_| std::hint::black_box(pick_charge(count)) / count as f64)
        .collect();
    crate::median(&mut ns)
}
