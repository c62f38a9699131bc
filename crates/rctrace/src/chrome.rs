//! Chrome trace-event exporter (loadable in Perfetto and `chrome://tracing`).
//!
//! Track layout:
//!
//! - **pid 1 "cpu"** — one `X` (complete) slice per scheduled run, derived
//!   from the [`CtxSwitch`](simcore::trace::TraceEventKind::CtxSwitch)
//!   stream: each slice spans from one switch to the next and is named
//!   after the running task, with the charged container in `args`. An
//!   instant marks each CPU policy swap, taken from the metrics' swap
//!   history, which ring eviction cannot shorten.
//! - **pid 2 "disk"** — one `X` slice per disk request service period
//!   (`DiskStart` carries the exact service time; the disk is
//!   non-preemptive, so start + service is the completion).
//! - **pid 3 "link"** — one `X` slice per packet transmission on the
//!   finite-bandwidth link (`LinkStart` carries the exact wire time).
//!   The track (and the per-container `tx_charge_ms` counters) appears
//!   only on link-modelled runs, so linkless exports are unchanged.
//! - **pid 10+** — one process per container, ordered by container id:
//!   instants for lifecycle events, syscalls, packet drops, and LRP
//!   dispatches, plus `C` (counter) tracks sampled from the metrics
//!   timelines: cumulative CPU and disk charge (ms), runnable depth,
//!   SYN-queue occupancy, and cache residency.
//!
//! `Charge` events are deliberately *not* exported individually — the
//! counter tracks carry the same information at sample resolution without
//! drowning the viewer — but they remain available in the raw
//! [`TraceBuffer`](simcore::trace::TraceBuffer).
//!
//! **Cluster exports** ([`cluster_chrome_trace_json`]) merge one session
//! per node into a single document: each node gets its own pid namespace
//! (an offset of [`NODE_PID_STRIDE`] per node) and every track name is
//! prefixed with the node name (`"web-3 cpu"`, `"web-3 container
//! tenant-gold"`), so Perfetto groups a node's processes together and
//! the whole cluster shares one time axis. Flow-arrow and async-span ids
//! are namespaced per node so arrows never pair across machines.
//!
//! The exporter walks the retained ring and the sample series in order and
//! formats every number from integers, so the document is byte-identical
//! across runs of the same simulation.

use std::collections::{BTreeMap, BTreeSet};

use simcore::trace::{TraceEventKind, NO_CONTAINER};
use simcore::Nanos;

use crate::json::{micros, millis6, quote};
use crate::TraceSession;

const CPU_PID: u32 = 1;
const DISK_PID: u32 = 2;
const LINK_PID: u32 = 3;
const CONTAINER_PID_BASE: u32 = 10;
/// Per-CPU track pids on multiprocessor runs. The base is far above the
/// container pid range, which grows from [`CONTAINER_PID_BASE`] with one
/// pid per container (per-connection containers can make that large).
const CPU_TRACK_BASE: u32 = 1_000_000;
/// Pid-namespace stride between nodes in a cluster export. Leaves room
/// for the previous node's per-CPU track range above `CPU_TRACK_BASE`.
pub const NODE_PID_STRIDE: u32 = 10_000_000;
/// Async-span / flow id namespace stride between nodes: per-node request
/// and flow ids stay well below this, so ids never collide across nodes.
const NODE_ID_STRIDE: u64 = 1 << 40;

/// The container a trace event is attributed to, if any.
fn event_container(kind: &TraceEventKind) -> Option<u64> {
    match *kind {
        TraceEventKind::CtxSwitch { container, .. }
        | TraceEventKind::SyscallEnter { container, .. }
        | TraceEventKind::PacketDemux { container, .. }
        | TraceEventKind::PacketDrop { container, .. }
        | TraceEventKind::LrpDispatch { container, .. }
        | TraceEventKind::DiskQueue { container, .. }
        | TraceEventKind::DiskStart { container, .. }
        | TraceEventKind::DiskComplete { container, .. }
        | TraceEventKind::CacheHit { container, .. }
        | TraceEventKind::CacheEvict { container, .. }
        | TraceEventKind::ContainerCreate { container, .. }
        | TraceEventKind::ContainerDestroy { container }
        | TraceEventKind::Migrate { container, .. }
        | TraceEventKind::Charge { container, .. }
        | TraceEventKind::FaultPacketDrop { container, .. }
        | TraceEventKind::FaultPacketCorrupt { container, .. }
        | TraceEventKind::FaultPacketDelay { container, .. }
        | TraceEventKind::FaultDiskError { container, .. }
        | TraceEventKind::FaultDiskSpike { container, .. }
        | TraceEventKind::LinkQueue { container, .. }
        | TraceEventKind::LinkStart { container, .. }
        | TraceEventKind::MemPressure { container, .. }
        | TraceEventKind::MemRefused { container, .. }
        | TraceEventKind::SloViolation { container, .. } => Some(container),
        // Reclaim and OOM attribute to the container that lost memory.
        TraceEventKind::Reclaim { victim, .. } | TraceEventKind::OomKill { victim, .. } => {
            Some(victim)
        }
        TraceEventKind::ThreadState { .. }
        | TraceEventKind::SyscallExit { .. }
        | TraceEventKind::CacheMiss { .. }
        | TraceEventKind::SchedPick { .. }
        | TraceEventKind::FaultClientAbandon { .. }
        | TraceEventKind::FaultClientMalformed { .. }
        | TraceEventKind::FaultClientSlow { .. }
        | TraceEventKind::PolicySwap { .. } => None,
    }
}

fn meta_name(pid: u32, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
        quote(name)
    )
}

fn instant(pid: u32, ts_ns: u64, cat: &str, name: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"name\":{},\"cat\":{},\"pid\":{pid},\"tid\":0,\"ts\":{},\"s\":\"p\"}}",
        quote(name),
        quote(cat),
        micros(ts_ns)
    )
}

fn counter(pid: u32, ts_ns: u64, name: &str, value: &str) -> String {
    format!(
        "{{\"ph\":\"C\",\"name\":{},\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{\"v\":{value}}}}}",
        quote(name),
        micros(ts_ns)
    )
}

/// Emits one session's events into `evs`. `base` offsets every pid (0 for
/// a single-session export), `label` prefixes every track name (the node
/// name in a cluster export), and `id_base` namespaces the flow-arrow and
/// async-span ids so merged documents never pair arrows across sessions.
fn emit_session(
    session: &TraceSession,
    base: u32,
    label: Option<&str>,
    id_base: u64,
    evs: &mut Vec<String>,
) {
    let cpu_pid0 = base + CPU_PID;
    let disk_pid = base + DISK_PID;
    let link_pid = base + LINK_PID;
    let track = |name: &str| -> String {
        match label {
            Some(l) => format!("{l} {name}"),
            None => name.to_string(),
        }
    };
    // One Chrome "process" per container, ordered by container id; the
    // union of containers seen in the trace ring and in the metrics.
    let mut ids: BTreeSet<u64> = session.metrics.containers.keys().copied().collect();
    for ev in &session.trace.events {
        if let Some(c) = event_container(&ev.kind) {
            if c != NO_CONTAINER {
                ids.insert(c);
            }
        }
    }
    let pid_of: BTreeMap<u64, u32> = ids
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, base + CONTAINER_PID_BASE + i as u32))
        .collect();
    let name_of = |c: u64| -> String {
        session
            .metrics
            .containers
            .get(&c)
            .map(|e| e.display_name(c))
            .unwrap_or_else(|| format!("c{c}"))
    };
    // A container's instants land on its own track; unattributed events
    // land on the CPU track.
    let pid_for = |c: u64| -> u32 { pid_of.get(&c).copied().unwrap_or(cpu_pid0) };

    let end_ns = session
        .metrics
        .globals
        .end
        .max(
            session
                .trace
                .events
                .last()
                .map(|e| e.at)
                .unwrap_or(Nanos::ZERO),
        )
        .as_nanos();

    // Multiprocessor detection: any event on a CPU other than 0, or a
    // multi-entry per-CPU totals table. Uniprocessor sessions keep the
    // legacy single "cpu" track (pid 1) byte-for-byte.
    let mut ncpus: u32 = session.metrics.per_cpu.len() as u32;
    for ev in &session.trace.events {
        let c = match ev.kind {
            TraceEventKind::CtxSwitch { cpu, .. } => cpu,
            TraceEventKind::Migrate {
                from_cpu, to_cpu, ..
            } => from_cpu.max(to_cpu),
            _ => 0,
        };
        ncpus = ncpus.max(c + 1);
    }
    let multi = ncpus > 1;
    let cpu_pid = |cpu: u32| -> u32 {
        if multi {
            base + CPU_TRACK_BASE + cpu
        } else {
            cpu_pid0
        }
    };

    if multi {
        for cpu in 0..ncpus {
            evs.push(meta_name(cpu_pid(cpu), &track(&format!("cpu{cpu}"))));
        }
        // Unattributed instants still land on pid 1.
        evs.push(meta_name(cpu_pid0, &track("unattributed")));
    } else {
        evs.push(meta_name(cpu_pid0, &track("cpu")));
    }
    evs.push(meta_name(disk_pid, &track("disk")));
    // The link track appears only when the run modelled a finite link.
    let link_present = session.metrics.globals.link_configured
        || session
            .trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::LinkStart { .. }));
    if link_present {
        evs.push(meta_name(link_pid, &track("link")));
    }
    // Per-class memory counter tracks appear only on simmem runs, so
    // memory-unlimited exports are unchanged.
    let mem_present = session.metrics.globals.mem_configured;
    for (&c, &pid) in &pid_of {
        evs.push(meta_name(pid, &track(&format!("container {}", name_of(c)))));
    }

    // Scheduled-run slices on the per-CPU tracks plus per-event instants.
    // (start ns, task, container) per CPU; on a uniprocessor this map
    // holds a single entry, reproducing the old single-slot tracker.
    let mut open: BTreeMap<u32, (u64, u32, u64)> = BTreeMap::new();
    let close_slice =
        |evs: &mut Vec<String>, cpu: u32, start: u64, end: u64, task: u32, cont: u64| {
            let dur = end.saturating_sub(start);
            evs.push(format!(
                "{{\"ph\":\"X\",\"name\":{},\"cat\":\"sched\",\"pid\":{},\"tid\":0,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"container\":{}}}}}",
                quote(&format!("task {task}")),
                cpu_pid(cpu),
                micros(start),
                micros(dur),
                quote(&name_of(cont)),
            ));
        };
    // Chrome flow-event ids tie each migration's start/finish arrow pair.
    let mut flow_id: u64 = id_base;
    for ev in &session.trace.events {
        let at = ev.at.as_nanos();
        match ev.kind {
            TraceEventKind::CtxSwitch {
                to, container, cpu, ..
            } => {
                if let Some((start, task, cont)) = open.remove(&cpu) {
                    close_slice(evs, cpu, start, at, task, cont);
                }
                open.insert(cpu, (at, to, container));
            }
            TraceEventKind::Migrate {
                task,
                from_cpu,
                to_cpu,
                ..
            } => {
                flow_id += 1;
                let name = quote(&format!("migrate t{task}"));
                evs.push(format!(
                    "{{\"ph\":\"s\",\"id\":{flow_id},\"name\":{name},\"cat\":\"migrate\",\
                     \"pid\":{},\"tid\":0,\"ts\":{}}}",
                    cpu_pid(from_cpu),
                    micros(at),
                ));
                evs.push(format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{flow_id},\"name\":{name},\
                     \"cat\":\"migrate\",\"pid\":{},\"tid\":0,\"ts\":{}}}",
                    cpu_pid(to_cpu),
                    micros(at),
                ));
                evs.push(instant(
                    cpu_pid(to_cpu),
                    at,
                    "migrate",
                    &format!("t{task} \u{2190} cpu{from_cpu}"),
                ));
            }
            TraceEventKind::DiskStart {
                req,
                file,
                container,
                service,
            } => {
                evs.push(format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":\"disk\",\"pid\":{disk_pid},\"tid\":0,\
                     \"ts\":{},\"dur\":{},\"args\":{{\"req\":{req},\"container\":{}}}}}",
                    quote(&format!("file {file}")),
                    micros(at),
                    micros(service.as_nanos()),
                    quote(&name_of(container)),
                ));
            }
            TraceEventKind::LinkStart {
                port,
                bytes,
                container,
                wire,
            } => {
                evs.push(format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":\"link\",\"pid\":{link_pid},\"tid\":0,\
                     \"ts\":{},\"dur\":{},\"args\":{{\"bytes\":{bytes},\"container\":{}}}}}",
                    quote(&format!("tx :{port}")),
                    micros(at),
                    micros(wire.as_nanos()),
                    quote(&name_of(container)),
                ));
            }
            TraceEventKind::ContainerCreate { container, .. } => {
                evs.push(instant(pid_for(container), at, "lifecycle", "create"));
            }
            TraceEventKind::ContainerDestroy { container } => {
                evs.push(instant(pid_for(container), at, "lifecycle", "destroy"));
            }
            TraceEventKind::PacketDrop { reason, container } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "net",
                    &format!("drop: {reason}"),
                ));
            }
            TraceEventKind::SyscallEnter {
                name, container, ..
            } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "sys",
                    &format!("sys {name}"),
                ));
            }
            TraceEventKind::LrpDispatch { task, container } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "net",
                    &format!("lrp task {task}"),
                ));
            }
            TraceEventKind::FaultPacketDrop { port, container } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "fault",
                    &format!("fault: pkt-drop :{port}"),
                ));
            }
            TraceEventKind::FaultPacketCorrupt { port, container } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "fault",
                    &format!("fault: pkt-corrupt :{port}"),
                ));
            }
            TraceEventKind::FaultPacketDelay {
                port,
                delay,
                container,
            } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "fault",
                    &format!("fault: pkt-delay :{port} +{}us", delay.as_micros()),
                ));
            }
            TraceEventKind::FaultDiskError { file, container } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "fault",
                    &format!("fault: disk-error file {file}"),
                ));
            }
            TraceEventKind::FaultDiskSpike {
                file,
                extra,
                container,
            } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "fault",
                    &format!("fault: disk-spike file {file} +{}us", extra.as_micros()),
                ));
            }
            TraceEventKind::FaultClientAbandon { client } => {
                evs.push(instant(
                    cpu_pid0,
                    at,
                    "fault",
                    &format!("fault: client {client} abandon"),
                ));
            }
            TraceEventKind::FaultClientMalformed { client } => {
                evs.push(instant(
                    cpu_pid0,
                    at,
                    "fault",
                    &format!("fault: client {client} malformed"),
                ));
            }
            TraceEventKind::FaultClientSlow { client, delay } => {
                evs.push(instant(
                    cpu_pid0,
                    at,
                    "fault",
                    &format!("fault: client {client} slow +{}us", delay.as_micros()),
                ));
            }
            TraceEventKind::MemPressure {
                container,
                used,
                limit,
            } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "mem",
                    &format!("mem pressure {used}/{limit}B"),
                ));
            }
            TraceEventKind::Reclaim {
                victim,
                file,
                bytes,
                ..
            } => {
                evs.push(instant(
                    pid_for(victim),
                    at,
                    "mem",
                    &format!("reclaim file {file} ({bytes}B)"),
                ));
            }
            TraceEventKind::OomKill { victim, bytes, .. } => {
                evs.push(instant(
                    pid_for(victim),
                    at,
                    "mem",
                    &format!("oom kill ({bytes}B)"),
                ));
            }
            TraceEventKind::MemRefused {
                container,
                refusing,
                wanted,
                ..
            } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "mem",
                    &format!("mem refused {wanted}B (c{refusing})"),
                ));
            }
            TraceEventKind::SloViolation {
                container,
                request,
                latency,
                threshold,
            } => {
                evs.push(instant(
                    pid_for(container),
                    at,
                    "slo",
                    &format!(
                        "SLO violation req {request}: {}us > {}us",
                        latency.as_micros(),
                        threshold.as_micros()
                    ),
                ));
            }
            _ => {}
        }
    }
    for (cpu, (start, task, cont)) in open {
        close_slice(evs, cpu, start, end_ns.max(start), task, cont);
    }
    // Policy swaps come from the metrics, which keep every one: the ring
    // may have evicted the oldest.
    for &(at, from, to) in &session.metrics.policy_swaps {
        evs.push(instant(
            cpu_pid0,
            at.as_nanos(),
            "policy",
            &format!("cpu policy {from} -> {to}"),
        ));
    }

    // Counter tracks from the sampled metrics timelines.
    for (&c, series) in &session.metrics.containers {
        let pid = pid_of[&c];
        for p in &series.samples {
            let ts = p.at.as_nanos();
            evs.push(counter(
                pid,
                ts,
                "cpu_charge_ms",
                &millis6(p.cpu.as_nanos()),
            ));
            evs.push(counter(
                pid,
                ts,
                "disk_charge_ms",
                &millis6(p.disk.as_nanos()),
            ));
            if link_present {
                evs.push(counter(
                    pid,
                    ts,
                    "tx_charge_ms",
                    &millis6(p.tx_time.as_nanos()),
                ));
            }
            if mem_present {
                evs.push(counter(pid, ts, "mem_bytes", &p.mem_bytes.to_string()));
                for class in rescon::MemClass::ALL {
                    evs.push(counter(
                        pid,
                        ts,
                        &format!("mem_{}_bytes", class.label()),
                        &p.mem_by_class[class.index()].to_string(),
                    ));
                }
            }
            evs.push(counter(pid, ts, "runnable", &p.runnable.to_string()));
            evs.push(counter(pid, ts, "syn_queue", &p.syn_queue.to_string()));
            evs.push(counter(pid, ts, "cache_bytes", &p.cache_bytes.to_string()));
        }
    }

    // Per-request async tracks (rcspan): one nestable-async span per
    // ledger on its container's process, with one nested slice per phase
    // segment. Disk-service and wire segments additionally carry flow
    // arrows onto the device tracks, so a request's journey through the
    // disk and the link can be followed visually in Perfetto.
    if let Some(spans) = &session.spans {
        for l in &spans.ledgers {
            let pid = pid_for(l.container);
            let rid = id_base + l.request;
            let name = quote(&format!("req {}", l.request));
            evs.push(format!(
                "{{\"ph\":\"b\",\"id\":{rid},\"name\":{name},\"cat\":\"request\",\
                 \"pid\":{pid},\"tid\":0,\"ts\":{}}}",
                micros(l.start.as_nanos()),
            ));
            for (i, &(seg_start, phase)) in l.log.iter().enumerate() {
                let seg_end = l.log.get(i + 1).map(|s| s.0).unwrap_or(l.end);
                if seg_end <= seg_start {
                    continue;
                }
                let pname = quote(phase.label());
                evs.push(format!(
                    "{{\"ph\":\"b\",\"id\":{rid},\"name\":{pname},\"cat\":\"request\",\
                     \"pid\":{pid},\"tid\":0,\"ts\":{}}}",
                    micros(seg_start.as_nanos()),
                ));
                evs.push(format!(
                    "{{\"ph\":\"e\",\"id\":{rid},\"name\":{pname},\"cat\":\"request\",\
                     \"pid\":{pid},\"tid\":0,\"ts\":{}}}",
                    micros(seg_end.as_nanos()),
                ));
                let device_pid = match phase {
                    simcore::span::Phase::DiskService => Some(disk_pid),
                    simcore::span::Phase::Wire if link_present => Some(link_pid),
                    _ => None,
                };
                if let Some(dev) = device_pid {
                    flow_id += 1;
                    let fname = quote(&format!("req {} {}", l.request, phase.label()));
                    evs.push(format!(
                        "{{\"ph\":\"s\",\"id\":{flow_id},\"name\":{fname},\"cat\":\"request\",\
                         \"pid\":{pid},\"tid\":0,\"ts\":{}}}",
                        micros(seg_start.as_nanos()),
                    ));
                    evs.push(format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{flow_id},\"name\":{fname},\
                         \"cat\":\"request\",\"pid\":{dev},\"tid\":0,\"ts\":{}}}",
                        micros(seg_start.as_nanos()),
                    ));
                }
            }
            evs.push(format!(
                "{{\"ph\":\"e\",\"id\":{rid},\"name\":{name},\"cat\":\"request\",\
                 \"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{\"outcome\":{}}}}}",
                micros(l.end.as_nanos()),
                quote(l.outcome.label()),
            ));
        }
    }
}

/// Joins rendered events into the final trace document.
fn wrap(evs: Vec<String>) -> String {
    let mut out = String::with_capacity(64 + evs.iter().map(|e| e.len() + 1).sum::<usize>());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in evs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push_str("]}");
    out
}

/// Renders the session as Chrome trace-event JSON.
pub fn chrome_trace_json(session: &TraceSession) -> String {
    let mut evs: Vec<String> = Vec::new();
    emit_session(session, 0, None, 0, &mut evs);
    wrap(evs)
}

/// Renders one `(node name, session)` pair per node as a single merged
/// Chrome trace document: a shared time axis, one pid namespace per node
/// ([`NODE_PID_STRIDE`] apart), and node-name-prefixed track names so
/// Perfetto groups each node's cpu/disk/link/container tracks together.
pub fn cluster_chrome_trace_json(sessions: &[(String, TraceSession)]) -> String {
    let mut evs: Vec<String> = Vec::new();
    for (i, (name, session)) in sessions.iter().enumerate() {
        emit_session(
            session,
            i as u32 * NODE_PID_STRIDE,
            Some(name),
            i as u64 * NODE_ID_STRIDE,
            &mut evs,
        );
    }
    wrap(evs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ContainerSample, GlobalTotals, Metrics};
    use simcore::trace::{TraceBuffer, TraceEvent};

    fn session() -> TraceSession {
        let mut trace = TraceBuffer::default();
        let push = |t: &mut TraceBuffer, at: u64, kind: TraceEventKind| {
            t.events.push(TraceEvent {
                at: Nanos::from_micros(at),
                kind,
            });
            t.emitted += 1;
        };
        push(
            &mut trace,
            1,
            TraceEventKind::ContainerCreate {
                container: 7,
                parent: 0,
            },
        );
        push(
            &mut trace,
            2,
            TraceEventKind::CtxSwitch {
                from: u32::MAX,
                to: 3,
                container: 7,
                cpu: 0,
            },
        );
        push(
            &mut trace,
            5,
            TraceEventKind::CtxSwitch {
                from: 3,
                to: 4,
                container: 0,
                cpu: 0,
            },
        );
        push(
            &mut trace,
            6,
            TraceEventKind::DiskStart {
                req: 0,
                file: 42,
                container: 7,
                service: Nanos::from_micros(100),
            },
        );
        push(
            &mut trace,
            7,
            TraceEventKind::PacketDrop {
                reason: "queue-full",
                container: 7,
            },
        );
        let mut metrics = Metrics::new(Nanos::from_millis(1));
        let mut usage = rescon::ResourceUsage::new();
        usage.charge_cpu(Nanos::from_micros(3), false);
        let row = ContainerSample {
            container: 7,
            name: "web".to_string(),
            usage,
            subtree_cpu: Nanos::from_micros(3),
            subtree_disk: Nanos::ZERO,
            subtree_tx: Nanos::ZERO,
            cache_bytes: 4096,
            runnable: 2,
            syn_queue: 1,
            effective_share: 0.25,
        };
        metrics.record_sample(Nanos::from_millis(1), std::slice::from_ref(&row));
        metrics.record_totals(
            GlobalTotals {
                end: Nanos::from_millis(2),
                ..GlobalTotals::default()
            },
            &[row],
        );
        TraceSession {
            trace,
            metrics,
            spans: None,
        }
    }

    #[test]
    fn tracks_cover_containers_and_devices() {
        let json = chrome_trace_json(&session());
        assert!(json.contains("\"name\":\"cpu\""));
        assert!(json.contains("\"name\":\"disk\""));
        assert!(json.contains("container web"));
        assert!(json.contains("\"cpu_charge_ms\""));
        assert!(json.contains("\"disk_charge_ms\""));
        assert!(json.contains("drop: queue-full"));
        // Slices closed: one per context switch.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&session());
        let b = chrome_trace_json(&session());
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn request_spans_export_async_slices_and_flow_arrows() {
        use simcore::span::{Outcome, Phase, SpanBuffer, SpanLedger, NUM_PHASES};
        let mut s = session();
        let mut phases = [Nanos::ZERO; NUM_PHASES];
        phases[Phase::CpuRun.index()] = Nanos::from_micros(4);
        phases[Phase::DiskService.index()] = Nanos::from_micros(6);
        s.spans = Some(SpanBuffer {
            ledgers: vec![SpanLedger {
                request: 1,
                container: 7,
                start: Nanos::from_micros(10),
                end: Nanos::from_micros(20),
                phases,
                log: vec![
                    (Nanos::from_micros(10), Phase::CpuRun),
                    (Nanos::from_micros(14), Phase::DiskService),
                ],
                outcome: Outcome::Completed,
            }],
            minted: 1,
            finished: 1,
            dropped: 0,
        });
        let json = chrome_trace_json(&s);
        assert!(json.contains("\"ph\":\"b\",\"id\":1,\"name\":\"req 1\""));
        assert!(json.contains("\"name\":\"cpu-run\""));
        assert!(json.contains("\"name\":\"disk-service\""));
        assert!(json.contains("\"outcome\":\"completed\""));
        // The disk-service segment carries a flow arrow onto the disk
        // track.
        assert!(json.contains("\"name\":\"req 1 disk-service\""));
        assert!(json.contains(&format!("\"pid\":{DISK_PID},\"tid\":0")));
        let again = chrome_trace_json(&s);
        assert_eq!(json, again);
    }

    #[test]
    fn slo_violations_export_instants() {
        let mut s = session();
        s.trace.events.push(TraceEvent {
            at: Nanos::from_micros(30),
            kind: TraceEventKind::SloViolation {
                container: 7,
                request: 5,
                latency: Nanos::from_micros(900),
                threshold: Nanos::from_micros(500),
            },
        });
        s.trace.emitted += 1;
        let json = chrome_trace_json(&s);
        assert!(json.contains("SLO violation req 5: 900us > 500us"));
    }

    #[test]
    fn multi_cpu_sessions_get_per_cpu_tracks_and_migration_arrows() {
        let mut s = session();
        let push = |t: &mut TraceBuffer, at: u64, kind: TraceEventKind| {
            t.events.push(TraceEvent {
                at: Nanos::from_micros(at),
                kind,
            });
            t.emitted += 1;
        };
        push(
            &mut s.trace,
            8,
            TraceEventKind::CtxSwitch {
                from: u32::MAX,
                to: 9,
                container: 7,
                cpu: 1,
            },
        );
        push(
            &mut s.trace,
            9,
            TraceEventKind::Migrate {
                task: 3,
                from_cpu: 0,
                to_cpu: 1,
                container: 7,
            },
        );
        let json = chrome_trace_json(&s);
        assert!(json.contains("\"name\":\"cpu0\""));
        assert!(json.contains("\"name\":\"cpu1\""));
        assert!(!json.contains("\"name\":\"cpu\","), "legacy track absent");
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("migrate t3"));
        // Two slices on cpu0 (closed by the switch chain + end), one on
        // cpu1, one disk slice.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        let a = chrome_trace_json(&s);
        assert_eq!(a, json);
    }

    #[test]
    fn cluster_export_namespaces_pids_and_prefixes_tracks() {
        let sessions = vec![
            ("web-0".to_string(), session()),
            ("web-1".to_string(), session()),
        ];
        let json = cluster_chrome_trace_json(&sessions);
        // Node-prefixed track names for both nodes.
        assert!(json.contains("\"name\":\"web-0 cpu\""));
        assert!(json.contains("\"name\":\"web-1 cpu\""));
        assert!(json.contains("\"name\":\"web-0 disk\""));
        assert!(json.contains("\"name\":\"web-1 container web\""));
        // Node 1's pids live one stride up.
        assert!(json.contains(&format!("\"pid\":{}", NODE_PID_STRIDE + CPU_PID)));
        assert!(json.contains(&format!("\"pid\":{}", NODE_PID_STRIDE + DISK_PID)));
        // Well-formed and deterministic.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, cluster_chrome_trace_json(&sessions));
    }

    #[test]
    fn cluster_export_of_one_session_matches_single_shape() {
        // The single-session path is the cluster path with base 0 and no
        // label: same event count, only the track names gain the prefix.
        let single = chrome_trace_json(&session());
        let cluster = cluster_chrome_trace_json(&[("n".to_string(), session())]);
        assert_eq!(
            single.matches("\"ph\":").count(),
            cluster.matches("\"ph\":").count()
        );
    }
}
