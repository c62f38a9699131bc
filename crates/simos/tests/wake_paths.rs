//! The kernel's wake path, one wait kind at a time.
//!
//! A thread blocks on each socket `WaitFor` kind twice: once when the
//! condition already holds as it blocks, and once when the condition
//! becomes true later. Either way the kernel must deliver the right upcall
//! and charge the thread's container the kernel CPU of the wake: the
//! re-check the thread runs, costed as the syscall it completes. The
//! event API is covered for read readiness and for writable interest,
//! whose later wake comes from the process half of the kernel's
//! writability wake on a wire completion.

use std::cell::RefCell;
use std::rc::Rc;

use rescon::Attributes;
use sched::TaskId;
use simcore::Nanos;
use simnet::{FlowKey, IpAddr, Packet, PacketKind, SockId};
use simos::{
    cost, AppEvent, AppHandler, Kernel, KernelConfig, ListenSpec, QdiscKind, SysCtx, World,
    WorldAction,
};

/// The server accepts its clients' connections here (unless the wait
/// under test is the accept).
const T_ACCEPT: Nanos = Nanos::from_millis(2);
/// Ready cases: the clients send (or connect) here, before the wait.
const T_EARLY: Nanos = Nanos::from_millis(3);
/// The server blocks on the wait under test here.
const T_WAIT: Nanos = Nanos::from_millis(4);
/// Later cases: the clients send (or connect) here, after the wait.
const T_LATE: Nanos = Nanos::from_millis(6);
/// Socket-buffer limit of the server's container in the writable cases.
const SOCKBUF_LIMIT: u64 = 4096;
/// Clients, each with one connection.
const CLIENTS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Select,
    Readable,
    Acceptable,
    Event,
    Writable,
    /// `event_wait` with writable interest registered on a connection.
    EventWritable,
}

/// A wake upcall as the server saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Woke {
    Select(Vec<SockId>),
    Events(Vec<SockId>),
    Writable(SockId),
}

/// What the server did, read by the test after the run.
#[derive(Default)]
struct Log {
    listener: Option<SockId>,
    conns: Vec<SockId>,
    woke: Vec<(Nanos, Woke)>,
}

struct Server {
    kind: Kind,
    /// Whether the condition holds before the wait.
    ready: bool,
    log: Rc<RefCell<Log>>,
}

impl AppHandler for Server {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        let mut log = self.log.borrow_mut();
        let woke = match ev {
            AppEvent::Start => {
                log.listener = Some(sys.listen(ListenSpec::port(80)));
                sys.sleep_until(T_ACCEPT, 1);
                return;
            }
            AppEvent::Timer { tag: 1 } => {
                let l = log.listener.expect("listening");
                if self.kind != Kind::Acceptable {
                    while let Some(c) = sys.accept(l) {
                        log.conns.push(c);
                        if self.kind == Kind::Event {
                            sys.event_register(c);
                        }
                    }
                }
                sys.sleep_until(T_WAIT, 2);
                return;
            }
            AppEvent::Timer { tag: 2 } => {
                match self.kind {
                    Kind::Select => sys.select_wait(log.conns.clone()),
                    Kind::Readable => sys.read_wait(log.conns[0]),
                    Kind::Acceptable => sys.accept_wait(log.listener.expect("listening")),
                    Kind::Event => sys.event_wait(),
                    Kind::Writable | Kind::EventWritable => {
                        if !self.ready {
                            // Fill the container's socket buffer: the slow
                            // link holds every byte for milliseconds.
                            let sent = sys.send(log.conns[0], SOCKBUF_LIMIT);
                            assert_eq!(sent, Ok(SOCKBUF_LIMIT));
                            assert!(!sys.sock_writable(log.conns[0]));
                        }
                        if self.kind == Kind::Writable {
                            sys.send_wait(log.conns[0]);
                        } else {
                            sys.event_register_writable(log.conns[0]);
                            sys.event_wait();
                        }
                    }
                }
                return;
            }
            AppEvent::SelectReady { ready } => Woke::Select(ready),
            AppEvent::EventReady { events } => Woke::Events(events),
            AppEvent::Writable { sock } => Woke::Writable(sock),
            _ => return,
        };
        log.woke.push((sys.now(), woke));
        sys.sleep_until(Nanos::MAX, 3);
    }
}

/// Clients that connect, or send one request each, when their world
/// timers fire: tag `i` connects client `i`, tag `100 + i` sends on it.
struct Clients;

impl World for Clients {
    fn on_packet(&mut self, pkt: Packet, _now: Nanos, actions: &mut Vec<WorldAction>) {
        if pkt.kind == PacketKind::SynAck {
            actions.push(WorldAction::SendPacket {
                pkt: Packet::new(pkt.flow, PacketKind::Ack),
                delay: Nanos::ZERO,
            });
        }
    }

    fn on_timer(&mut self, tag: u64, _now: Nanos, actions: &mut Vec<WorldAction>) {
        let (i, kind) = if tag >= 100 {
            (tag - 100, PacketKind::Data { bytes: 100 })
        } else {
            (tag, PacketKind::Syn)
        };
        let flow = FlowKey::new(IpAddr::new(10, 0, 0, 1 + i as u8), 1000, 80);
        actions.push(WorldAction::SendPacket {
            pkt: Packet::new(flow, kind),
            delay: Nanos::ZERO,
        });
    }
}

/// Runs one case: returns the server's log and the kernel CPU charged to
/// its container from `T_WAIT` on.
fn run_case(kind: Kind, ready: bool) -> (Log, Nanos) {
    let mut cfg = KernelConfig::unmodified();
    let mut attrs = Attributes::time_shared(10);
    if matches!(kind, Kind::Writable | Kind::EventWritable) {
        // 1 Mb/s: one full segment occupies the wire for ~12 ms.
        cfg = cfg.with_link(1_000_000, QdiscKind::Fifo);
        attrs = attrs.with_sockbuf_limit(SOCKBUF_LIMIT);
    }
    let mut k = Kernel::new(cfg);
    let log = Rc::new(RefCell::new(Log::default()));
    let server = Server {
        kind,
        ready,
        log: log.clone(),
    };
    let pid = k.spawn_process(Box::new(server), "server", None, attrs, None);
    let container = k.process_container(pid).expect("live process");
    let trigger = if ready { T_EARLY } else { T_LATE };
    for i in 0..CLIENTS as u64 {
        if kind == Kind::Acceptable {
            k.arm_world_timer(i, trigger);
        } else {
            k.arm_world_timer(i, Nanos::from_micros(100));
            // A later trigger is the first client's request alone.
            if ready || i == 0 {
                k.arm_world_timer(100 + i, trigger);
            }
        }
    }
    let kernel_cpu = |k: &Kernel| {
        k.containers
            .usage(container)
            .expect("live container")
            .kernel_cpu
    };
    k.step_until(&mut Clients, T_WAIT);
    let before = kernel_cpu(&k);
    k.run(&mut Clients, Nanos::from_millis(40));
    let charged = kernel_cpu(&k) - before;
    let log = log.take();
    (log, charged)
}

#[test]
fn each_wait_kind_wakes_with_its_upcall_and_syscall_cost() {
    // The timer upcall that issues the wait is 1 µs of kernel work.
    let timer_upcall = Nanos::from_micros(1);
    for kind in [
        Kind::Select,
        Kind::Readable,
        Kind::Acceptable,
        Kind::Event,
        Kind::Writable,
        Kind::EventWritable,
    ] {
        for ready in [true, false] {
            let (log, charged) = run_case(kind, ready);
            let case = format!("{kind:?}, ready before the wait: {ready}");
            assert_eq!(log.woke.len(), 1, "{case}: {:?}", log.woke);
            let (at, ref upcall) = log.woke[0];
            if ready {
                assert!(at > T_WAIT && at < T_LATE, "{case}: woke at {at}");
            } else {
                assert!(at > T_LATE, "{case}: woke at {at}");
            }
            let listener = log.listener.expect("listening");
            if kind == Kind::Acceptable {
                assert!(log.conns.is_empty(), "{case}");
            } else {
                assert_eq!(log.conns.len(), CLIENTS, "{case}");
            }
            // Before the wait every client's request is in; a later wake
            // comes from the first request alone.
            let requests = if ready { CLIENTS } else { 1 };
            let sent = log.conns.iter().copied().take(requests).collect::<Vec<_>>();
            let (expected, wake_cost) = match kind {
                Kind::Select => (Woke::Select(sent), cost::select_scan(CLIENTS)),
                Kind::Readable => (Woke::Select(vec![log.conns[0]]), cost::READ_SYSCALL),
                Kind::Acceptable => (Woke::Select(vec![listener]), cost::ACCEPT_SYSCALL),
                Kind::Event => (Woke::Events(sent), cost::event_delivery(requests)),
                Kind::Writable => (Woke::Writable(log.conns[0]), cost::WRITE_SYSCALL),
                // Registering the interest is one more event-API call.
                Kind::EventWritable => (
                    Woke::Events(vec![log.conns[0]]),
                    cost::EVENT_API_BASE + cost::event_delivery(1),
                ),
            };
            assert_eq!(*upcall, expected, "{case}");
            assert_eq!(charged, timer_upcall + wake_cost, "{case}");
        }
    }
}
