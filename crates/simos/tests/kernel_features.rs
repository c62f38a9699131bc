//! Focused kernel-feature tests: timers, memory limits, process teardown,
//! and scheduler-binding pruning.

use rescon::Attributes;
use sched::TaskId;
use simcore::Nanos;
use simnet::{CidrFilter, FlowKey, IpAddr, Packet, PacketKind, SockId};
use simos::kernel::SOCKBUF_BYTES;
use simos::{
    AppEvent, AppHandler, Kernel, KernelConfig, ListenSpec, NullWorld, SysCtx, World, WorldAction,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Records every event it sees, then re-parks.
struct Recorder {
    log: Rc<RefCell<Vec<String>>>,
    deadline: Nanos,
}

impl AppHandler for Recorder {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                self.log.borrow_mut().push("start".into());
                sys.sleep_until(self.deadline, 7);
            }
            AppEvent::Timer { tag } => {
                self.log
                    .borrow_mut()
                    .push(format!("timer{tag}@{}", sys.now().as_micros()));
                sys.sleep_until(Nanos::MAX, 99);
            }
            _ => {}
        }
    }
}

#[test]
fn timers_fire_at_their_deadline() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut k = Kernel::new(KernelConfig::unmodified());
    k.spawn_process(
        Box::new(Recorder {
            log: log.clone(),
            deadline: Nanos::from_millis(5),
        }),
        "rec",
        None,
        Attributes::time_shared(10),
        None,
    );
    k.run(&mut NullWorld, Nanos::from_millis(20));
    let entries = log.borrow().clone();
    assert_eq!(entries[0], "start");
    assert!(entries[1].starts_with("timer7@50"), "{entries:?}");
}

/// A minimal accepting server whose connections share one limited
/// container.
struct LimitServer {
    listener: Option<SockId>,
    accepted: Rc<RefCell<u64>>,
}

impl AppHandler for LimitServer {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                let l = sys.listen(ListenSpec::port(80));
                self.listener = Some(l);
                sys.select_wait(vec![l]);
            }
            AppEvent::SelectReady { .. } => {
                while let Some(_c) = sys.accept(self.listener.unwrap()) {
                    *self.accepted.borrow_mut() += 1;
                    // Never read or close: connections pile up.
                }
                sys.select_wait(vec![self.listener.unwrap()]);
            }
            _ => {}
        }
    }
}

#[test]
fn socket_buffer_memory_limit_refuses_excess_connections() {
    // The process's default container gets a memory limit of 4 sockbufs.
    let accepted = Rc::new(RefCell::new(0u64));
    let mut k = Kernel::new(KernelConfig::resource_containers());
    k.spawn_process(
        Box::new(LimitServer {
            listener: None,
            accepted: accepted.clone(),
        }),
        "srv",
        None,
        Attributes::time_shared(10).with_mem_limit(4 * SOCKBUF_BYTES),
        None,
    );

    // Ten clients try to connect; only four sockbufs fit.
    struct Syn10;
    impl World for Syn10 {
        fn on_packet(&mut self, pkt: Packet, _n: Nanos, a: &mut Vec<WorldAction>) {
            if pkt.kind == PacketKind::SynAck {
                a.push(WorldAction::SendPacket {
                    pkt: Packet::new(pkt.flow, PacketKind::Ack),
                    delay: Nanos::ZERO,
                });
            }
        }
        fn on_timer(&mut self, tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
            a.push(WorldAction::SendPacket {
                pkt: Packet::new(
                    FlowKey::new(IpAddr::new(10, 0, 0, tag as u8 + 1), 2000, 80),
                    PacketKind::Syn,
                ),
                delay: Nanos::ZERO,
            });
        }
    }
    for i in 0..10 {
        k.arm_world_timer(i, Nanos::from_micros(10 * (i + 1)));
    }
    k.run(&mut Syn10, Nanos::from_millis(50));
    assert_eq!(*accepted.borrow(), 4, "memory limit must cap connections");
    k.containers.check_invariants();
}

/// Closing a listener takes it out of the stack: a later SYN for its
/// port finds no listener, so no handshake starts and nothing is queued
/// for a socket that no process owns.
#[test]
fn closed_listener_leaves_the_stack() {
    /// Listens, closes the listener at once, then sleeps.
    struct CloseListener(Rc<RefCell<Option<SockId>>>);
    impl AppHandler for CloseListener {
        fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
            if let AppEvent::Start = ev {
                let l = sys.listen(ListenSpec::port(80));
                sys.close(l).expect("a live listener closes");
                *self.0.borrow_mut() = Some(l);
                sys.sleep_until(Nanos::MAX, 0);
            }
        }
    }
    /// One client SYN at its timer; counts the SYN-ACKs that come back.
    struct OneSyn(u32);
    impl World for OneSyn {
        fn on_packet(&mut self, pkt: Packet, _n: Nanos, _a: &mut Vec<WorldAction>) {
            if pkt.kind == PacketKind::SynAck {
                self.0 += 1;
            }
        }
        fn on_timer(&mut self, _tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
            a.push(WorldAction::SendPacket {
                pkt: Packet::new(
                    FlowKey::new(IpAddr::new(10, 0, 0, 1), 2000, 80),
                    PacketKind::Syn,
                ),
                delay: Nanos::ZERO,
            });
        }
    }
    let listener = Rc::new(RefCell::new(None));
    let mut k = Kernel::new(KernelConfig::unmodified());
    k.spawn_process(
        Box::new(CloseListener(listener.clone())),
        "srv",
        None,
        Attributes::time_shared(10),
        None,
    );
    k.arm_world_timer(0, Nanos::from_millis(1));
    let mut world = OneSyn(0);
    k.run(&mut world, Nanos::from_millis(10));
    let listener = listener.borrow().expect("server started");
    assert!(
        k.stack.socket(listener).is_none(),
        "closed listener still in the stack"
    );
    assert_eq!(world.0, 0, "a closed listener answered a SYN");
}

#[test]
fn process_exit_releases_all_kernel_state() {
    /// Starts, listens, then exits immediately.
    struct Ephemeral;
    impl AppHandler for Ephemeral {
        fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
            if let AppEvent::Start = ev {
                let _l = sys.listen(ListenSpec::port(80));
                let fd = sys.create_container(None, Attributes::time_shared(5)).ok();
                let _ = fd;
                sys.exit();
            }
        }
    }
    let mut k = Kernel::new(KernelConfig::resource_containers());
    let pid = k.spawn_process(
        Box::new(Ephemeral),
        "tmp",
        None,
        Attributes::time_shared(10),
        None,
    );
    k.run(&mut NullWorld, Nanos::from_millis(5));
    assert!(!k.process_alive(pid));
    assert_eq!(k.process_count(), 0);
    assert_eq!(k.stack.socket_count(), 0);
    // Only the root container survives.
    assert_eq!(k.containers.len(), 1);
    k.containers.check_invariants();
}

/// Accepts connections on the scalable event API, registering every
/// socket — then immediately *deregisters* the first accepted
/// connection, leaving it open. Per-socket event counts distinguish the
/// silenced socket from its still-registered sibling.
struct DeregServer {
    listener: Option<SockId>,
    conns: Rc<RefCell<Vec<SockId>>>,
    events: Rc<RefCell<std::collections::HashMap<u64, u32>>>,
}

impl AppHandler for DeregServer {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                let l = sys.listen(ListenSpec::port(80));
                self.listener = Some(l);
                sys.event_register(l);
                sys.event_wait();
            }
            AppEvent::EventReady { events } => {
                for s in events {
                    if Some(s) == self.listener {
                        while let Some(conn) = sys.accept(self.listener.unwrap()) {
                            sys.event_register(conn);
                            if self.conns.borrow().is_empty() {
                                sys.event_deregister(conn);
                            }
                            self.conns.borrow_mut().push(conn);
                        }
                    } else {
                        *self.events.borrow_mut().entry(s.as_u64()).or_insert(0) += 1;
                        let _ = sys.read(s);
                    }
                }
                sys.event_wait();
            }
            _ => {}
        }
    }
}

/// §5.5's deregistration half: a socket removed from the event set stays
/// open and keeps receiving data, but delivers no further events — while
/// a sibling socket registered the same way keeps delivering.
#[test]
fn deregistered_socket_stays_open_but_delivers_no_events() {
    let conns = Rc::new(RefCell::new(Vec::new()));
    let events = Rc::new(RefCell::new(std::collections::HashMap::new()));
    let mut k = Kernel::new(KernelConfig::resource_containers());
    k.spawn_process(
        Box::new(DeregServer {
            listener: None,
            conns: conns.clone(),
            events: events.clone(),
        }),
        "srv",
        None,
        Attributes::time_shared(10),
        None,
    );

    /// Two clients handshake, then keep sending data on both flows.
    struct TwoTalkers;
    impl TwoTalkers {
        fn flow(i: u64) -> FlowKey {
            FlowKey::new(IpAddr::new(10, 0, 0, i as u8 + 1), 2000, 80)
        }
    }
    impl World for TwoTalkers {
        fn on_packet(&mut self, pkt: Packet, _n: Nanos, a: &mut Vec<WorldAction>) {
            if pkt.kind == PacketKind::SynAck {
                a.push(WorldAction::SendPacket {
                    pkt: Packet::new(pkt.flow, PacketKind::Ack),
                    delay: Nanos::ZERO,
                });
            }
        }
        fn on_timer(&mut self, tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
            if tag < 2 {
                a.push(WorldAction::SendPacket {
                    pkt: Packet::new(Self::flow(tag), PacketKind::Syn),
                    delay: Nanos::ZERO,
                });
            } else {
                // Periodic data on both established flows.
                for i in 0..2 {
                    a.push(WorldAction::SendPacket {
                        pkt: Packet::new(Self::flow(i), PacketKind::Data { bytes: 64 }),
                        delay: Nanos::ZERO,
                    });
                }
            }
        }
    }
    // Client 0 connects first (its conn is the deregistered one), client
    // 1 second; then five rounds of data on both flows.
    k.arm_world_timer(0, Nanos::from_micros(10));
    k.arm_world_timer(1, Nanos::from_micros(200));
    for round in 0..5u64 {
        k.arm_world_timer(2 + round, Nanos::from_millis(1 + round));
    }
    k.run(&mut TwoTalkers, Nanos::from_millis(10));

    let conns = conns.borrow();
    assert_eq!(conns.len(), 2, "both clients must connect");
    let events = events.borrow();
    assert_eq!(
        events.get(&conns[0].as_u64()),
        None,
        "deregistered socket delivered events: {events:?}"
    );
    assert!(
        events.get(&conns[1].as_u64()).copied().unwrap_or(0) >= 1,
        "registered sibling delivered nothing: {events:?}"
    );
    // Deregistration is not close: listener + both conns are still open.
    assert_eq!(k.stack.socket_count(), 3);
    k.containers.check_invariants();
}

/// Listens on two classes — an attacker prefix and everyone else, each
/// bound to its own container — and never completes handshakes, so the
/// SYN queues only drain by expiry.
struct TwoClassSink {
    listeners: Vec<SockId>,
}

impl AppHandler for TwoClassSink {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                let classes = [
                    (
                        CidrFilter::new(IpAddr::new(192, 168, 0, 0), 16),
                        "attacker-class",
                    ),
                    (CidrFilter::any(), "good-class"),
                ];
                for (filter, name) in classes {
                    let l = sys.listen(ListenSpec::port(80).filter(filter));
                    if let Ok(fd) =
                        sys.create_container(None, Attributes::time_shared(10).named(name))
                    {
                        let _ = sys.bind_socket(l, fd);
                    }
                    self.listeners.push(l);
                }
                sys.select_wait(self.listeners.clone());
            }
            AppEvent::SelectReady { .. } => sys.select_wait(self.listeners.clone()),
            _ => {}
        }
    }
}

/// §5.7 made cheap: admission drops happen before any protocol work is
/// queued, and each one is charged to the container the packet
/// classified to — the attacker's class absorbs its own overload while
/// the well-behaved class is charged nothing.
#[test]
fn admission_drops_charge_the_classifying_container() {
    let mut k = Kernel::new(KernelConfig::resource_containers().with_admission(4));
    k.spawn_process(
        Box::new(TwoClassSink {
            listeners: Vec::new(),
        }),
        "sink",
        None,
        Attributes::time_shared(10),
        None,
    );

    /// One burst: forty attacker SYNs (distinct flows, never acked) and
    /// two legitimate ones.
    struct ClassedSyns;
    impl World for ClassedSyns {
        fn on_packet(&mut self, _p: Packet, _n: Nanos, _a: &mut Vec<WorldAction>) {}
        fn on_timer(&mut self, _tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
            for i in 0..40u16 {
                a.push(WorldAction::SendPacket {
                    pkt: Packet::new(
                        FlowKey::new(IpAddr::new(192, 168, 1, (i % 250) as u8 + 1), 3000 + i, 80),
                        PacketKind::Syn,
                    ),
                    delay: Nanos::ZERO,
                });
            }
            for i in 0..2u16 {
                a.push(WorldAction::SendPacket {
                    pkt: Packet::new(
                        FlowKey::new(IpAddr::new(10, 0, 0, i as u8 + 1), 4000 + i, 80),
                        PacketKind::Syn,
                    ),
                    delay: Nanos::ZERO,
                });
            }
        }
    }
    // Two bursts: the first fills the attacker listener's SYN queue well
    // past the budget (admission sees an empty queue until the kernel
    // thread has run); the second, a millisecond later, is refused
    // packet-for-packet at interrupt level.
    k.arm_world_timer(0, Nanos::from_micros(10));
    k.arm_world_timer(1, Nanos::from_millis(1));
    k.run(&mut ClassedSyns, Nanos::from_millis(5));

    let by_name = |name: &str| {
        k.containers
            .iter()
            .find(|(_, c)| c.attrs().name.as_deref() == Some(name))
            .map(|(id, _)| id)
            .expect("class container exists")
    };
    let attacker = by_name("attacker-class");
    let good = by_name("good-class");

    // The second burst's 40 attacker SYNs all arrive over budget; every
    // refusal lands on the attacker's ledger. The good class never
    // exceeds its budget of 4 (two SYNs per burst), so it pays nothing.
    assert_eq!(k.drop_charges_of(attacker), 40);
    assert_eq!(k.drop_charges_of(good), 0, "victim charged for the flood");
    assert_eq!(k.stats().early_drops, 40);
    assert_eq!(k.drop_charges().values().sum::<u64>(), 40);
    // The dropped packets' wire bytes were charged to the attacker too.
    let usage = k.containers.usage(attacker).unwrap();
    assert!(usage.bytes_rx > 0, "drops charged no rx bytes");
    assert_eq!(k.containers.usage(good).unwrap().bytes_rx, 0);
    k.containers.check_invariants();
}
