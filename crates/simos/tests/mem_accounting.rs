//! `simmem` teardown tests: every path that destroys a connection or
//! process must return its charged kernel memory — socket buffers,
//! protocol control blocks, thread stacks — to zero. A leak on any of
//! these paths would let a tenant's bill drift upward forever.

use rescon::{Attributes, MemClass};
use sched::TaskId;
use simcore::Nanos;
use simnet::{FlowKey, IpAddr, Packet, PacketKind, SockId};
use simos::{
    AppEvent, AppHandler, Kernel, KernelConfig, ListenSpec, MemParams, NullWorld, SysCtx, World,
    WorldAction,
};
use std::cell::RefCell;
use std::rc::Rc;

const SOCKBUF: u64 = simos::kernel::SOCKBUF_BYTES;
const PCB: u64 = simos::mem::PCB_BYTES;
const N_CONNS: u64 = 3;

fn mem_kernel() -> Kernel {
    Kernel::new(KernelConfig::resource_containers().with_mem(MemParams::new()))
}

fn conn_bytes(k: &Kernel) -> (u64, u64) {
    let acct = k.mem_acct().expect("memory-configured kernel");
    (
        acct.class_bytes(MemClass::SockBuf),
        acct.class_bytes(MemClass::ConnState),
    )
}

/// Accepting server: `close_on_accept` closes each connection right away,
/// otherwise connections stay open until something external kills them.
/// An optional timer deadline makes the whole process exit mid-flight.
struct Server {
    listener: Option<SockId>,
    accepted: Rc<RefCell<u64>>,
    close_on_accept: bool,
    exit_at: Option<Nanos>,
}

impl AppHandler for Server {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                let l = sys.listen(ListenSpec::port(80));
                self.listener = Some(l);
                if let Some(t) = self.exit_at {
                    sys.sleep_until(t, 1);
                }
                sys.select_wait(vec![l]);
            }
            AppEvent::SelectReady { .. } => {
                while let Some(conn) = sys.accept(self.listener.unwrap()) {
                    *self.accepted.borrow_mut() += 1;
                    if self.close_on_accept {
                        let _ = sys.close(conn);
                    }
                }
                sys.select_wait(vec![self.listener.unwrap()]);
            }
            AppEvent::Timer { tag: 1 } => sys.exit(),
            _ => {}
        }
    }
}

fn spawn_server(k: &mut Kernel, close_on_accept: bool, exit_at: Option<Nanos>) -> Rc<RefCell<u64>> {
    let accepted = Rc::new(RefCell::new(0u64));
    k.spawn_process(
        Box::new(Server {
            listener: None,
            accepted: accepted.clone(),
            close_on_accept,
            exit_at,
        }),
        "srv",
        None,
        Attributes::time_shared(10),
        None,
    );
    accepted
}

fn flow(i: u64) -> FlowKey {
    FlowKey::new(IpAddr::new(10, 0, 0, i as u8 + 1), 2000, 80)
}

/// Completes handshakes for timer tags below `N_CONNS`; timer tags of
/// `100 + i` send an Rst on flow `i` (unused unless armed).
struct Clients;

impl World for Clients {
    fn on_packet(&mut self, pkt: Packet, _n: Nanos, a: &mut Vec<WorldAction>) {
        if pkt.kind == PacketKind::SynAck {
            a.push(WorldAction::SendPacket {
                pkt: Packet::new(pkt.flow, PacketKind::Ack),
                delay: Nanos::ZERO,
            });
        }
    }
    fn on_timer(&mut self, tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
        let (kind, i) = if tag >= 100 {
            (PacketKind::Rst, tag - 100)
        } else {
            (PacketKind::Syn, tag)
        };
        a.push(WorldAction::SendPacket {
            pkt: Packet::new(flow(i), kind),
            delay: Nanos::ZERO,
        });
    }
}

fn arm_handshakes(k: &mut Kernel) {
    for i in 0..N_CONNS {
        k.arm_world_timer(i, Nanos::from_micros(10 * (i + 1)));
    }
}

#[test]
fn server_close_releases_sockbuf_and_pcb() {
    let mut k = mem_kernel();
    let accepted = spawn_server(&mut k, true, None);
    arm_handshakes(&mut k);
    k.run(&mut Clients, Nanos::from_millis(50));
    assert_eq!(*accepted.borrow(), N_CONNS);
    assert_eq!(conn_bytes(&k), (0, 0), "close leaked connection memory");
    k.containers.check_invariants();
}

#[test]
fn client_rst_releases_sockbuf_and_pcb() {
    let mut k = mem_kernel();
    let accepted = spawn_server(&mut k, false, None);
    arm_handshakes(&mut k);
    for i in 0..N_CONNS {
        k.arm_world_timer(100 + i, Nanos::from_millis(10));
    }
    // Mid-run, all three connections are established and charged.
    k.run(&mut Clients, Nanos::from_millis(5));
    assert_eq!(*accepted.borrow(), N_CONNS);
    assert_eq!(conn_bytes(&k), (N_CONNS * SOCKBUF, N_CONNS * PCB));
    // The resets land at 10 ms and must return every byte.
    k.run(&mut Clients, Nanos::from_millis(50));
    assert_eq!(conn_bytes(&k), (0, 0), "reset leaked connection memory");
    k.containers.check_invariants();
}

#[test]
fn unanswered_syns_charge_nothing_and_expire_clean() {
    // Half-open connections hold no charged memory; when the SYN-queue
    // entries expire nothing may be released twice (which would underflow
    // the accountant's saturating counters to a visible wrong total).
    struct SynOnly;
    impl World for SynOnly {
        fn on_packet(&mut self, _p: Packet, _n: Nanos, _a: &mut Vec<WorldAction>) {}
        fn on_timer(&mut self, tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
            a.push(WorldAction::SendPacket {
                pkt: Packet::new(flow(tag), PacketKind::Syn),
                delay: Nanos::ZERO,
            });
        }
    }
    let mut k = mem_kernel();
    let accepted = spawn_server(&mut k, false, None);
    arm_handshakes(&mut k);
    // Run well past the SYN-queue expiry.
    k.run(&mut SynOnly, Nanos::from_secs(8));
    assert_eq!(*accepted.borrow(), 0);
    assert_eq!(conn_bytes(&k), (0, 0));
    k.containers.check_invariants();
}

#[test]
fn process_exit_releases_connections_and_stacks() {
    let mut k = mem_kernel();
    let accepted = spawn_server(&mut k, false, Some(Nanos::from_millis(10)));
    arm_handshakes(&mut k);
    k.run(&mut Clients, Nanos::from_millis(5));
    assert_eq!(*accepted.borrow(), N_CONNS);
    assert_eq!(conn_bytes(&k), (N_CONNS * SOCKBUF, N_CONNS * PCB));
    let stacks = k.mem_acct().unwrap().class_bytes(MemClass::ThreadStack);
    assert!(
        stacks > 0 && stacks % simos::mem::STACK_BYTES == 0,
        "live threads must hold whole charged stacks: {stacks}"
    );
    // The server exits at 10 ms with all three connections open.
    k.run(&mut Clients, Nanos::from_millis(50));
    assert_eq!(conn_bytes(&k), (0, 0), "exit leaked connection memory");
    assert_eq!(
        k.mem_acct().unwrap().class_bytes(MemClass::ThreadStack),
        0,
        "exit leaked thread stacks"
    );
    k.containers.check_invariants();
}

#[test]
fn closing_a_listener_closes_its_queued_connection() {
    const CLOSE_AT: Nanos = Nanos::from_millis(5);
    /// Listens, never accepts, and closes the listener at `CLOSE_AT`.
    struct ListenThenClose(Rc<RefCell<Option<SockId>>>);
    impl AppHandler for ListenThenClose {
        fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
            match ev {
                AppEvent::Start => {
                    *self.0.borrow_mut() = Some(sys.listen(ListenSpec::port(80)));
                    sys.sleep_until(CLOSE_AT, 1);
                }
                AppEvent::Timer { tag: 1 } => {
                    let l = self.0.borrow().expect("listening");
                    sys.close(l).expect("a live listener closes");
                    sys.sleep_until(Nanos::MAX, 2);
                }
                _ => {}
            }
        }
    }
    /// Completes one handshake on `flow(0)` and counts the FINs and RSTs
    /// the server sends on it.
    #[derive(Default)]
    struct Peer {
        fins: u32,
        rsts: u32,
    }
    impl World for Peer {
        fn on_packet(&mut self, pkt: Packet, _n: Nanos, a: &mut Vec<WorldAction>) {
            assert_eq!(pkt.flow, flow(0));
            match pkt.kind {
                PacketKind::SynAck => a.push(WorldAction::SendPacket {
                    pkt: Packet::new(pkt.flow, PacketKind::Ack),
                    delay: Nanos::ZERO,
                }),
                PacketKind::Fin => self.fins += 1,
                PacketKind::Rst => self.rsts += 1,
                _ => {}
            }
        }
        fn on_timer(&mut self, _tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
            a.push(WorldAction::SendPacket {
                pkt: Packet::new(flow(0), PacketKind::Syn),
                delay: Nanos::ZERO,
            });
        }
    }
    let listener = Rc::new(RefCell::new(None));
    let mut k = mem_kernel();
    k.spawn_process(
        Box::new(ListenThenClose(listener.clone())),
        "srv",
        None,
        Attributes::time_shared(10),
        None,
    );
    k.arm_world_timer(0, Nanos::from_micros(10));
    let mut peer = Peer::default();
    // Before the close the connection waits in the accept queue, charged.
    k.run(&mut peer, CLOSE_AT - Nanos::from_millis(1));
    let l = listener.borrow().expect("server started");
    assert_eq!(k.stack.accept_queue_len(l), 1);
    assert_eq!(conn_bytes(&k), (SOCKBUF, PCB));
    k.run(&mut peer, Nanos::from_millis(20));
    assert_eq!((peer.fins, peer.rsts), (1, 0), "one FIN, no RST");
    assert_eq!(conn_bytes(&k), (0, 0), "listener close leaked memory");
    assert_eq!(k.stack.socket_count(), 0);
    k.containers.check_invariants();
}

#[test]
fn memory_unconfigured_kernel_reports_no_accountant() {
    let k = Kernel::new(KernelConfig::resource_containers());
    assert!(k.mem_acct().is_none());
    let _ = NullWorld; // silence unused-import lint on feature-combos
}
