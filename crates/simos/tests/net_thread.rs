//! The kernel network thread's service order on the resource-container
//! kernel (§4.7): pending principals are served in the order of the
//! priority their containers lend, ties to the smaller container id, and
//! a starvable (priority 0) backlog waits for an otherwise idle CPU.

use std::cell::RefCell;
use std::rc::Rc;

use rescon::{Attributes, ContainerId};
use sched::TaskId;
use simcore::trace::{self, TraceEventKind};
use simcore::Nanos;
use simnet::{FlowKey, IpAddr, Packet, PacketKind};
use simos::{AppEvent, AppHandler, Kernel, KernelConfig, ListenSpec, SysCtx, World, WorldAction};

/// When the clients' SYNs arrive.
const SYNS_AT: Nanos = Nanos::from_millis(1);
/// When the spinner, if any, starts to burn CPU.
const SPIN_FROM: Nanos = Nanos::from_micros(500);

/// Listens on port `80 + i` for each priority `prios[i]`, each listener
/// bound to a container of its own made in that order, then sleeps for
/// good. The containers' ids are logged in port order.
struct Listeners {
    prios: Vec<u32>,
    ids: Rc<RefCell<Vec<ContainerId>>>,
}

impl AppHandler for Listeners {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        if !matches!(ev, AppEvent::Start) {
            return;
        }
        for (i, &prio) in self.prios.iter().enumerate() {
            let l = sys.listen(ListenSpec::port(80 + i as u16));
            let fd = sys
                .create_container(None, Attributes::time_shared(prio))
                .expect("containers are enabled");
            sys.bind_socket(l, fd).expect("fresh listener binds");
            self.ids
                .borrow_mut()
                .push(sys.resolve_fd(fd).expect("fresh descriptor"));
        }
        sys.sleep_until(Nanos::MAX, 1);
    }
}

/// Burns `cost` of CPU from `start`, then sleeps for good.
struct Spinner {
    start: Nanos,
    cost: Nanos,
}

impl AppHandler for Spinner {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        match ev {
            AppEvent::Start => sys.sleep_until(self.start, 1),
            AppEvent::Timer { tag: 1 } => sys.compute(self.cost, 2),
            _ => sys.sleep_until(Nanos::MAX, 3),
        }
    }
}

/// Sends one SYN per entry of `ports`, all at once, when timer 0 fires,
/// each from a client address of its own. Never completes a handshake.
struct Syns {
    ports: Vec<u16>,
}

impl World for Syns {
    fn on_packet(&mut self, _p: Packet, _n: Nanos, _a: &mut Vec<WorldAction>) {}
    fn on_timer(&mut self, _tag: u64, _n: Nanos, a: &mut Vec<WorldAction>) {
        for (i, &port) in self.ports.iter().enumerate() {
            let src = IpAddr::new(10, 0, 0, i as u8 + 1);
            a.push(WorldAction::SendPacket {
                pkt: Packet::new(FlowKey::new(src, 5000, port), PacketKind::Syn),
                delay: Nanos::ZERO,
            });
        }
    }
}

/// Runs a traced 20 ms kernel: `Listeners` with `prios`, a `Spinner`
/// burning `spin` from `SPIN_FROM` if given, and one SYN per entry of
/// `ports` at `SYNS_AT`. Returns the listener containers and the network thread's
/// dispatches as (time, container).
fn serve(
    prios: &[u32],
    spin: Option<Nanos>,
    ports: &[u16],
) -> (Vec<ContainerId>, Vec<(Nanos, u64)>) {
    let ids = Rc::new(RefCell::new(Vec::new()));
    let mut k = Kernel::new(KernelConfig::resource_containers());
    k.spawn_process(
        Box::new(Listeners {
            prios: prios.to_vec(),
            ids: ids.clone(),
        }),
        "srv",
        None,
        Attributes::time_shared(10),
        None,
    );
    if let Some(cost) = spin {
        k.spawn_process(
            Box::new(Spinner {
                start: SPIN_FROM,
                cost,
            }),
            "spin",
            None,
            Attributes::time_shared(10),
            None,
        );
    }
    k.arm_world_timer(0, SYNS_AT);
    trace::start(1 << 16);
    k.run(
        &mut Syns {
            ports: ports.to_vec(),
        },
        Nanos::from_millis(20),
    );
    let buf = trace::stop();
    assert_eq!(buf.dropped, 0);
    let dispatches = buf
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::LrpDispatch { container, .. } => Some((e.at, container)),
            _ => None,
        })
        .collect();
    let ids = ids.borrow().clone();
    (ids, dispatches)
}

/// The first SYN starts the idle network thread; the four that arrive
/// with it wait, and are served by lent priority: the two priority-20
/// listeners first, the smaller container id before the larger although
/// its SYN came second, then priority 15, then priority 5.
#[test]
fn pending_principals_are_served_by_lent_priority_then_smaller_id() {
    let (ids, dispatches) = serve(&[5, 20, 20, 15], None, &[80, 82, 81, 83, 80]);
    assert!(ids[1] < ids[2]);
    let order: Vec<u64> = dispatches.iter().map(|&(_, c)| c).collect();
    let want: Vec<u64> = [0, 1, 2, 3, 0].iter().map(|&i| ids[i].as_u64()).collect();
    assert_eq!(order, want);
}

/// A SYN to a priority-0 listener that arrives while another thread is
/// runnable stays queued: the network thread parks instead of starting
/// it, and the idle path starts it once the spinner's 5 ms are done.
/// With nothing else runnable, the same SYN is started on arrival.
#[test]
fn starvable_backlog_waits_for_an_idle_cpu() {
    let spin = Nanos::from_millis(5);
    let (ids, dispatches) = serve(&[0], Some(spin), &[80]);
    assert_eq!(dispatches.len(), 1, "{dispatches:?}");
    let (at, container) = dispatches[0];
    assert_eq!(container, ids[0].as_u64());
    assert!(
        at >= SPIN_FROM + spin,
        "started at {at:?}, while the spinner still ran"
    );

    let (ids, dispatches) = serve(&[0], None, &[80]);
    assert_eq!(dispatches.len(), 1, "{dispatches:?}");
    let (at, container) = dispatches[0];
    assert_eq!(container, ids[0].as_u64());
    assert!(at < SYNS_AT + Nanos::from_micros(100), "started at {at:?}");
}
