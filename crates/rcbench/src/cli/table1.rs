//! `rcbench table1`: the paper's Table 1, the cost of each resource
//! container primitive, as the simulated kernel charges it.
//!
//! ```sh
//! cargo run --release -p rcbench -- table1 --check
//! ```
//!
//! The paper timed each primitive on a 500 MHz Alpha. Here one process
//! on a resource-container kernel sets up what a primitive needs and then
//! calls it N times through [`SysCtx`]. The CPU the kernel charged in that
//! run, minus what it charged in the same run without the calls, divided
//! by N, is the primitive's simulated cost. `--check` requires each cost
//! to equal the paper's to the nanosecond.

use std::cell::Cell;
use std::rc::Rc;

use rescon::{Attributes, ContainerFd, RcError};
use sched::TaskId;
use simcore::Nanos;
use simos::{AppEvent, AppHandler, Kernel, KernelConfig, NullWorld, Pid, SysCtx};

use super::registry::{Check, Outcome, ScenarioArgs};
use crate::Report;

/// The seven primitives of Table 1.
#[derive(Clone, Copy)]
enum Primitive {
    Create,
    Destroy,
    Bind,
    Usage,
    Attrs,
    Pass,
    Handle,
}

/// Table 1 in the paper's row order: the operation, its cost on the
/// 500 MHz Alpha in nanoseconds, and the primitive that performs it.
const ROWS: [(&str, u64, Primitive); 7] = [
    ("create resource container", 2_360, Primitive::Create),
    ("destroy resource container", 2_100, Primitive::Destroy),
    ("change thread's resource binding", 1_040, Primitive::Bind),
    ("obtain container resource usage", 2_040, Primitive::Usage),
    ("set/get container attributes", 2_100, Primitive::Attrs),
    ("move container between processes", 3_150, Primitive::Pass),
    (
        "obtain handle for existing container",
        1_900,
        Primitive::Handle,
    ),
];

/// The process under measurement. Its setup depends only on `n`, so a
/// run with the calls and a run without them differ by exactly the
/// calls.
struct Caller {
    primitive: Primitive,
    n: u64,
    call: bool,
    peer: Pid,
    error: Rc<Cell<Option<RcError>>>,
}

impl Caller {
    fn run(&self, sys: &mut SysCtx<'_>) -> Result<(), RcError> {
        let calls = if self.call { self.n } else { 0 };
        let new = |sys: &mut SysCtx<'_>| sys.create_container(None, Attributes::time_shared(1));
        match self.primitive {
            Primitive::Create => {
                for _ in 0..calls {
                    new(sys)?;
                }
            }
            Primitive::Destroy => {
                let fds = (0..self.n)
                    .map(|_| new(sys))
                    .collect::<Result<Vec<ContainerFd>, _>>()?;
                for &fd in fds.iter().take(calls as usize) {
                    sys.close_container(fd)?;
                }
            }
            Primitive::Bind => {
                let pair = [new(sys)?, new(sys)?];
                for i in 0..calls {
                    sys.bind_thread(pair[i as usize % 2])?;
                }
            }
            Primitive::Usage => {
                let fd = new(sys)?;
                for _ in 0..calls {
                    sys.container_usage(fd)?;
                }
            }
            Primitive::Attrs => {
                let fd = new(sys)?;
                for i in 0..calls {
                    if i % 2 == 0 {
                        sys.set_container_attrs(fd, Attributes::time_shared(2))?;
                    } else {
                        sys.container_attrs(fd)?;
                    }
                }
            }
            Primitive::Pass => {
                let fd = new(sys)?;
                for _ in 0..calls {
                    sys.pass_container(fd, self.peer)?;
                }
            }
            Primitive::Handle => {
                let fd = new(sys)?;
                let id = sys.resolve_fd(fd)?;
                for _ in 0..calls {
                    sys.open_container(id)?;
                }
            }
        }
        Ok(())
    }
}

impl AppHandler for Caller {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        if let AppEvent::Start = ev {
            if let Err(e) = self.run(sys) {
                self.error.set(Some(e));
            }
            sys.sleep_until(Nanos::MAX, 0);
        }
    }
}

/// The process that receives passed containers.
struct Peer;

impl AppHandler for Peer {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, _t: TaskId, ev: AppEvent) {
        if let AppEvent::Start = ev {
            sys.sleep_until(Nanos::MAX, 0);
        }
    }
}

/// The CPU a fresh kernel charges to containers in one second of a run
/// of [`Caller`].
fn charged(primitive: Primitive, n: u64, call: bool) -> Result<Nanos, String> {
    let mut k = Kernel::new(KernelConfig::resource_containers());
    let peer = k.spawn_process(
        Box::new(Peer),
        "peer",
        None,
        Attributes::time_shared(10),
        None,
    );
    let error = Rc::new(Cell::new(None));
    let caller = Caller {
        primitive,
        n,
        call,
        peer,
        error: error.clone(),
    };
    k.spawn_process(
        Box::new(caller),
        "caller",
        None,
        Attributes::time_shared(10),
        None,
    );
    k.run(&mut NullWorld, Nanos::from_secs(1));
    match error.get() {
        Some(e) => Err(format!("primitive call failed: {e:?}")),
        None => Ok(k.stats().charged_cpu),
    }
}

pub fn run(args: &ScenarioArgs) -> Result<Outcome, String> {
    let n: u64 = if args.reduced { 100 } else { 1_000 };
    let mut rep = Report::new("Table 1: cost of resource container primitives");
    rep.line(format!(
        "charged = (CPU charged with {n} calls - CPU charged without them) / {n}"
    ));
    rep.line(format!(
        "{:<38} {:>10} {:>13}",
        "operation", "paper (us)", "charged (us)"
    ));
    let mut checks = Vec::new();
    for (op, paper_ns, primitive) in ROWS {
        let delta = charged(primitive, n, true)?.saturating_sub(charged(primitive, n, false)?);
        rep.line(format!(
            "{op:<38} {:>10.2} {:>13.3}",
            paper_ns as f64 / 1e3,
            delta.as_nanos() as f64 / n as f64 / 1e3,
        ));
        checks.push(Check::new(
            "paper-cost",
            delta.as_nanos() == n * paper_ns,
            format!(
                "{op}: {} ns charged over {n} calls, paper {paper_ns} ns per call",
                delta.as_nanos()
            ),
        ));
    }
    rep.blank();
    rep.line("paper §5.2: 1.04-3.15 us per primitive on a 500 MHz Alpha; the simulated");
    rep.line("kernel charges each call that cost, under 1% of the 338 us a");
    rep.line("connection-per-request HTTP transaction costs (§5.3).");

    Ok(Outcome {
        checks,
        check_ok: "every primitive charged exactly its Table 1 cost",
        reports: vec![rep],
        ..Outcome::default()
    })
}
