//! Deterministic discrete-event simulation substrate.
//!
//! `simcore` provides the building blocks shared by every other crate in the
//! resource-containers workspace:
//!
//! - [`time`]: a virtual clock measured in integer nanoseconds ([`Nanos`])
//!   with duration arithmetic that cannot silently overflow or go negative.
//! - [`event`]: a deterministic event queue ([`EventQueue`]) with stable
//!   FIFO ordering for events scheduled at the same instant.
//! - [`arena`]: typed index arenas ([`Arena`]) with generation-checked ids,
//!   used for containers, threads, sockets, and connections.
//! - [`rng`]: a seedable random-number wrapper ([`SimRng`]) so that an
//!   entire simulation is reproducible from a single `u64` seed.
//! - [`stats`]: histograms and running summaries
//!   used by the experiment harnesses.
//! - [`trace`]: typed, zero-cost-when-disabled kernel tracing — a bounded
//!   ring of structured [`TraceEvent`]s every subsystem records its
//!   decision points into.
//! - [`span`]: request-scoped causal spans (`rcspan`) — per-request
//!   phase ledgers whose nine phases partition end-to-end latency
//!   exactly; zero-cost when disabled like [`trace`].
//! - [`fault`]: seeded, virtual-time fault injection ([`FaultPlan`] /
//!   [`FaultInjector`]) — deterministic packet loss, disk errors, and
//!   client misbehaviour drawn from independent per-category streams.
//!
//! Nothing in this crate knows about resource containers; it is a pure
//! simulation toolkit.

pub mod arena;
pub mod event;
pub mod fault;
pub mod rng;
pub mod slab;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

pub use arena::{Arena, Idx};
pub use event::{EventQueue, RefQueue};
pub use fault::{ClientFault, DiskFault, FaultCounts, FaultInjector, FaultPlan, NetFault};
pub use rng::SimRng;
pub use span::{Outcome, Phase, RequestId, SpanBuffer, SpanLedger, SpanRef};
pub use stats::{Histogram, Summary};
pub use time::Nanos;
pub use trace::{ChargeKind, TraceBuffer, TraceEvent, TraceEventKind, NO_CONTAINER};
