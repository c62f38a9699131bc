//! Multi-kernel cluster simulation.
//!
//! `simcluster` scales the single-kernel simulation out to a *cluster*: a
//! [`World`] owns N [`Node`]s — each a full `simos` kernel with its own
//! clock frontier — plus a front-end load-balancer node hosting the
//! client worlds, and advances all of them conservatively against a
//! shared DES horizon. Inter-node traffic crosses finite [`Lane`]s with
//! FIFO serialization and per-source wire-time accounting, so the
//! conservation identities of the single-node link model extend across
//! machines.
//!
//! # Conservative synchronization
//!
//! Every inter-node lane has a minimum latency `L`; the world advances in
//! barrier-synchronous rounds of quantum `Δ ≤ L`. In each round every
//! node steps from `T` to `T + Δ` via [`simos::Kernel::step_until`]; all
//! packets captured by the egress filters are then carried over their
//! lanes, arriving at `departure + serialization + latency ≥ T + Δ` —
//! never in any node's past. Single-node runs through the same stepping
//! surface are byte-identical to [`simos::Kernel::run`].
//!
//! # Cross-machine resource management
//!
//! Container hierarchies span machines logically: a tenant owns one
//! container per node, and the [`GlobalShare`] balancer periodically
//! re-parameterizes per-node fixed shares from observed charge rates so
//! the tenant's *global* share converges on its target — the
//! cluster-level analogue of the SMP lag-ranked balancer. The
//! [`Orchestrator`] consumes the same observations to place and drain
//! per-tenant server replicas (profile-then-rebalance, à la C-Balancer).

pub mod frontend;
pub mod link;
pub mod orchestrator;
pub mod share;
pub mod world;

pub use frontend::{Frontend, TenantRoute};
pub use link::{Lane, LaneSpec};
pub use orchestrator::{Action, Orchestrator};
pub use share::{GlobalShare, TenantShare};
pub use world::{Node, NodeId, NodeSpec, World, FRONTEND};
