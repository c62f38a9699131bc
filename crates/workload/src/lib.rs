//! Client worlds and experiment scenarios.
//!
//! The `workload` crate provides everything outside the simulated server
//! machine:
//!
//! - [`clients`]: configurable closed-loop HTTP clients with per-class
//!   latency metrics, persistent-connection support, and S-Client-style
//!   abandon-and-retry behaviour (Banga & Druschel '97) so that offered
//!   load is sustained even when the server drops SYNs.
//! - [`synflood`]: an open-loop SYN generator cycling through a source
//!   address block — the "malicious clients" of §5.7 — and the world
//!   that runs it next to well-behaved clients.
//! - [`metrics`]: per-class latency summaries and throughput counters.
//! - [`scenarios`]: one self-contained driver per experiment in the
//!   paper's evaluation — §5.3 baseline throughput, Figure 11 prioritized
//!   clients, Figures 12/13 CGI control, Figure 14 SYN-flood immunity, and
//!   the §5.8 virtual-server isolation experiment — each returning a
//!   structured result the `rcbench` entries print and the integration
//!   tests assert against.

pub mod clients;
pub mod metrics;
pub mod scenarios;
pub mod synflood;

pub use clients::{ClientSpec, HttpClients};
pub use metrics::ClientMetrics;
pub use synflood::SynFlood;
