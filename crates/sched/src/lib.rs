//! CPU schedulers that treat resource containers as their resource
//! principals (paper §4.3, §5.1).
//!
//! Five scheduling policies are provided behind one [`CoreScheduler`]
//! trait, each managing a single CPU's run queue:
//!
//! - [`DecayUsageScheduler`]: a classic 4.3BSD-style decay-usage
//!   time-sharing scheduler whose principals are *tasks* (threads/
//!   processes). This models the **unmodified** Digital UNIX scheduler used
//!   as the paper's baseline: it knows nothing about containers.
//! - [`MultiLevelScheduler`]: the paper's prototype scheduler (§5.1). The
//!   container hierarchy is interpreted directly: fixed-share containers
//!   receive guaranteed CPU fractions (enforced by stride scheduling with
//!   idle-credit revocation), time-shared siblings share the remainder at
//!   strict numeric priority levels with decay-usage fairness within a
//!   level, priority 0 is starvable, and per-container CPU *limits* are
//!   enforced with token buckets (the "resource sandbox" of §5.6).
//! - [`StrideScheduler`] and [`LotteryScheduler`]: flat proportional-share
//!   schedulers (Waldspurger & Weihl) used as ablations; they demonstrate
//!   that the container abstraction composes with other scheduling
//!   policies (§4.4: "resource containers are just a mechanism").
//! - [`EdfScheduler`]: earliest-deadline-first over per-container latency
//!   targets ([`rescon::Attributes::with_deadline`]); work bound to a
//!   container with a tight declared target preempts best-effort work the
//!   moment it wakes.
//!
//! The kernel drives them through [`PerCpu`], a concrete router holding
//! one policy instance per simulated CPU: register tasks on a CPU with
//! their scheduler bindings, flip runnability, ask [`PerCpu::pick`] what a
//! given CPU should run and for how long, report consumed CPU via
//! [`PerCpu::charge`], and migrate tasks between CPUs. A mid-run policy
//! swap moves the registered tasks into a freshly built router through
//! [`PerCpu::export_tasks`] and [`PerCpu::import_tasks`].
//! All container bookkeeping (usage, hierarchy) lives in
//! [`rescon::ContainerTable`]; schedulers keep only policy state.

pub mod api;
pub mod bucket;
pub mod decay;
pub mod edf;
pub mod lottery;
pub mod multilevel;
pub mod smp;
pub mod stride;
pub mod usage_decay;

pub use api::{CoreScheduler, CpuId, Pick, TaskId, TaskSnapshot};
pub use bucket::TokenBucket;
pub use decay::DecayUsageScheduler;
pub use edf::EdfScheduler;
pub use lottery::LotteryScheduler;
pub use multilevel::MultiLevelScheduler;
pub use smp::PerCpu;
pub use stride::StrideScheduler;
pub use usage_decay::UsageDecay;
