//! A deterministic disk subsystem charged to resource containers.
//!
//! The paper's resource containers meter CPU, memory, and network
//! consumption; §7 projects the abstraction onto "other resources, such as
//! disk bandwidth". This crate supplies that extension for the simulation:
//!
//! - [`SimDisk`] — a discrete-event disk device. Each read costs a seek
//!   plus rotational latency when the head moves between files, and a
//!   transfer time proportional to the bytes read. The disk serves one
//!   request at a time and charges the full service time to the owning
//!   container at completion ([`rescon::ContainerTable::charge_disk`]), so
//!   that the sum of per-container disk time equals the disk's busy time
//!   exactly.
//! - [`IoSched`] — the dispatch discipline for queued requests.
//!   [`FifoIoSched`] models an unmodified kernel: requests leave in arrival
//!   order, so one container's deep queue delays everyone. [`ShareIoSched`]
//!   dispatches by per-container virtual time weighted by
//!   [`rescon::ContainerTable::effective_share`], giving each container its
//!   guaranteed fraction of disk bandwidth under contention.
//! - [`BufferCache`] — a whole-file buffer cache whose resident bytes are
//!   charged to the owning container's memory counter via
//!   [`rescon::ContainerTable::charge_mem`]. A container at its memory
//!   limit evicts its own least-recently-used files rather than a
//!   neighbour's; global pressure evicts the globally least-recent file.

pub mod cache;
pub mod disk;
pub mod iosched;

pub use cache::{BufferCache, CacheOutcome};
pub use disk::{Completion, DiskRequest, ReqId, SimDisk};
pub use iosched::{FifoIoSched, IoSched, QueuedRequest, ShareIoSched};
