//! Simulated TCP/IP subsystem for the resource-container kernel.
//!
//! This crate models exactly the slice of a network stack that the paper's
//! evaluation exercises:
//!
//! - [`addr`]: IPv4-style addresses and the paper's new `sockaddr`
//!   namespace — `<template-address, CIDR-mask>` filters that let several
//!   listening sockets share a port while segregating clients (§4.8).
//! - [`packet`]: SYN / SYN-ACK / ACK / DATA / FIN packets on flows.
//! - [`stack`]: the socket table — listening sockets with SYN and accept
//!   queues (with overflow counting and drop notification, §5.7),
//!   established connections with a simplified TCP state machine, and
//!   longest-prefix-match demultiplexing.
//! - [`queues`]: per-principal pending-packet queues for LRP-style lazy
//!   protocol processing (§4.7): packets are classified early, then
//!   processed in priority order of their resource principal and charged
//!   to it.
//! - [`discipline`]: the three processing disciplines compared in the
//!   paper — eager interrupt-level processing (classic BSD), LRP with
//!   per-process queues, and resource-container queues.
//! - [`txsched`]: the transmit side — a finite-bandwidth link model with
//!   FIFO and hierarchical weighted-fair queueing disciplines driven by
//!   the containers' network QoS attributes (§4.1).
//!
//! The crate is *passive*: it performs state transitions and reports
//! [`stack::NetEvent`]s; all CPU-cost charging and scheduling decisions
//! happen in the `simos` kernel that drives it.

pub mod addr;
pub mod discipline;
pub mod packet;
pub mod queues;
pub mod stack;
pub mod txsched;

pub use addr::{CidrFilter, IpAddr};
pub use discipline::NetDiscipline;
pub use packet::{rss_cpu, FlowKey, Packet, PacketKind};
pub use queues::PendingQueues;
pub use stack::{ConnState, Demux, NetEvent, NetStack, SockId, Socket, SocketKind};
pub use txsched::{Dispatch, FifoLink, LinkParams, LinkSched, QdiscKind, WfqLink};
