//! Simulated HTTP server applications for the resource-containers
//! reproduction.
//!
//! This crate provides the application side of the paper's evaluation — a
//! family of web-server state machines running on the `simos` kernel:
//!
//! - [`EventDrivenServer`]: the single-process event-driven server derived
//!   from thttpd used throughout §5, configurable to use `select()` or the
//!   scalable event API (§5.5), to create a resource container per
//!   connection (§4.8, §5.4), to segregate client classes onto filtered
//!   listen sockets with per-class containers (§5.5), to sandbox CGI work
//!   under a parent container with a CPU limit (§5.6), and to isolate
//!   SYN-flood sources behind a priority-zero filtered listener when the
//!   kernel reports SYN drops (§5.7).
//! - [`ThreadPoolServer`]: the single-process multi-threaded model of
//!   Figure 3 — one kernel thread per connection from a pool, each thread
//!   resource-bound to its connection's container (§4.8, Figure 9).
//! - [`CgiWorker`]: the auxiliary CGI process — burns CPU, writes the
//!   response directly to the client connection, exits; under resource
//!   containers it runs bound to the request's container, which the server
//!   reparented under its CGI sandbox.
//!
//! The process-per-connection server of Figure 1 is not modelled: the
//! paper draws it but measures nothing on it.
//!
//! Requests and responses are modelled at the granularity the experiments
//! need: the request *kind* (static / keep-alive static / CGI) and a
//! document id are encoded in the request length (standing in for URL
//! parsing), and responses are byte counts.

pub mod cgi;
pub mod event_driven;
pub mod request;
pub mod stats;
pub mod threaded;

pub use cgi::CgiWorker;
pub use event_driven::{ClassSpec, EventApi, EventDrivenServer, FileBacking, ServerConfig};
pub use request::{decode_request, encode_request, ReqKind};
pub use stats::ServerStats;
pub use threaded::ThreadPoolServer;
