//! `sadp-serve`: a zero-dependency TCP job daemon for the SADP router.
//!
//! The daemon (`sadp serve`) accepts routing jobs over a newline-delimited
//! JSON protocol, queues them by priority, and advances each one as a
//! resumable [`sadp_core::RoutingSession`] in bounded slices — so many
//! jobs share a small worker pool fairly, every job can be cancelled and
//! later resumed from its `SADPCKPT v5` checkpoint, and a restarted
//! daemon picks queued and in-flight work back up from its state
//! directory with byte-identical results.
//!
//! The crate uses only `std` (`std::net` sockets, `std::thread` workers)
//! and the workspace's one JSON module, [`sadp_obs::json`], re-exported
//! as [`json`], which parses every request and writes every response.
//!
//! - [`protocol`] documents the wire protocol.
//! - [`server`] implements the daemon ([`serve`]) and a line client
//!   ([`Client`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;

pub use json::Json;
pub use protocol::Request;
pub use sadp_obs::json;
pub use server::{serve, Client, ServeConfig, ServerHandle};
