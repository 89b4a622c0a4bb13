//! Network serving for Mesorasi point-cloud inference.
//!
//! The paper's end-to-end framing (HgPCN-style sensor → inference
//! pipelines, §VIII) assumes inference sits behind a stream of frames
//! arriving on a clock it does not control. This crate provides that
//! boundary: a long-lived TCP [`Server`] speaking a length-prefixed
//! binary [`protocol`], a [`scheduler`] with admission control in
//! front of a [`mesorasi_networks::Session`] pool, and a blocking
//! [`Client`] on the other side.
//!
//! Design pillars, in scheduler terms:
//!
//! - **One request, one dispatch** — a dispatcher pops one request and
//!   runs it through
//!   [`Session::infer`](mesorasi_networks::Session::infer); a panic in
//!   inference becomes a typed [`ErrorCode::Unavailable`] reply to that
//!   request alone.
//! - **Deterministic load shedding** — the queue is bounded; overflow
//!   sheds the *oldest* request and tells its client with a typed
//!   [`ErrorCode::Shed`] error. Nothing is ever dropped silently.
//! - **Zero dependencies** — `std` networking only; the wire format is a
//!   hand-rolled length-prefixed binary layout (see [`protocol`]).
//!
//! ```no_run
//! use mesorasi_networks::{NetworkKind, SessionBuilder};
//! use mesorasi_serve::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let session = Arc::new(SessionBuilder::from_kind(NetworkKind::DgcnnClassification).build());
//! let server = Server::spawn(session, ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! # let cloud = mesorasi_pointcloud::PointCloud::new();
//! let inference = client.infer(0, &cloud)?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientError, Response};
pub use protocol::{
    ErrorCode, Frame, ProtocolError, ServerStats, MAX_FRAME_BYTES, MAX_POINTS, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
