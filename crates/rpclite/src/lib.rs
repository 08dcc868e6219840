//! # rpclite — gRPC-style synchronous unary RPC
//!
//! The paper interconnects Plasma stores with gRPC 1.38 configured in
//! synchronous, unary mode. gRPC itself is unavailable here, so this crate
//! reimplements exactly the slice the system needs:
//!
//! * a protobuf-style wire format ([`wire`]: varints, ZigZag, tagged
//!   length-delimited fields),
//! * a correlation-id-tagged request/response envelope ([`envelope`]),
//! * a **pipelined** client ([`RpcClient`]) that keeps many requests in
//!   flight on one connection — [`RpcClient::call`] blocks only its own
//!   caller, and [`RpcClient::call_async`] returns a [`PendingCall`] to
//!   wait on later — and optionally charges a modeled network round trip
//!   ([`NetCost`]) to the simulation clock, with concurrent calls
//!   overlapping their round trips as on a real wire,
//! * a server ([`serve`]) with a dedicated accept thread and concurrent
//!   per-connection servicing (responses return in completion order);
//!   calls a service accepts as inline run on the connection thread
//!   itself, with no handler thread spawned.
//!
//! Transports come from the [`ipc`] crate, so services run identically over
//! Unix domain sockets or in-process channels.
//!
//! ## Example
//!
//! ```
//! use bytes::Bytes;
//! use ipc::InprocHub;
//! use rpclite::{serve, RpcClient, Service, Status};
//! use std::sync::Arc;
//!
//! let hub = InprocHub::new();
//! let listener = hub.bind("greeter").unwrap();
//! let service = Arc::new(|_method: u32, name: Bytes| -> Result<Bytes, Status> {
//!     let mut reply = b"hello ".to_vec();
//!     reply.extend_from_slice(&name);
//!     Ok(reply.into())
//! });
//! let _server = serve(Box::new(listener), service);
//!
//! let client = RpcClient::new(Box::new(hub.connect("greeter").unwrap()));
//! let reply = client.call(1, Bytes::from_static(b"plasma")).unwrap();
//! assert_eq!(&reply[..], b"hello plasma");
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod envelope;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{ClientMetrics, Connector, NetCost, PendingCall, RpcClient, RpcError};
pub use envelope::{Request, Response};
pub use server::{serve, ServerHandle, ServerMetrics};
pub use service::{MethodId, Service, Status, StatusCode};
pub use wire::{MsgDec, MsgEnc, WireError};
