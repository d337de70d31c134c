//! # axml-net — TCP transport for Active XML peers
//!
//! The paper's system (Sec. 7) is a *peer*: a daemon whose Schema
//! Enforcement module intercepts every outbound and inbound message. This
//! crate provides the network substrate that turns the in-process peer of
//! `axml-peer` into such a daemon, using nothing but `std`:
//!
//! * [`wire`] — length-prefixed frames carrying SOAP envelopes, a
//!   versioned handshake, request ids, and typed retryable/non-retryable
//!   [`wire::WireFault`]s (see DESIGN.md §2.1 for the frame layout);
//! * [`conn`] — the per-connection protocol as a sans-IO state machine
//!   ([`Connection`]): handshake, chunk reassembly, inline stats, Busy
//!   admission and every connection-level fault with its metrics, fed
//!   decoded frames and read-side errors, emitting reply bytes, a
//!   close verdict and work;
//! * [`server`] — the daemon: a fixed-size worker pool over a bounded
//!   in-flight queue (backpressure by retryable `Busy` faults),
//!   per-connection read/write timeouts, graceful panic-reporting
//!   shutdown; two TCP engines behind one [`server::IoMode`] knob, both
//!   hosting the same [`Connection`] core: blocking reader threads, or
//!   sharded epoll/kqueue readiness loops ([`frames`] does the
//!   partial-read reassembly) for 10k+ connections;
//! * [`client`] — a pooled connection client with connect/read timeouts,
//!   a total per-call deadline spanning retries, and bounded
//!   retry-with-backoff driven by deterministic jitter from
//!   `axml_support::rng`;
//! * [`transport`] — the client's pluggable byte-stream layer
//!   ([`Transport`] / [`Duplex`]), with real TCP as the default and the
//!   deterministic simulator (`axml-sim`) as the other implementation.
//!   It is client-only: the daemon listens on TCP directly.
//!
//! The crate is transport only: it moves opaque envelopes and knows
//! nothing about schemas or rewriting. `axml-peer::NetPeer` plugs the
//! enforcement module in as the server's [`server::Handler`].

#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod frames;
mod poll_server;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{ClientConfig, ClientError, NetClient};
pub use conn::{Admission, Connection, Protocol, Work};
pub use frames::{ChunkAssembler, ChunkProgress, FrameDecoder};
pub use server::{Handler, IoMode, NetServer, ServerConfig, ServerError, ServerStats};
pub use transport::{Duplex, TcpTransport, Transport};
pub use wire::{FaultCode, WireError, WireFault, CAP_CHUNKED, VERSION};
