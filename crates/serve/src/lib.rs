//! `rtcac-serve` — a resident admission service over a small binary
//! wire protocol.
//!
//! Everything before this crate decided admission *inside one process*:
//! the serial [`rtcac_signaling::Network`], the concurrent
//! [`rtcac_engine::AdmissionEngine`], its batch pool. This crate puts
//! a socket in front of that machinery, because the paper's CAC is a
//! *service* switches call into, not a library linked into every
//! terminal:
//!
//! * [`wire`] — length-prefixed frames (`[u32 len][version][type]
//!   [body]`) with typed decode errors; oversized, truncated, and
//!   unknown-version input is refused *before* allocation, never
//!   panicked on.
//! * [`proto`] — the request/response vocabulary: SETUP, SETUP-MCAST,
//!   RELEASE, QUERY, DRAIN, STATS and their replies.
//! * [`server`] — [`Server`]: a `TcpListener` accept loop with one
//!   session thread per client. Sessions *own* the connections they
//!   admit; when a client dies mid-burst, its session releases every
//!   surviving reservation, so client death can never leak switch
//!   capacity. DRAIN flips the engine into drain mode and the shutdown
//!   path proves cleanliness (orphan audit + guarantee verification)
//!   in its [`DrainSummary`].
//! * [`client`] — a blocking [`Client`] sharing the same codec, with a
//!   pipelined raw path (server sessions dispatch serially, so replies
//!   are FIFO).
//! * [`metrics_http`] — a tiny HTTP exposition endpoint (`/metrics`,
//!   `/metrics.json`, `/healthz`) for Prometheus-style scrapes.
//! * [`load`] — an open-loop multi-threaded generator
//!   ([`run_load`]) measuring setup latency from *scheduled* send
//!   times, immune to coordinated omission.

#![forbid(unsafe_code)]

pub mod client;
pub mod load;
pub mod metrics_http;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::Client;
pub use load::{run_load, run_soak, LoadConfig, LoadReport, SoakObserver, SoakReport, SoakSample};
pub use metrics_http::http_get;
pub use proto::{ErrorCode, Request, Response};
pub use server::{DrainSummary, ServeConfig, ServeError, Server};
pub use wire::{WireError, MAX_PAYLOAD, PROTO_VERSION};
