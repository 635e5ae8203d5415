//! # dlbench-serve
//!
//! Online inference serving for the DLBench suite — the deployment-side
//! complement to the paper's offline training benchmarks. The pipeline:
//!
//! ```text
//! HTTP request ──▶ ModelRegistry ──▶ MicroBatcher (bounded queue)
//!                                        │  flush at once; max-wait only
//!                                        │  while backlogged
//!                                        ▼
//!                                  worker thread: one batched forward
//!                                        │
//!      /metrics ◀── ServeMetrics ◀───────┴──▶ per-request reply
//! ```
//!
//! * [`model::ModelRegistry`] serves multiple named models, each rebuilt
//!   from its framework personality's architecture spec and optionally
//!   warm-loaded from a `dlbench-nn` checkpoint.
//! * [`batcher::MicroBatcher`] coalesces concurrent requests into one
//!   batched forward pass of at most max-batch requests. It flushes at
//!   once when nothing else is queued and waits up to max-wait for
//!   stragglers only while backlogged.
//!   Batching is bit-transparent: batched predictions are identical to
//!   single-sample forwards (guarded by the suite's determinism tests).
//! * [`http`] is a dependency-free HTTP/1.1 server over
//!   `std::net::TcpListener` with `/predict/<model>`, `/healthz` and
//!   `/metrics` endpoints. Overload sheds with `503` + `Retry-After`
//!   (never a crash); shutdown drains in-flight requests.
//! * [`metrics`] holds the per-model [`ServeMetrics`] and the suite's
//!   shared latency [`Histogram`], which the load generator and the
//!   fleet simulator use too.
//! * [`loadgen`] drives a server closed-loop or open-loop (fixed arrival
//!   rate) and reports client-side p50/p95/p99;
//!   [`loadgen::serve_and_drive`] serves one model on an ephemeral port
//!   and drives it, which is how run-spec serve cells execute.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod model;

pub use batcher::{BatchConfig, MicroBatcher, Prediction};
pub use http::{serve, RunningServer};
pub use loadgen::{LoadConfig, LoadMode, LoadReport};
pub use metrics::{Histogram, HistogramSummary, ServeMetrics};
pub use model::{ModelDtype, ModelRegistry, ModelSpec, ServedModel};

/// Errors surfaced by the serving layer. Each maps onto a well-defined
/// HTTP status so overload and misuse degrade gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is full — load was shed (HTTP 503 with
    /// `Retry-After`).
    QueueFull,
    /// The server is draining and no longer accepts work (HTTP 503).
    Draining,
    /// Request payload malformed (HTTP 400).
    BadInput(String),
    /// No model registered under the requested name (HTTP 404).
    UnknownModel(String),
    /// A checkpoint failed to load at registration time.
    Checkpoint(String),
    /// Transport-level failure (client side or socket I/O).
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue full (load shed)"),
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::BadInput(m) => write!(f, "bad input: {m}"),
            ServeError::UnknownModel(m) => write!(f, "unknown model: {m}"),
            ServeError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            ServeError::Io(m) => write!(f, "I/O error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
