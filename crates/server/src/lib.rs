//! `ftl-server` — the batched TCP serving front end.
//!
//! The engine answers fault-tolerant connectivity queries in batches; this
//! crate puts a socket in front of it. Many clients ask about a few
//! distinct fault sets (faults change rarely, queries arrive constantly).
//! The server collects requests from *all* connections in a short
//! accumulation window and answers each with one engine call; the
//! engine's elimination cache, keyed by the canonical fault set, makes
//! every request after the first that names a set cost an `Arc` clone
//! instead of a GF(2) elimination, however the set is ordered and
//! whichever connection sent it. The window's own job is the write: each
//! connection gets its answers in one coalesced write per window.
//!
//! The protocol and request lifecycle are specified in `docs/serving.md`;
//! the failure-mode catalogue lives in `docs/robustness.md`. In short:
//!
//! * [`frame`] — the envelope codec. Each message is a `u32` length
//!   prefix followed by one [`ftl_labels::wire`] record (kinds
//!   `QueryRequest` / `QueryResponse`), so the serving path inherits the
//!   wire format's header versioning and corruption rejection.
//! * [`server`] — the front end itself: a blocking accept loop (no async
//!   runtime), one reader thread per connection whose requests each
//!   carry the connection's [`conn::ConnWriter`], the
//!   accumulation-window batcher with a bounded
//!   pending-query budget (admission control answers `ServerBusy` instead
//!   of queueing unboundedly), and executor threads that pin an epoch per
//!   request via `over_epochs` engines and answer each connection with
//!   one coalesced write per window. Shutdown drains in-flight
//!   windows before the executors exit.
//! * [`stats`] — per-tenant counters (requests, queries, rejects) with
//!   nearest-rank p50/p99 service latency, plus server-wide batch and
//!   error counters.
//! * [`client`] — the resilient client: per-request deadlines, capped
//!   exponential backoff with seeded jitter, reconnect-and-retry (safe:
//!   queries are pure and responses are request-id-keyed).
//! * [`loadgen`] — a loopback load-generating client with a BFS
//!   [`loadgen::ConnectivityOracle`], used by the `ftl-loadgen` binary
//!   and the loopback tests (`tests/loopback.rs`, whose ignored
//!   `loopback_throughput_stays_above_floor` is the release-mode
//!   queries/s floor). Built on
//!   [`client::ResilientClient`], with a global run deadline so a stalled
//!   server can never hang a run.
//! * [`spec`] — the tiny graph/fault-set spec language (`grid:16x16`,
//!   `er:1024:8`) that lets `ftl-serve` and `ftl-loadgen` agree on a
//!   topology from the command line.
//!
//! Like `ftl-engine`, the crate is panic-free on the serving path, holds
//! no lock outside the allowed sites in `locked.rs` and the batcher, and
//! hashes deterministically — all enforced by clippy (see
//! `docs/static-analysis.md`).

#![forbid(unsafe_code)]

pub mod batcher;
pub mod client;
pub mod conn;
pub mod frame;
pub mod loadgen;
mod locked;
pub mod server;
pub mod spec;
pub mod stats;

pub use client::{
    AttemptError, AttemptLog, BackoffConfig, BackoffSchedule, ClientConfig, QueryError, QueryReply,
    ResilientClient,
};
pub use frame::{
    FrameError, MetricsRequestFrame, MetricsResponseFrame, QueryRequestFrame, QueryResponseFrame,
    ResponseStatus, MAX_FAULTS_PER_REQUEST, MAX_FRAME_BYTES_DEFAULT, MAX_METRICS_BYTES,
    MAX_QUERIES_PER_REQUEST,
};
pub use loadgen::{
    parse_stage_table, run_loadgen, scrape_metrics, ConnectivityOracle, LoadgenConfig,
    LoadgenReport, StageRow,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use spec::{derive_fault_sets, parse_graph_spec};
pub use stats::{DropReason, StatsSnapshot, TenantSnapshot};
