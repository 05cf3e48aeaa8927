//! `ftl-chaos` — a seeded network-fault proxy for end-to-end chaos runs.
//!
//! A TCP man-in-the-middle that sits between `ftl-loadgen` (or any
//! client) and `ftl-serve` and executes a *reproducible* fault plan:
//!
//! - **Connection resets** — immediate (before a byte flows) or after a
//!   seeded byte count in a seeded direction, which lands mid-frame or
//!   mid-response often enough to exercise every torn-read path.
//! - **Black holes** — the connection is accepted and reads forever, but
//!   nothing is ever forwarded upstream; only a client-side deadline
//!   gets a caller out.
//! - **Garbage injection** — a burst of seeded bytes spliced into one
//!   direction, desyncing the peer's framing.
//! - **Partial/split writes** — frames forwarded in tiny chunks with
//!   delays between them, so readers see every prefix length.
//! - **Byte-rate throttling** — a crude token-less rate limit, for slow
//!   clients and slow servers.
//!
//! # Determinism
//!
//! Like `ftl-engine::inject`, every decision derives from a single
//! [`PlanConfig::seed`] through `ftl_seeded`'s keyed PRF — per-connection
//! sub-seeds are drawn by connection index (accept order), and each roll
//! (fault kind, direction, byte position, garbage content, shaping) uses
//! its own domain tag. Given the same seed, connection *k* always gets
//! the same [`ConnPlan`], so a failing chaos run replays exactly. The
//! accept *order* under concurrency is the only nondeterministic input;
//! plans are a pure function of that order.
//!
//! # Accounting
//!
//! Faults *fired* (not merely planned — a reset planned at byte 200 on a
//! 40-byte conversation never fires) are counted in the handle's
//! [`ChaosReport`], the one place a run's injected faults are read from.
//! The chaos acceptance scenario (`crates/server/tests/chaos_e2e.rs`)
//! reconciles it against the client side's retry accounting.
//!
//! ```no_run
//! use ftl_chaos::{ChaosProxy, PlanConfig};
//!
//! let cfg = PlanConfig {
//!     seed: 42,
//!     reset_midstream_pm: 100, // 10% of connections reset mid-stream
//!     split_pm: 500,           // half run under split writes
//!     ..PlanConfig::default()
//! };
//! let proxy = ChaosProxy::spawn(
//!     "127.0.0.1:0",
//!     "127.0.0.1:7000".parse().unwrap(),
//!     cfg,
//! )
//! .unwrap();
//! // point clients at proxy.local_addr() ...
//! let report = proxy.shutdown();
//! assert!(report.connections >= report.faults_fired());
//! ```

#![forbid(unsafe_code)]

mod plan;
mod proxy;

pub use plan::{ConnFault, ConnPlan, Direction, PlanConfig, Shaping};
pub use proxy::{ChaosHandle, ChaosProxy, ChaosReport, ChaosStats};
