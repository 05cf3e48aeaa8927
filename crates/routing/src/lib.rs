//! Compact **forbidden-set** and **fault-tolerant routing** schemes
//! (Section 5; Theorems 5.3, 5.5, 5.8 and the lower bound Theorem 1.6).
//!
//! * [`tree_routing`] — interval routing on trees with heavy-light
//!   decomposition (\[TZ01\], Fact 5.1), extended with the Γ-block port
//!   information of Claim 5.6 that load-balances edge-label storage.
//! * [`forbidden_set`] — routing when the faulty edges are known to the
//!   source (Theorem 5.3): stretch `(8k−2)(|F|+1)`.
//! * [`ft_routing`] — routing when faults are *unknown* and discovered on
//!   contact (Theorems 5.5/5.8): phases over distance scales × at most
//!   `|F|+1` trial iterations per phase, `f+1` independent sketch copies,
//!   stretch `32k(|F|+1)²`, per-vertex tables `Õ(f³·n^{1/k})`.
//! * [`baselines`] — the executable full-information baseline and analytic
//!   evaluators for the prior-work rows of Table 1.
//! * [`lower_bound`] — the Ω(f) stretch lower-bound gadget experiment
//!   (Theorem 1.6 / Figure 4).
//!
//! All routing here is **simulated at message granularity**: a cursor moves
//! across real graph edges, faulty edges are discovered only upon reaching
//! an endpoint, every traversed edge weight is charged (including reversals
//! and Γ-block detours), and header sizes are accounted in bits.
//!
//! One deliberate modeling choice (listed in the README's "Substitutions"):
//! port numbers are local to each cover-tree cluster (the induced
//! subgraph's adjacency order) rather than global. This is a port
//! *renaming* per cluster and changes no size bound by more than the
//! `O(log n)` bits ports already cost.
//!
//! Cover trees (routing tables plus `f + 1` sketch copies each) are
//! preprocessed one tree per core via [`ftl_par`]; the tables do not depend
//! on the core count.
//!
//! See `README.md` at the repo root for the crate map and for which
//! paper-figure binaries (`crates/bench/src/bin/`) exercise the routing
//! schemes.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod forbidden_set;
pub mod ft_routing;
pub mod lower_bound;
pub mod network;
pub mod tree_routing;

pub use ft_routing::{FtRoutingScheme, RoutingParams};
pub use network::RoutingOutcome;
pub use tree_routing::{LabelCodec, NextHop, TreeRouting};
