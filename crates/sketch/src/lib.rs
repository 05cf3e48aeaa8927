//! FT connectivity labels via **linear graph sketches** (Section 3.2,
//! Theorem 3.7; sketches of Ahn–Guha–McGregor \[AGM12\], layout following the
//! sensitivity oracles of Duan–Pettie \[DP17\]).
//!
//! Labels have `O(log³ n)` bits *independent of the number of faults*, and —
//! crucially for routing — the decoder outputs a succinct description of an
//! actual `s`–`t` path in `G \ F` (Lemma 3.17).
//!
//! Pipeline:
//!
//! 1. every edge gets an **extended identifier** ([`Eid`], Eq. (1)/(5)) that
//!    XOR-composes field-wise and self-validates against the seed `S_ID`;
//! 2. every vertex gets a [`Sketch`]: `L` independent basic units, each with
//!    `log m` geometric sampling levels whose cells hold the XOR of sampled
//!    incident edge identifiers (Eq. (2));
//! 3. tree edges additionally store the XOR-aggregated sketch of the subtree
//!    hanging below them, so a decoder can assemble the sketch of every
//!    component of `T \ F` (Claim 3.15), cancel the faulty edges, and run
//!    Borůvka phases purely on label material (Section 3.2.2).
//!
//! The scheme assumes a connected input graph; `ftl-core` handles general
//! graphs component-wise.
//!
//! # Features
//!
//! * `parallel` (default) — build extended identifiers, per-vertex sketches,
//!   and vertex labels on all cores via [`ftl_par`]; disable
//!   (`--no-default-features`) for a strictly single-threaded build.
//!   Results are identical either way.
//!
//! # Example
//!
//! ```
//! use ftl_sketch::{SketchParams, SketchScheme};
//! use ftl_graph::{generators, EdgeId, VertexId};
//! use ftl_seeded::Seed;
//!
//! let g = generators::cycle(8);
//! let scheme = SketchScheme::label(&g, &SketchParams::for_graph(&g), Seed::new(7)).unwrap();
//! let s = scheme.vertex_label(VertexId::new(0));
//! let t = scheme.vertex_label(VertexId::new(4));
//! let faults = [scheme.edge_label(EdgeId::new(0))];
//! let out = ftl_sketch::decode(&s, &t, &faults);
//! assert!(out.connected);
//! assert!(out.path.is_some());
//! ```
//!
//! See `README.md` at the repo root for how this scheme compares to the
//! cycle-space one, and `docs/static-analysis.md` for the determinism
//! rule its hashing is held to.

#![forbid(unsafe_code)]

pub mod decode;
pub mod eid;
pub mod labeling;
pub mod sketch;
pub mod wire;

pub use decode::{decode, DecodeOutcome, PathSegment, PathVertex, SuccinctPath};
pub use eid::Eid;
pub use labeling::{SketchEdgeLabel, SketchScheme, SketchVertexLabel, TreeEdgeInfo, VertexAux};
pub use sketch::{SampledLevels, Sketch, SketchParams};
