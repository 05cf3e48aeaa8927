//! FT connectivity labels via **cycle space sampling** (Section 3.1,
//! Theorem 3.6; technique of Pritchard–Thurimella \[PT11\]).
//!
//! The scheme assigns each edge a `b = f + c·log n`-bit string `φ(e)` such
//! that for any edge subset `F′`, `⊕_{e∈F′} φ(e) = 0` iff `F′` is an induced
//! edge cut (with failure probability `2^{-b}` otherwise) — Lemma 1.7. An
//! edge label additionally carries the ancestry labels of its endpoints and
//! a tree-membership bit; a vertex label is just its ancestry label.
//!
//! Decoding (given the labels of `s`, `t` and `F` and *nothing else*) checks
//! whether some `F′ ⊆ F` is an induced edge cut separating `s` from `t`
//! (Corollary 3.4). [`decode()`] answers Lemma 3.5's question through one
//! null-space elimination of the `φ` columns per fault set and a parity
//! test per query ([`batch`]); the serving engine runs the same
//! [`EliminatedFaults`]. [`decode_brute_force`] enumerates subsets
//! (Section 3.1.2) and is kept as the differential oracle.
//!
//! The scheme assumes a **connected** input graph; `ftl-core` wraps it with
//! per-component application for general graphs, as prescribed in the paper.
//!
//! Labels are built as one flat `φ` bank (a [`ftl_gf2::BitMatrix`] with
//! one row per edge id) plus ancestry arrays, by a serial pass whose cost
//! is a handful of allocations and `O((m + n)·b/64)` words of XOR; see
//! [`circulation`]. Both schemes, static and live, keep the bank as it is
//! and assemble a [`CycleSpaceEdgeLabel`] only on request.
//!
//! # Example
//!
//! ```
//! use ftl_cycle_space::CycleSpaceScheme;
//! use ftl_graph::{generators, EdgeId, VertexId};
//! use ftl_seeded::Seed;
//!
//! let g = generators::cycle(6);
//! let scheme = CycleSpaceScheme::label(&g, 2, Seed::new(1)).unwrap();
//! let s = scheme.vertex_label(VertexId::new(0));
//! let t = scheme.vertex_label(VertexId::new(3));
//! // Two faults cut the cycle between 0 and 3:
//! let f = [scheme.edge_label(EdgeId::new(1)), scheme.edge_label(EdgeId::new(4))];
//! assert!(!ftl_cycle_space::decode(&s, &t, &f));
//! // One fault leaves them connected:
//! let f = [scheme.edge_label(EdgeId::new(1))];
//! assert!(ftl_cycle_space::decode(&s, &t, &f));
//! ```
//!
//! See `README.md` at the repo root for where this scheme sits in the
//! full pipeline (labeling → freeze → engine → server), and
//! `docs/static-analysis.md` for the determinism rule this crate is
//! held to.

#![forbid(unsafe_code)]

pub mod batch;
pub mod circulation;
pub mod decode;
pub mod labeling;
pub mod live;
pub mod wire;

pub use batch::{EliminatedFaults, EliminationScratch};
pub use decode::{decode, decode_brute_force, decode_with_certificate};
pub use labeling::{CycleSpaceEdgeLabel, CycleSpaceScheme, CycleSpaceVertexLabel};
pub use live::{LiveCycleSpace, LiveDelta, LiveError};
