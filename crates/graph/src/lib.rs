//! Graph substrate for the Dory–Parter PODC'21 reproduction.
//!
//! This crate provides everything the labeling and routing schemes need from
//! a graph library, built from scratch:
//!
//! * [`Graph`]: a weighted undirected multigraph whose adjacency lists define
//!   **port numbers** (the routing schemes address neighbors by port, exactly
//!   as in the paper's model), stored as one flat port array with per-vertex
//!   offsets.
//! * Rooted [`SpanningTree`]s with DFS pre/post intervals and depths.
//! * Traversals ([`traversal`]), shortest paths ([`shortest_path`]),
//!   union-find ([`union_find::UnionFind`]), induced subgraphs
//!   ([`subgraph::InducedSubgraph`]).
//! * Workload [`generators`], including the lower-bound gadget of Theorem 1.6
//!   and a fat-tree-like datacenter topology used by the examples.
//!
//! # Example
//!
//! ```
//! use ftl_graph::{GraphBuilder, VertexId};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1);
//! b.add_edge(1, 2, 1);
//! b.add_edge(2, 3, 1);
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert!(ftl_graph::traversal::is_connected(&g));
//! ```
//!
//! See `README.md` at the repo root for how the substrate feeds the
//! labeling schemes and the workload generators used by the benches.

#![forbid(unsafe_code)]

pub mod error;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod shortest_path;
pub mod spanning_tree;
pub mod subgraph;
pub mod traversal;
pub mod union_find;

pub use error::GraphError;
pub use graph::{Edge, Graph, GraphBuilder};
pub use ids::{EdgeId, VertexId};
pub use spanning_tree::SpanningTree;
pub use subgraph::InducedSubgraph;
