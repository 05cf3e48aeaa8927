//! The full cycle-space labeling scheme (Section 3.1.1, Theorem 3.6).

use crate::circulation::assign_circulation_labels;
use ftl_gf2::BitVec;
use ftl_graph::{EdgeId, Graph, GraphError, SpanningTree, VertexId};
use ftl_labels::AncestryLabel;
use ftl_par::MIN_PARALLEL_LEN;
use ftl_seeded::Seed;

/// Default slack constant `c` in `b = f + c·log₂ n` (DESIGN.md S4).
pub const DEFAULT_SLACK: usize = 4;

/// The `φ` width `b = f + max(16, DEFAULT_SLACK·⌈log₂ n⌉)` for an
/// `n`-vertex graph against up to `f` faults — the one formula behind
/// [`CycleSpaceScheme::label`] and [`crate::LiveCycleSpace::new`]. The
/// slack is floored at 16 bits so the per-query failure probability stays
/// below 2^-16 even on tiny graphs.
pub(crate) fn default_bits(n: usize, f: usize) -> usize {
    let n = n.max(2);
    f + (DEFAULT_SLACK * (usize::BITS - (n - 1).leading_zeros()) as usize).max(16)
}

/// Label of a vertex: its ancestry label in the spanning tree
/// (`O(log n)` bits).
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct CycleSpaceVertexLabel {
    /// Ancestry label `ANC_T(v)`.
    pub anc: AncestryLabel,
}

/// Label of an edge: `(φ(e), ANC_T(u), ANC_T(v), tree-bit)` —
/// `O(f + log n)` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSpaceEdgeLabel {
    /// The `b`-bit cut-detection string of Lemma 1.7.
    pub phi: BitVec,
    /// Ancestry label of one endpoint.
    pub anc_u: AncestryLabel,
    /// Ancestry label of the other endpoint.
    pub anc_v: AncestryLabel,
    /// Whether the edge belongs to the spanning tree `T`.
    pub is_tree: bool,
}

impl CycleSpaceEdgeLabel {
    /// Label length in bits (`b + 4·⌈log 2n⌉ + 1`).
    pub fn bits(&self, max_time: u32) -> usize {
        self.phi.len() + 2 * AncestryLabel::bits(max_time) + 1
    }

    /// Whether this (tree) edge lies on the tree path from the root to the
    /// vertex labeled `x` — true iff both endpoints are ancestors of `x`.
    pub fn on_root_path_of(&self, x: &AncestryLabel) -> bool {
        self.is_tree && self.anc_u.is_ancestor_of(x) && self.anc_v.is_ancestor_of(x)
    }

    /// The ancestry interval of the *deeper* endpoint of a tree edge: all
    /// a fault contributes to a query. A tree edge lies on the root–`x`
    /// path iff **both** endpoints are ancestors of `x`, and the endpoint
    /// intervals of a tree edge nest, so [`Self::on_root_path_of`]
    /// collapses to one containment test against the child's interval.
    /// Non-tree edges (and the impossible case of disjoint endpoint
    /// intervals, which no genuine tree edge produces) yield `None`,
    /// matching `on_root_path_of` returning `false` everywhere.
    pub fn tree_child_interval(&self) -> Option<(u32, u32)> {
        if !self.is_tree {
            return None;
        }
        if self.anc_u.is_ancestor_of(&self.anc_v) {
            Some((self.anc_v.pre, self.anc_v.post))
        } else if self.anc_v.is_ancestor_of(&self.anc_u) {
            Some((self.anc_u.pre, self.anc_u.post))
        } else {
            None
        }
    }
}

/// The labeling side of the cycle-space scheme: holds every vertex/edge
/// label of one (connected) graph.
///
/// Label access is by id; the decoder ([`crate::decode()`]) needs only the
/// labels of the query triple `⟨s, t, F⟩`.
#[derive(Debug, Clone)]
pub struct CycleSpaceScheme {
    vertex_labels: Vec<CycleSpaceVertexLabel>,
    edge_labels: Vec<CycleSpaceEdgeLabel>,
    b: usize,
    max_time: u32,
}

impl CycleSpaceScheme {
    /// Labels a connected graph against up to `f` faults, with
    /// `b = f + DEFAULT_SLACK·⌈log₂ n⌉` bits of cut-detection material.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if `graph` is not connected.
    pub fn label(graph: &Graph, f: usize, seed: Seed) -> Result<Self, GraphError> {
        Self::label_with_bits(graph, default_bits(graph.num_vertices(), f), seed)
    }

    /// Labels with an explicit bit budget `b` (Lemma 1.7's parameter).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if `graph` is not connected.
    pub fn label_with_bits(graph: &Graph, b: usize, seed: Seed) -> Result<Self, GraphError> {
        let root = VertexId::new(0);
        let tree = SpanningTree::bfs_tree(graph, root)?;
        Self::label_with_tree(graph, &tree, b, seed)
    }

    /// Labels with a caller-supplied spanning tree (used by schemes layering
    /// on top, which fix the tree themselves).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the tree does not span the
    /// graph.
    pub fn label_with_tree(
        graph: &Graph,
        tree: &SpanningTree,
        b: usize,
        seed: Seed,
    ) -> Result<Self, GraphError> {
        if tree.num_tree_vertices() != graph.num_vertices() {
            return Err(GraphError::Disconnected);
        }
        let phi = assign_circulation_labels(graph, tree, &[], b, seed.derive(0xC1C));
        // Per-vertex and per-edge label assembly is embarrassingly parallel
        // (see `ftl-par`).
        let vertex_labels = ftl_par::par_map_indexed(graph.num_vertices(), MIN_PARALLEL_LEN, |i| {
            CycleSpaceVertexLabel {
                anc: AncestryLabel::of(tree, VertexId::new(i)),
            }
        });
        let edge_labels = ftl_par::par_map_indexed(graph.num_edges(), MIN_PARALLEL_LEN, |i| {
            let id = EdgeId::new(i);
            let e = graph.edge(id);
            CycleSpaceEdgeLabel {
                phi: phi[i].clone(),
                anc_u: AncestryLabel::of(tree, e.u()),
                anc_v: AncestryLabel::of(tree, e.v()),
                is_tree: tree.is_tree_edge(id),
            }
        });
        Ok(CycleSpaceScheme {
            vertex_labels,
            edge_labels,
            b,
            max_time: tree.max_time(),
        })
    }

    /// The label of vertex `v`.
    pub fn vertex_label(&self, v: VertexId) -> CycleSpaceVertexLabel {
        self.vertex_labels[v.index()]
    }

    /// The label of edge `e`.
    pub fn edge_label(&self, e: EdgeId) -> CycleSpaceEdgeLabel {
        self.edge_labels[e.index()].clone()
    }

    /// The cut-detection bit budget `b`.
    pub fn bits_b(&self) -> usize {
        self.b
    }

    /// Number of labeled vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of labeled edges.
    pub fn num_edges(&self) -> usize {
        self.edge_labels.len()
    }

    /// Maximum DFS time (for bit accounting).
    pub fn max_time(&self) -> u32 {
        self.max_time
    }

    /// Length of the longest vertex label, in bits (Theorem 3.6:
    /// `O(log n)`).
    pub fn vertex_label_bits(&self) -> usize {
        AncestryLabel::bits(self.max_time)
    }

    /// Length of the longest edge label, in bits (Theorem 3.6:
    /// `O(f + log n)`).
    pub fn edge_label_bits(&self) -> usize {
        self.edge_labels
            .iter()
            .map(|l| l.bits(self.max_time))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;

    #[test]
    fn label_sizes_track_f_and_n() {
        let g = generators::grid(4, 4);
        let small = CycleSpaceScheme::label(&g, 1, Seed::new(1)).unwrap();
        let big = CycleSpaceScheme::label(&g, 32, Seed::new(1)).unwrap();
        assert_eq!(big.edge_label_bits() - small.edge_label_bits(), 31);
        assert_eq!(small.vertex_label_bits(), big.vertex_label_bits());
    }

    #[test]
    fn disconnected_graph_rejected() {
        let mut b = ftl_graph::GraphBuilder::new(4);
        b.add_unit_edge(0, 1);
        b.add_unit_edge(2, 3);
        let g = b.build();
        assert!(matches!(
            CycleSpaceScheme::label(&g, 2, Seed::new(0)),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn on_root_path_classification() {
        let g = generators::path(4); // rooted at 0
        let scheme = CycleSpaceScheme::label(&g, 2, Seed::new(5)).unwrap();
        let t3 = scheme.vertex_label(VertexId::new(3)).anc;
        let t1 = scheme.vertex_label(VertexId::new(1)).anc;
        // Edge (0,1) lies on the root->3 path and on the root->1 path.
        let e01 = scheme.edge_label(EdgeId::new(0));
        assert!(e01.on_root_path_of(&t3));
        assert!(e01.on_root_path_of(&t1));
        // Edge (2,3) lies on root->3 but not root->1.
        let e23 = scheme.edge_label(EdgeId::new(2));
        assert!(e23.on_root_path_of(&t3));
        assert!(!e23.on_root_path_of(&t1));
    }

    /// The child interval reproduces `on_root_path_of` for every edge and
    /// every vertex.
    #[test]
    fn tree_child_interval_reproduces_on_root_path_of() {
        let g = generators::grid(4, 4);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(5)).unwrap();
        for (e, _) in g.edge_ids() {
            let label = scheme.edge_label(e);
            assert_eq!(label.tree_child_interval().is_some(), label.is_tree);
            for x in g.vertices() {
                let anc = scheme.vertex_label(x).anc;
                let by_interval = label
                    .tree_child_interval()
                    .is_some_and(|(pre, post)| pre <= anc.pre && anc.post <= post);
                assert_eq!(by_interval, label.on_root_path_of(&anc), "{e:?} vs {x:?}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::cycle(8);
        let a = CycleSpaceScheme::label(&g, 3, Seed::new(9)).unwrap();
        let b = CycleSpaceScheme::label(&g, 3, Seed::new(9)).unwrap();
        for (id, _) in g.edge_ids() {
            assert_eq!(a.edge_label(id), b.edge_label(id));
        }
    }

    #[test]
    fn explicit_bit_budget_respected() {
        let g = generators::cycle(5);
        let s = CycleSpaceScheme::label_with_bits(&g, 17, Seed::new(2)).unwrap();
        assert_eq!(s.bits_b(), 17);
        assert_eq!(s.edge_label(EdgeId::new(0)).phi.len(), 17);
    }
}
