//! The full cycle-space labeling scheme (Section 3.1.1, Theorem 3.6).
//!
//! A [`CycleSpaceScheme`] keeps what its labels are made of, not the
//! labels: the `φ` bank of [`assign_circulation_labels`] (one row per edge
//! id, in one allocation), the ancestry interval of every vertex, and each
//! edge's endpoints and tree flag. It assembles a [`CycleSpaceEdgeLabel`]
//! only when one is asked for ([`CycleSpaceScheme::edge_label`], for the
//! decoder or the wire); the label store copies rows straight out of the
//! bank ([`CycleSpaceScheme::phi_bank`]).

use crate::circulation::assign_circulation_labels;
use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::{EdgeId, Graph, GraphError, SpanningTree, VertexId};
use ftl_labels::AncestryLabel;
use ftl_seeded::Seed;

/// Default slack constant `c` in `b = f + c·log₂ n` (substitution S4 in the
/// README's "Substitutions").
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
        tree_child_interval(self.is_tree, self.anc_u, self.anc_v)
    }
}

/// [`CycleSpaceEdgeLabel::tree_child_interval`] of an edge with tree flag
/// `is_tree` and endpoint intervals `anc_u`, `anc_v`.
pub(crate) fn tree_child_interval(
    is_tree: bool,
    anc_u: AncestryLabel,
    anc_v: AncestryLabel,
) -> Option<(u32, u32)> {
    if !is_tree {
        return None;
    }
    if anc_u.is_ancestor_of(&anc_v) {
        Some((anc_v.pre, anc_v.post))
    } else if anc_v.is_ancestor_of(&anc_u) {
        Some((anc_u.pre, anc_u.post))
    } else {
        None
    }
}

/// The labeling side of the cycle-space scheme: holds every vertex/edge
/// label of one (connected) graph, as the `φ` bank plus the ancestry
/// arrays (see the module docs).
///
/// Label access is by id; the decoder ([`crate::decode()`]) needs only the
/// labels of the query triple `⟨s, t, F⟩`.
#[derive(Debug, Clone)]
pub struct CycleSpaceScheme {
    /// `φ(e)` in row `e`.
    phi: BitMatrix,
    /// Ancestry interval per vertex id.
    anc: Vec<AncestryLabel>,
    /// Endpoints `(u, v)` per edge id, as inserted.
    ends: Vec<(VertexId, VertexId)>,
    is_tree: Vec<bool>,
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
        Ok(CycleSpaceScheme {
            phi: assign_circulation_labels(graph, tree, &[], b, seed.derive(0xC1C)),
            anc: graph
                .vertices()
                .map(|v| AncestryLabel::of(tree, v))
                .collect(),
            ends: graph.edges().iter().map(|e| (e.u(), e.v())).collect(),
            is_tree: graph
                .edge_ids()
                .map(|(id, _)| tree.is_tree_edge(id))
                .collect(),
            max_time: tree.max_time(),
        })
    }

    /// The label of vertex `v`.
    pub fn vertex_label(&self, v: VertexId) -> CycleSpaceVertexLabel {
        CycleSpaceVertexLabel {
            anc: self.anc[v.index()],
        }
    }

    /// The label of edge `e`, assembled from its row of the `φ` bank.
    pub fn edge_label(&self, e: EdgeId) -> CycleSpaceEdgeLabel {
        let (u, v) = self.ends[e.index()];
        CycleSpaceEdgeLabel {
            phi: self.phi.row_to_bitvec(e.index()),
            anc_u: self.anc[u.index()],
            anc_v: self.anc[v.index()],
            is_tree: self.is_tree[e.index()],
        }
    }

    /// The `φ` bank: row `e` is `φ(e)`, `bits_b()` bits wide.
    pub fn phi_bank(&self) -> &BitMatrix {
        &self.phi
    }

    /// `edge_label(e).tree_child_interval()`, without assembling the
    /// label.
    pub fn tree_child_interval(&self, e: EdgeId) -> Option<(u32, u32)> {
        let (u, v) = self.ends[e.index()];
        tree_child_interval(
            self.is_tree[e.index()],
            self.anc[u.index()],
            self.anc[v.index()],
        )
    }

    /// The cut-detection bit budget `b`.
    pub fn bits_b(&self) -> usize {
        self.phi.num_cols()
    }

    /// Number of labeled vertices.
    pub fn num_vertices(&self) -> usize {
        self.anc.len()
    }

    /// Number of labeled edges.
    pub fn num_edges(&self) -> usize {
        self.ends.len()
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
    /// `O(f + log n)`). Every edge label has the same length; 0 when there
    /// are no edges.
    pub fn edge_label_bits(&self) -> usize {
        match self.num_edges() {
            0 => 0,
            _ => self.edge_label(EdgeId::new(0)).bits(self.max_time),
        }
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
