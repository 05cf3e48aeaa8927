//! The component tree of `T \ F` (Claim 3.14).
//!
//! Removing the faulty tree edges `F_T` from the spanning tree `T` leaves
//! `|F_T| + 1` connected components. Each component is represented by its
//! *highest* vertex: the root `r` for the top component, and the child
//! endpoint of the corresponding fault edge for every other component.
//!
//! Claim 3.14 shows the full component tree — and point location of any
//! vertex's component — can be recovered from the **ancestry labels of the
//! fault endpoints alone**, by sorting the `2(|F_T|+1)` DFS-time tuples and
//! scanning. This module implements exactly that algorithm, including the
//! `O(log f)`-time binary-search point location.

use crate::ancestry::AncestryLabel;

/// Dense index of a component of `T \ F`. Component `0` is always the
/// root's component.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub usize);

impl ComponentId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A faulty tree edge, oriented: `parent` is the endpoint closer to the
/// root.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct FaultTreeEdge {
    /// Ancestry label of the endpoint closer to the root.
    pub parent: AncestryLabel,
    /// Ancestry label of the endpoint farther from the root (this vertex
    /// represents the component hanging below the edge).
    pub child: AncestryLabel,
}

impl FaultTreeEdge {
    /// Orients an endpoint pair. Returns `None` if neither endpoint is an
    /// ancestor of the other (then `(a, b)` cannot be a tree edge).
    pub fn from_endpoints(a: AncestryLabel, b: AncestryLabel) -> Option<Self> {
        if a.is_strict_ancestor_of(&b) {
            Some(FaultTreeEdge {
                parent: a,
                child: b,
            })
        } else if b.is_strict_ancestor_of(&a) {
            Some(FaultTreeEdge {
                parent: b,
                child: a,
            })
        } else {
            None
        }
    }
}

/// The component tree `T_C = (C₀, E_C)` of Claim 3.14, built from ancestry
/// labels only.
///
/// # Example
///
/// ```
/// use ftl_labels::{AncestryLabel, ComponentTree, FaultTreeEdge};
///
/// // A path r(1,8) - a(2,7) - b(3,6) - c(4,5) with the a-b edge faulty.
/// let r = AncestryLabel { pre: 1, post: 8 };
/// let a = AncestryLabel { pre: 2, post: 7 };
/// let b = AncestryLabel { pre: 3, post: 6 };
/// let c = AncestryLabel { pre: 4, post: 5 };
/// let fault = FaultTreeEdge::from_endpoints(a, b).unwrap();
/// let ct = ComponentTree::new(&[fault], 9);
/// assert_eq!(ct.num_components(), 2);
/// assert_eq!(ct.component_of(r), ct.component_of(a));
/// assert_eq!(ct.component_of(b), ct.component_of(c));
/// assert_ne!(ct.component_of(a), ct.component_of(b));
/// ```
#[derive(Debug, Clone)]
pub struct ComponentTree {
    /// Representative label per component; index 0 is the root component
    /// with the synthetic label `(1, M)`.
    reps: Vec<AncestryLabel>,
    /// Parent component (None only for the root component).
    parent: Vec<Option<ComponentId>>,
    children: Vec<Vec<ComponentId>>,
    /// For each non-root component, the index (into the constructor's edge
    /// list) of the fault edge connecting it to its parent component.
    edge_to_parent: Vec<Option<usize>>,
    /// Sorted `(dfs_value, component, kind)` tuples; kind 1 = entry, 2 = exit.
    tuples: Vec<(u32, usize, u8)>,
}

impl ComponentTree {
    /// Builds the component tree from the faulty tree edges.
    ///
    /// `max_time` must exceed every DFS time in the tree (use
    /// [`ftl_graph::SpanningTree::max_time`]). Duplicate fault edges are
    /// tolerated (deduplicated by child label); they keep their original
    /// indices in [`ComponentTree::edge_to_parent`].
    pub fn new(fault_edges: &[FaultTreeEdge], max_time: u32) -> Self {
        // Component 0: the root, with synthetic label (1, M).
        let mut reps = vec![AncestryLabel {
            pre: 1,
            post: max_time,
        }];
        let mut edge_index = vec![None];
        let mut seen_children: Vec<AncestryLabel> = Vec::new();
        for (i, fe) in fault_edges.iter().enumerate() {
            if seen_children.contains(&fe.child) {
                continue; // duplicate fault edge
            }
            seen_children.push(fe.child);
            reps.push(fe.child);
            edge_index.push(Some(i));
        }
        let k = reps.len();
        // Tuples (DFS1, comp, 1), (DFS2, comp, 2), sorted by DFS value.
        let mut tuples: Vec<(u32, usize, u8)> = Vec::with_capacity(2 * k);
        for (c, rep) in reps.iter().enumerate() {
            tuples.push((rep.pre, c, 1));
            tuples.push((rep.post, c, 2));
        }
        tuples.sort_unstable();
        // Scan: on seeing (DFS1(v_i), v_i, 1), the previous tuple decides the
        // parent (proof in Claim 3.14).
        let mut parent: Vec<Option<ComponentId>> = vec![None; k];
        for pair in tuples.windows(2) {
            let &[(_, u, b), (_, c, kind)] = pair else {
                continue;
            };
            if kind != 1 {
                continue;
            }
            let p = if b == 1 {
                Some(ComponentId(u))
            } else {
                parent.get(u).copied().flatten()
            };
            if let Some(slot) = parent.get_mut(c) {
                *slot = p;
            }
        }
        let mut children: Vec<Vec<ComponentId>> = vec![Vec::new(); k];
        for (c, par) in parent.iter().enumerate() {
            if let Some(siblings) = par.and_then(|p| children.get_mut(p.index())) {
                siblings.push(ComponentId(c));
            }
        }
        ComponentTree {
            reps,
            parent,
            children,
            edge_to_parent: edge_index,
            tuples,
        }
    }

    /// Number of components `|F_T| + 1` (after deduplication).
    pub fn num_components(&self) -> usize {
        self.reps.len()
    }

    /// The root component.
    pub fn root(&self) -> ComponentId {
        ComponentId(0)
    }

    /// Representative (highest vertex) label of a component. For the root
    /// component this is the synthetic `(1, M)` label; `None` for an id
    /// outside this tree.
    pub fn rep(&self, c: ComponentId) -> Option<AncestryLabel> {
        self.reps.get(c.index()).copied()
    }

    /// Parent component in the component tree (`None` for the root and
    /// for an id outside this tree).
    pub fn parent(&self, c: ComponentId) -> Option<ComponentId> {
        self.parent.get(c.index()).copied().flatten()
    }

    /// Children components (empty for an id outside this tree).
    pub fn children(&self, c: ComponentId) -> &[ComponentId] {
        self.children.get(c.index()).map_or(&[], Vec::as_slice)
    }

    /// For a non-root component, the index of the fault edge (in the
    /// constructor's list) connecting it to its parent component.
    pub fn edge_to_parent(&self, c: ComponentId) -> Option<usize> {
        self.edge_to_parent.get(c.index()).copied().flatten()
    }

    /// Iterator over all component ids.
    pub fn component_ids(&self) -> impl Iterator<Item = ComponentId> {
        (0..self.num_components()).map(ComponentId)
    }

    /// Point location (Claim 3.14, second part): the component of the vertex
    /// with ancestry label `v`, in `O(log f)` time.
    pub fn component_of(&self, v: AncestryLabel) -> ComponentId {
        // Find the last tuple with value <= DFS1(v).
        let pos = self.tuples.partition_point(|&(val, _, _)| val <= v.pre);
        // DFS times start at 1 and the root tuple is (1, 0, 1), so only a
        // label outside the tree finds no tuple; it lands in the root's.
        let Some(&(val, u, b)) = pos.checked_sub(1).and_then(|i| self.tuples.get(i)) else {
            return self.root();
        };
        if val == v.pre {
            // v is a component representative itself.
            return ComponentId(u);
        }
        if b == 1 {
            ComponentId(u)
        } else {
            // The exit tuple of a non-last component always records a
            // parent; degrade to the component itself rather than panic
            // if the tree were ever corrupt.
            self.parent(ComponentId(u)).unwrap_or(ComponentId(u))
        }
    }

    /// Components in an order where parents precede children (root first).
    pub fn topological_order(&self) -> Vec<ComponentId> {
        let mut order = vec![self.root()];
        let mut i = 0;
        while let Some(&c) = order.get(i) {
            order.extend_from_slice(self.children(c));
            i += 1;
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::{GraphBuilder, SpanningTree, VertexId};

    /// Builds a spanning tree and returns it with per-vertex labels.
    fn tree_from_edges(n: usize, edges: &[(usize, usize)]) -> (SpanningTree, Vec<AncestryLabel>) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_unit_edge(u, v);
        }
        let g = b.build();
        let t = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let labels = (0..n)
            .map(|i| AncestryLabel::of(&t, VertexId::new(i)))
            .collect();
        (t, labels)
    }

    /// Ground truth: component of each vertex in T \ F by BFS over tree
    /// edges minus faults.
    fn ground_truth_components(
        n: usize,
        edges: &[(usize, usize)],
        faults: &[(usize, usize)],
    ) -> Vec<usize> {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            if faults.contains(&(u, v)) || faults.contains(&(v, u)) {
                continue;
            }
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut comp = vec![usize::MAX; n];
        let mut c = 0;
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = c;
            while let Some(u) = stack.pop() {
                for &w in &adj[u] {
                    if comp[w] == usize::MAX {
                        comp[w] = c;
                        stack.push(w);
                    }
                }
            }
            c += 1;
        }
        comp
    }

    fn check_against_ground_truth(n: usize, edges: &[(usize, usize)], faults: &[(usize, usize)]) {
        let (t, labels) = tree_from_edges(n, edges);
        let fault_edges: Vec<FaultTreeEdge> = faults
            .iter()
            .map(|&(u, v)| FaultTreeEdge::from_endpoints(labels[u], labels[v]).unwrap())
            .collect();
        let ct = ComponentTree::new(&fault_edges, t.max_time());
        let truth = ground_truth_components(n, edges, faults);
        assert_eq!(ct.num_components(), faults.len() + 1);
        // Same component in the reconstruction iff same component in truth.
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    ct.component_of(labels[a]) == ct.component_of(labels[b]),
                    truth[a] == truth[b],
                    "vertices {a}, {b}"
                );
            }
        }
    }

    #[test]
    fn path_tree_single_fault() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4)];
        check_against_ground_truth(5, &edges, &[(1, 2)]);
        check_against_ground_truth(5, &edges, &[(0, 1)]);
        check_against_ground_truth(5, &edges, &[(3, 4)]);
    }

    #[test]
    fn path_tree_multiple_faults() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        check_against_ground_truth(6, &edges, &[(0, 1), (2, 3), (4, 5)]);
        check_against_ground_truth(6, &edges, &[(1, 2), (2, 3)]);
    }

    #[test]
    fn star_tree_faults() {
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4)];
        check_against_ground_truth(5, &edges, &[(0, 1), (0, 3)]);
        check_against_ground_truth(5, &edges, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
    }

    #[test]
    fn branching_tree_faults() {
        //      0
        //     / \
        //    1   2
        //   /|    \
        //  3 4     5
        //  |        \
        //  6         7
        let edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (5, 7)];
        check_against_ground_truth(8, &edges, &[(0, 1), (3, 6)]);
        check_against_ground_truth(8, &edges, &[(0, 1), (0, 2)]);
        check_against_ground_truth(8, &edges, &[(1, 3), (1, 4), (2, 5), (5, 7)]);
    }

    #[test]
    fn component_tree_structure_path() {
        // Path 0-1-2-3 with faults (0,1) and (2,3): components {0}, {1,2}, {3}.
        let edges = [(0, 1), (1, 2), (2, 3)];
        let (t, labels) = tree_from_edges(4, &edges);
        let f1 = FaultTreeEdge::from_endpoints(labels[0], labels[1]).unwrap();
        let f2 = FaultTreeEdge::from_endpoints(labels[2], labels[3]).unwrap();
        let ct = ComponentTree::new(&[f1, f2], t.max_time());
        let c0 = ct.component_of(labels[0]);
        let c1 = ct.component_of(labels[1]);
        let c3 = ct.component_of(labels[3]);
        assert_eq!(c0, ct.root());
        assert_eq!(ct.parent(c1), Some(c0));
        assert_eq!(ct.parent(c3), Some(c1));
        assert_eq!(ct.edge_to_parent(c1), Some(0));
        assert_eq!(ct.edge_to_parent(c3), Some(1));
        assert_eq!(ct.children(c0), &[c1]);
        let topo = ct.topological_order();
        assert_eq!(topo[0], c0);
        assert_eq!(topo.len(), 3);
    }

    #[test]
    fn duplicate_fault_edges_deduplicated() {
        let edges = [(0, 1), (1, 2)];
        let (t, labels) = tree_from_edges(3, &edges);
        let f = FaultTreeEdge::from_endpoints(labels[0], labels[1]).unwrap();
        let ct = ComponentTree::new(&[f, f], t.max_time());
        assert_eq!(ct.num_components(), 2);
    }

    #[test]
    fn non_tree_pair_rejected_by_orientation() {
        let edges = [(0, 1), (0, 2)];
        let (_, labels) = tree_from_edges(3, &edges);
        // 1 and 2 are siblings: neither is an ancestor of the other.
        assert!(FaultTreeEdge::from_endpoints(labels[1], labels[2]).is_none());
        // Orientation picks the ancestor as parent regardless of order.
        let f1 = FaultTreeEdge::from_endpoints(labels[0], labels[1]).unwrap();
        let f2 = FaultTreeEdge::from_endpoints(labels[1], labels[0]).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn no_faults_single_component() {
        let edges = [(0, 1), (1, 2)];
        let (t, labels) = tree_from_edges(3, &edges);
        let ct = ComponentTree::new(&[], t.max_time());
        assert_eq!(ct.num_components(), 1);
        for l in labels {
            assert_eq!(ct.component_of(l), ct.root());
        }
    }

    #[test]
    fn random_trees_random_faults_match_ground_truth() {
        // Deterministic pseudo-random trees without pulling in `rand` here.
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = 2 + (next() % 40) as usize;
            let edges: Vec<(usize, usize)> = (1..n).map(|i| ((next() as usize) % i, i)).collect();
            let f = 1 + (next() as usize) % edges.len().min(6);
            let mut faults = Vec::new();
            while faults.len() < f {
                let e = edges[(next() as usize) % edges.len()];
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            check_against_ground_truth(n, &edges, &faults);
        }
    }
}
