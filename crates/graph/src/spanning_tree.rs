//! Rooted spanning trees with DFS numbering.
//!
//! Both labeling schemes fix a rooted spanning tree `T` of the (connected)
//! graph and lean on two pieces of tree structure:
//!
//! * DFS pre/post intervals — the ancestry labels of Lemma 3.1;
//! * parent/child edges — the component structure of `T \ F`.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::shortest_path::DijkstraResult;
use crate::traversal::BfsResult;

/// A rooted spanning tree (or spanning forest restricted to the root's
/// component) of a [`Graph`].
///
/// Vertices not reachable from the root are *not in the tree*
/// ([`SpanningTree::contains`] returns `false`); the labeling schemes handle
/// each connected component separately, as in the paper.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    root: VertexId,
    /// `parent[v] = Some((p, e))` for non-root tree vertices.
    parent: Vec<Option<(VertexId, EdgeId)>>,
    /// Children of `v` are `children[child_start[v]..child_start[v + 1]]`,
    /// in increasing id order: one flat list, not one `Vec` per vertex.
    child_start: Vec<usize>,
    children: Vec<VertexId>,
    /// DFS entry time, `u32::MAX` when not in the tree. Times are unique and
    /// start at 1, matching \[KNR92\] where the interval of the root is (1, M).
    pre: Vec<u32>,
    /// DFS exit time.
    post: Vec<u32>,
    depth: Vec<u32>,
    /// Weighted depth (sum of edge weights from root).
    wdepth: Vec<u64>,
    /// `is_tree_edge[e]` for every edge id of the host graph.
    is_tree_edge: Vec<bool>,
    /// Vertices in DFS preorder.
    preorder: Vec<VertexId>,
}

impl SpanningTree {
    /// Builds the spanning tree from parent pointers produced by a BFS.
    pub fn from_bfs(graph: &Graph, root: VertexId, bfs: &BfsResult) -> Self {
        Self::from_parents(graph, root, &bfs.parent)
    }

    /// Builds the shortest-path tree from a Dijkstra run.
    pub fn from_dijkstra(graph: &Graph, root: VertexId, dij: &DijkstraResult) -> Self {
        Self::from_parents(graph, root, &dij.parent)
    }

    /// Builds a spanning tree from explicit parent pointers.
    ///
    /// `parent[v] = Some((p, e))` means `v`'s tree parent is `p` via graph
    /// edge `e`. Exactly the vertices transitively reachable from `root`
    /// through the parent pointers become tree vertices.
    pub fn from_parents(
        graph: &Graph,
        root: VertexId,
        parent: &[Option<(VertexId, EdgeId)>],
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(parent.len(), n);
        // Counting sort of the vertices by parent: child lists in increasing
        // id order, all in one allocation.
        let mut child_start = vec![0usize; n + 1];
        for (p, _) in parent.iter().flatten() {
            child_start[p.index() + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut children = vec![root; child_start[n]];
        let mut fill = child_start.clone();
        for (v, par) in parent.iter().enumerate() {
            if let Some((p, _)) = par {
                children[fill[p.index()]] = VertexId::new(v);
                fill[p.index()] += 1;
            }
        }
        let kids = |u: VertexId| &children[child_start[u.index()]..child_start[u.index() + 1]];
        let mut pre = vec![u32::MAX; n];
        let mut post = vec![u32::MAX; n];
        let mut depth = vec![0u32; n];
        let mut wdepth = vec![0u64; n];
        let mut preorder = Vec::with_capacity(n);
        let mut is_tree_edge = vec![false; graph.num_edges()];
        // Iterative DFS assigning pre/post times starting at 1.
        let mut time = 1u32;
        let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
        pre[root.index()] = time;
        preorder.push(root);
        time += 1;
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if let Some(&c) = kids(u).get(*ci) {
                *ci += 1;
                let (p, e) = parent[c.index()].expect("child has a parent");
                debug_assert_eq!(p, u);
                is_tree_edge[e.index()] = true;
                depth[c.index()] = depth[u.index()] + 1;
                wdepth[c.index()] = wdepth[u.index()] + graph.edge(e).weight();
                pre[c.index()] = time;
                time += 1;
                preorder.push(c);
                stack.push((c, 0));
            } else {
                post[u.index()] = time;
                time += 1;
                stack.pop();
            }
        }
        SpanningTree {
            root,
            parent: parent.to_vec(),
            child_start,
            children,
            pre,
            post,
            depth,
            wdepth,
            is_tree_edge,
            preorder,
        }
    }

    /// Builds a BFS spanning tree of the whole graph rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the graph is not connected.
    pub fn bfs_tree(graph: &Graph, root: VertexId) -> Result<Self, GraphError> {
        let bfs = crate::traversal::bfs(graph, root, &[]);
        if bfs.dist.iter().any(|d| d.is_none()) {
            return Err(GraphError::Disconnected);
        }
        Ok(Self::from_bfs(graph, root, &bfs))
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Whether `v` belongs to the tree.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.pre[v.index()] != u32::MAX
    }

    /// Number of tree vertices.
    pub fn num_tree_vertices(&self) -> usize {
        self.preorder.len()
    }

    /// Parent of `v` with the connecting edge, `None` at the root.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<(VertexId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Children of `v` in the tree, in increasing id order.
    #[inline]
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.children[self.child_start[v.index()]..self.child_start[v.index() + 1]]
    }

    /// DFS entry time of `v` (unique; starts at 1).
    #[inline]
    pub fn pre(&self, v: VertexId) -> u32 {
        self.pre[v.index()]
    }

    /// DFS exit time of `v`.
    #[inline]
    pub fn post(&self, v: VertexId) -> u32 {
        self.post[v.index()]
    }

    /// Hop depth of `v` below the root.
    #[inline]
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v.index()]
    }

    /// Weighted depth of `v` (sum of tree edge weights from the root).
    #[inline]
    pub fn weighted_depth(&self, v: VertexId) -> u64 {
        self.wdepth[v.index()]
    }

    /// Whether graph edge `e` is a tree edge.
    #[inline]
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.is_tree_edge[e.index()]
    }

    /// Whether `a` is an ancestor of `b` (inclusive: every vertex is its own
    /// ancestor), decided from the DFS intervals in O(1).
    #[inline]
    pub fn is_ancestor(&self, a: VertexId, b: VertexId) -> bool {
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }

    /// Vertices in DFS preorder.
    #[inline]
    pub fn preorder(&self) -> &[VertexId] {
        &self.preorder
    }

    /// Tree vertices in the subtree rooted at `v` (preorder).
    pub fn subtree(&self, v: VertexId) -> Vec<VertexId> {
        self.preorder
            .iter()
            .copied()
            .filter(|&u| self.is_ancestor(v, u))
            .collect()
    }

    /// Lowest common ancestor of `a` and `b` (walks parent pointers; fine for
    /// our offline uses).
    pub fn lca(&self, a: VertexId, b: VertexId) -> VertexId {
        let mut x = a;
        let mut y = b;
        while self.depth(x) > self.depth(y) {
            x = self.parent(x).expect("deeper vertex has a parent").0;
        }
        while self.depth(y) > self.depth(x) {
            y = self.parent(y).expect("deeper vertex has a parent").0;
        }
        while x != y {
            x = self.parent(x).expect("non-root vertex has a parent").0;
            y = self.parent(y).expect("non-root vertex has a parent").0;
        }
        x
    }

    /// The tree path `π(a, b, T)` as a list of edge ids.
    pub fn tree_path(&self, a: VertexId, b: VertexId) -> Vec<EdgeId> {
        let l = self.lca(a, b);
        let mut up = Vec::new();
        let mut x = a;
        while x != l {
            let (p, e) = self.parent(x).expect("below lca");
            up.push(e);
            x = p;
        }
        let mut down = Vec::new();
        let mut y = b;
        while y != l {
            let (p, e) = self.parent(y).expect("below lca");
            down.push(e);
            y = p;
        }
        down.reverse();
        up.extend(down);
        up
    }

    /// Weighted length of the tree path between `a` and `b`.
    pub fn tree_distance(&self, graph: &Graph, a: VertexId, b: VertexId) -> u64 {
        self.tree_path(a, b)
            .iter()
            .map(|&e| graph.edge(e).weight())
            .sum()
    }

    /// Largest DFS time issued; useful as the `M` bound of Claim 3.14.
    pub fn max_time(&self) -> u32 {
        2 * self.preorder.len() as u32 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A small tree-with-extra-edge graph:
    ///
    /// ```text
    ///       0
    ///      / \
    ///     1   2
    ///    / \   \
    ///   3   4   5   (+ non-tree edge 4-5)
    /// ```
    fn sample() -> (Graph, SpanningTree) {
        let mut b = GraphBuilder::new(6);
        b.add_unit_edge(0, 1); // e0
        b.add_unit_edge(0, 2); // e1
        b.add_unit_edge(1, 3); // e2
        b.add_unit_edge(1, 4); // e3
        b.add_unit_edge(2, 5); // e4
        b.add_unit_edge(4, 5); // e5 non-tree
        let g = b.build();
        let t = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        (g, t)
    }

    #[test]
    fn tree_edges_identified() {
        let (_, t) = sample();
        for e in 0..5 {
            assert!(t.is_tree_edge(EdgeId::new(e)), "e{e} should be tree edge");
        }
        assert!(!t.is_tree_edge(EdgeId::new(5)));
    }

    #[test]
    fn ancestry_via_intervals() {
        let (_, t) = sample();
        let v = VertexId::new;
        assert!(t.is_ancestor(v(0), v(5)));
        assert!(t.is_ancestor(v(1), v(3)));
        assert!(t.is_ancestor(v(1), v(1)));
        assert!(!t.is_ancestor(v(1), v(5)));
        assert!(!t.is_ancestor(v(3), v(1)));
    }

    #[test]
    fn pre_post_nested_or_disjoint() {
        let (_, t) = sample();
        for a in 0..6 {
            for b in 0..6 {
                let (a, b) = (VertexId::new(a), VertexId::new(b));
                let ia = (t.pre(a), t.post(a));
                let ib = (t.pre(b), t.post(b));
                let nested = (ia.0 <= ib.0 && ib.1 <= ia.1) || (ib.0 <= ia.0 && ia.1 <= ib.1);
                let disjoint = ia.1 < ib.0 || ib.1 < ia.0;
                assert!(nested || disjoint, "intervals must nest or be disjoint");
            }
        }
    }

    #[test]
    fn depths_and_parents() {
        let (_, t) = sample();
        let v = VertexId::new;
        assert_eq!(t.depth(v(0)), 0);
        assert_eq!(t.depth(v(4)), 2);
        assert_eq!(t.parent(v(0)), None);
        assert_eq!(t.parent(v(4)).unwrap().0, v(1));
        assert_eq!(t.children(v(1)), &[v(3), v(4)]);
    }

    #[test]
    fn lca_and_paths() {
        let (g, t) = sample();
        let v = VertexId::new;
        assert_eq!(t.lca(v(3), v(4)), v(1));
        assert_eq!(t.lca(v(3), v(5)), v(0));
        assert_eq!(t.lca(v(0), v(4)), v(0));
        let p = t.tree_path(v(3), v(5));
        assert_eq!(p.len(), 4); // 3-1, 1-0, 0-2, 2-5
        assert_eq!(t.tree_distance(&g, v(3), v(5)), 4);
        assert_eq!(t.tree_distance(&g, v(3), v(3)), 0);
    }

    #[test]
    fn subtree_contents() {
        let (_, t) = sample();
        let v = VertexId::new;
        let s1: Vec<_> = t.subtree(v(1));
        assert_eq!(s1, vec![v(1), v(3), v(4)]);
        assert_eq!(t.subtree(v(0)).len(), 6);
        assert_eq!(t.subtree(v(5)), vec![v(5)]);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let mut b = GraphBuilder::new(3);
        b.add_unit_edge(0, 1);
        let g = b.build();
        assert!(matches!(
            SpanningTree::bfs_tree(&g, VertexId::new(0)),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn dijkstra_tree_respects_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 10); // heavy direct edge
        b.add_edge(0, 2, 1);
        b.add_edge(2, 1, 1);
        let g = b.build();
        let dij = crate::shortest_path::dijkstra(&g, VertexId::new(0), &[]);
        let t = SpanningTree::from_dijkstra(&g, VertexId::new(0), &dij);
        // Shortest path to 1 goes via 2.
        assert_eq!(t.parent(VertexId::new(1)).unwrap().0, VertexId::new(2));
        assert_eq!(t.weighted_depth(VertexId::new(1)), 2);
        assert!(!t.is_tree_edge(EdgeId::new(0)));
    }

    #[test]
    fn partial_tree_from_parents() {
        // Root a tree on only part of the graph.
        let mut b = GraphBuilder::new(4);
        b.add_unit_edge(0, 1);
        b.add_unit_edge(2, 3);
        let g = b.build();
        let bfs = crate::traversal::bfs(&g, VertexId::new(0), &[]);
        let t = SpanningTree::from_bfs(&g, VertexId::new(0), &bfs);
        assert!(t.contains(VertexId::new(1)));
        assert!(!t.contains(VertexId::new(2)));
        assert_eq!(t.num_tree_vertices(), 2);
    }

    #[test]
    fn preorder_starts_at_root_and_times_start_at_one() {
        let (_, t) = sample();
        assert_eq!(t.preorder()[0], t.root());
        assert_eq!(t.pre(t.root()), 1);
        assert!(t.max_time() >= t.post(t.root()));
    }
}
