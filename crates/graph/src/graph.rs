//! The weighted undirected multigraph with port numbering.

use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};

/// An undirected edge with a positive integer weight.
///
/// The paper works with "positive polynomial weights"; we use `u64` weights
/// (`1` for unweighted graphs).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Edge {
    u: VertexId,
    v: VertexId,
    weight: u64,
}

impl Edge {
    /// Creates a new edge between `u` and `v` with the given weight.
    pub fn new(u: VertexId, v: VertexId, weight: u64) -> Self {
        Edge { u, v, weight }
    }

    /// First endpoint (as inserted).
    #[inline]
    pub fn u(&self) -> VertexId {
        self.u
    }

    /// Second endpoint (as inserted).
    #[inline]
    pub fn v(&self) -> VertexId {
        self.v
    }

    /// Edge weight (always positive).
    #[inline]
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Both endpoints, smaller index first.
    #[inline]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        if self.u.index() <= self.v.index() {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "{x:?} is not an endpoint of edge ({:?},{:?})",
                self.u, self.v
            )
        }
    }

    /// Whether `x` is one of the endpoints.
    #[inline]
    pub fn is_incident_to(&self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }
}

/// One entry of an adjacency list: the neighbor reached through this port and
/// the id of the connecting edge.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct Neighbor {
    /// The vertex at the other end of the edge.
    pub vertex: VertexId,
    /// The id of the connecting edge.
    pub edge: EdgeId,
}

/// A weighted undirected multigraph.
///
/// The adjacency list of a vertex `u` defines its **port numbering**: port
/// `p` of `u` is `g.neighbors(u)[p]`. Routing tables in the paper's model
/// emit port numbers, so ports are first-class here. Ports follow edge-id
/// order: edge `e = {u, v}` takes the next free port of `u`, then of `v`,
/// so a self-loop occupies two consecutive ports.
///
/// The adjacency is stored in compressed sparse row form: one array of the
/// `2m` ports of all vertices, vertex by vertex, and `n + 1` offsets into
/// it, so `u`'s ports are `adj[first[u]..first[u + 1]]`.
///
/// `Graph` is immutable after construction; build one with [`GraphBuilder`].
///
/// # Example
///
/// ```
/// use ftl_graph::{Graph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 5);
/// b.add_edge(1, 2, 7);
/// let g: Graph = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(ftl_graph::VertexId::new(1)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    edges: Vec<Edge>,
    /// `first[u]..first[u + 1]` is the range of `u`'s ports in `adj`.
    first: Vec<usize>,
    adj: Vec<Neighbor>,
    total_weight: u128,
    max_weight: u64,
}

impl Graph {
    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.first.len() - 1
    }

    /// Number of edges `m` (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over `(EdgeId, &Edge)` pairs.
    pub fn edge_ids(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// The adjacency list of `u`; index = port number.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[Neighbor] {
        &self.adj[self.first[u.index()]..self.first[u.index() + 1]]
    }

    /// Degree of `u` (number of incident edge endpoints; a self-loop counts
    /// twice because it occupies two ports).
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.neighbors(u).len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.first
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// The neighbor behind port `p` of vertex `u`, if the port exists.
    #[inline]
    pub fn port(&self, u: VertexId, p: usize) -> Option<Neighbor> {
        self.neighbors(u).get(p).copied()
    }

    /// The port number through which `u` reaches edge `e`, i.e. the index of
    /// `e` in `u`'s adjacency list.
    ///
    /// Returns `None` if `e` is not incident to `u`.
    pub fn port_of_edge(&self, u: VertexId, e: EdgeId) -> Option<usize> {
        self.neighbors(u).iter().position(|nb| nb.edge == e)
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices()).map(VertexId::new)
    }

    /// Sum of all edge weights.
    #[inline]
    pub fn total_weight(&self) -> u128 {
        self.total_weight
    }

    /// Weight `W` of the heaviest edge (1 for an edgeless graph, so that
    /// `log(nW)` style scale counts stay well-defined).
    #[inline]
    pub fn max_weight(&self) -> u64 {
        self.max_weight.max(1)
    }

    /// `⌈log2(n·W)⌉ + 1`, the number `K` of distance scales used by the
    /// distance labeling and routing schemes (Section 4 of the paper).
    pub fn num_distance_scales(&self) -> u32 {
        let nw = (self.num_vertices() as u128).max(2) * self.max_weight() as u128;
        (128 - nw.leading_zeros()) + 1
    }

    /// Checks that a vertex index is in range.
    pub fn check_vertex(&self, u: VertexId) -> Result<(), GraphError> {
        if u.index() < self.num_vertices() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                index: u.index(),
                num_vertices: self.num_vertices(),
            })
        }
    }

    /// Checks that an edge index is in range.
    pub fn check_edge(&self, e: EdgeId) -> Result<(), GraphError> {
        if e.index() < self.num_edges() {
            Ok(())
        } else {
            Err(GraphError::EdgeOutOfRange {
                index: e.index(),
                num_edges: self.num_edges(),
            })
        }
    }

    /// Returns some edge id connecting `u` and `v`, if one exists.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.neighbors(u)
            .iter()
            .find(|nb| nb.vertex == v)
            .map(|nb| nb.edge)
    }
}

/// Incremental builder for [`Graph`].
///
/// Ports are assigned in insertion order: the `i`-th edge added at `u`
/// becomes port `i` of `u`.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge `{u, v}` with the given positive weight and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `weight == 0`.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: u64) -> EdgeId {
        assert!(u < self.n, "endpoint {u} out of range (n = {})", self.n);
        assert!(v < self.n, "endpoint {v} out of range (n = {})", self.n);
        assert!(weight > 0, "edge weights must be positive");
        let id = EdgeId::new(self.edges.len());
        self.edges
            .push(Edge::new(VertexId::new(u), VertexId::new(v), weight));
        id
    }

    /// Adds an unweighted (weight-1) edge.
    pub fn add_unit_edge(&mut self, u: usize, v: usize) -> EdgeId {
        self.add_edge(u, v, 1)
    }

    /// Finalizes the builder into an immutable [`Graph`]: one pass counts
    /// the degrees into offsets, a second fills the ports in edge-id order.
    pub fn build(self) -> Graph {
        let mut first = vec![0usize; self.n + 1];
        let mut total: u128 = 0;
        let mut max_w: u64 = 0;
        for e in &self.edges {
            first[e.u().index() + 1] += 1;
            first[e.v().index() + 1] += 1;
            total += e.weight() as u128;
            max_w = max_w.max(e.weight());
        }
        for u in 0..self.n {
            first[u + 1] += first[u];
        }
        // `next[u]` is the next free port of `u`; it ends at `first[u + 1]`.
        let mut next = first[..self.n].to_vec();
        let placeholder = Neighbor {
            vertex: VertexId::new(0),
            edge: EdgeId::new(0),
        };
        let mut adj = vec![placeholder; first[self.n]];
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId::new(i);
            // A self-loop still occupies two ports, matching the usual
            // degree convention.
            for (at, to) in [(e.u(), e.v()), (e.v(), e.u())] {
                adj[next[at.index()]] = Neighbor {
                    vertex: to,
                    edge: id,
                };
                next[at.index()] += 1;
            }
        }
        Graph {
            edges: self.edges,
            first,
            adj,
            total_weight: total,
            max_weight: max_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 0, 3);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.max_weight(), 3);
    }

    #[test]
    fn ports_match_adjacency_order() {
        let g = triangle();
        let v0 = VertexId::new(0);
        // Vertex 0 got edge 0 (to 1) first, then edge 2 (to 2).
        assert_eq!(g.port(v0, 0).unwrap().vertex, VertexId::new(1));
        assert_eq!(g.port(v0, 1).unwrap().vertex, VertexId::new(2));
        assert_eq!(g.port(v0, 2), None);
        assert_eq!(g.port_of_edge(v0, EdgeId::new(0)), Some(0));
        assert_eq!(g.port_of_edge(v0, EdgeId::new(2)), Some(1));
        assert_eq!(g.port_of_edge(v0, EdgeId::new(1)), None);
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId::new(1));
        assert_eq!(e.other(VertexId::new(1)), VertexId::new(2));
        assert_eq!(e.other(VertexId::new(2)), VertexId::new(1));
        assert!(e.is_incident_to(VertexId::new(1)));
        assert!(!e.is_incident_to(VertexId::new(0)));
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_on_non_endpoint() {
        let g = triangle();
        g.edge(EdgeId::new(0)).other(VertexId::new(2));
    }

    #[test]
    fn endpoints_are_normalized() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 1, 1);
        let g = b.build();
        assert_eq!(
            g.edge(EdgeId::new(0)).endpoints(),
            (VertexId::new(1), VertexId::new(3))
        );
    }

    #[test]
    fn multigraph_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        let e1 = b.add_edge(0, 1, 1);
        let e2 = b.add_edge(0, 1, 4);
        let g = b.build();
        assert_ne!(e1, e2);
        assert_eq!(g.degree(VertexId::new(0)), 2);
        assert_eq!(g.degree(VertexId::new(1)), 2);
        // find_edge returns one of the parallel edges.
        assert!(g.find_edge(VertexId::new(0), VertexId::new(1)).is_some());
    }

    #[test]
    fn self_loop_occupies_two_ports() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 0, 1);
        let g = b.build();
        assert_eq!(g.degree(VertexId::new(0)), 2);
    }

    #[test]
    fn ports_follow_edge_id_order_with_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 2, 1);
        b.add_edge(0, 0, 1);
        b.add_edge(1, 0, 1);
        let g = b.build();
        let ports = |u: usize| -> Vec<(usize, usize)> {
            g.neighbors(VertexId::new(u))
                .iter()
                .map(|nb| (nb.vertex.index(), nb.edge.index()))
                .collect()
        };
        assert_eq!(ports(0), [(1, 0), (0, 2), (0, 2), (1, 3)]);
        assert_eq!(ports(1), [(0, 0), (0, 3)]);
        assert_eq!(ports(2), [(2, 1), (2, 1)]);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.port_of_edge(VertexId::new(0), EdgeId::new(3)), Some(3));
        assert_eq!(
            g.find_edge(VertexId::new(1), VertexId::new(0)),
            Some(EdgeId::new(0))
        );
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1);
    }

    #[test]
    fn check_bounds() {
        let g = triangle();
        assert!(g.check_vertex(VertexId::new(2)).is_ok());
        assert!(g.check_vertex(VertexId::new(3)).is_err());
        assert!(g.check_edge(EdgeId::new(2)).is_ok());
        assert!(g.check_edge(EdgeId::new(3)).is_err());
    }

    #[test]
    fn distance_scales_grow_with_weight() {
        let g = triangle();
        let k1 = g.num_distance_scales();
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1_000_000);
        let g2 = b.build();
        assert!(g2.num_distance_scales() > k1);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_weight(), 1);
    }

    #[test]
    fn edge_ids_enumerates_in_order() {
        let g = triangle();
        let ids: Vec<usize> = g.edge_ids().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
