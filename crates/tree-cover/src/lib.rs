//! Sparse tree covers `TC(G, ω, ρ, k)` (Definition 4.1, Proposition 4.2).
//!
//! A tree cover is a collection of rooted trees such that (1) every vertex
//! has a tree containing its whole `ρ`-ball, (2) every tree has radius at
//! most `(2k−1)·ρ`, and (3) every vertex appears in `Õ(k·n^{1/k})` trees.
//!
//! We implement a ball-growing sparse cover (substitution S2 in the
//! README's "Substitutions"):
//! repeatedly pick an unsatisfied center `v₀` and grow a radius `r` in steps
//! of `2ρ` while the number of *unsatisfied* centers within `r + 2ρ` exceeds
//! `n^{1/k}` times the number within `r`; emit the shortest-path tree of
//! `B_{r+ρ}(v₀)` and mark every center within `r` as satisfied. Properties
//! (1) and (2) hold by construction (the growth stops after at most `k−1`
//! steps because the center count multiplies by `n^{1/k} ≥ 2` each step);
//! property (3) — the overlap — is *measured* by [`TreeCover::max_overlap`]
//! and checked in the tests and the E11 experiment rather than proven.
//!
//! # Example
//!
//! ```
//! use ftl_graph::generators;
//! use ftl_tree_cover::TreeCover;
//!
//! let g = generators::grid(6, 6);
//! let tc = TreeCover::build(&g, &[], 2, 3);
//! tc.validate_coverage(&g, &[]).unwrap();
//! assert!(tc.max_tree_radius() <= (2 * 3 - 1) * 2);
//! ```
//!
//! See `README.md` at the repo root for how tree covers feed the
//! distance labels (`ftl-core`) and the routing schemes (`ftl-routing`).

#![forbid(unsafe_code)]

use ftl_graph::shortest_path::dijkstra_within;
use ftl_graph::{Graph, InducedSubgraph, SpanningTree, VertexId};

/// One tree of a cover: the cluster's induced subgraph (local ids) plus a
/// shortest-path tree rooted at the cluster center.
#[derive(Debug, Clone)]
pub struct CoverTree {
    /// Cluster center, in host-graph ids.
    pub center: VertexId,
    /// The cluster `G[B_{r+ρ}(v₀)]` minus filtered (heavy) edges, with id
    /// mappings back to the host graph.
    pub sub: InducedSubgraph,
    /// Shortest-path tree from the center, in local ids.
    pub tree: SpanningTree,
    /// Weighted radius actually used for the cluster ball.
    pub radius: u64,
}

impl CoverTree {
    /// Number of cluster vertices.
    pub fn num_vertices(&self) -> usize {
        self.sub.graph().num_vertices()
    }
}

/// A tree cover `TC(G, ω, ρ, k)`.
#[derive(Debug, Clone)]
pub struct TreeCover {
    /// Covering radius `ρ`.
    pub rho: u64,
    /// Stretch parameter `k`.
    pub k: u32,
    /// The trees.
    pub trees: Vec<CoverTree>,
    /// `home[v]` = index `i*(v)` of a tree whose cluster contains `B_ρ(v)`.
    pub home: Vec<usize>,
}

impl TreeCover {
    /// Builds the cover of `graph` with the edges flagged in `forbidden`
    /// removed (pass the heavy-edge mask `H_i` of Eq. (4); `&[]` for none).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `rho == 0`.
    pub fn build(graph: &Graph, forbidden: &[bool], rho: u64, k: u32) -> TreeCover {
        assert!(k >= 1, "stretch parameter k must be positive");
        assert!(rho >= 1, "radius must be positive");
        let n = graph.num_vertices();
        // Growth base n^{1/k}, clamped to >= 2 so the radius bound stays
        // (2k_eff - 1)rho with k_eff = min(k, ceil(log2 n)).
        let base = ((n.max(2) as f64).powf(1.0 / k as f64)).max(2.0);
        let k_eff = (k as u64).min(64 - (n.max(2) as u64 - 1).leading_zeros() as u64 + 1);
        let max_radius = (2 * k_eff + 1) * rho;
        let mut unsatisfied: Vec<bool> = vec![true; n];
        let mut remaining = n;
        let mut trees = Vec::new();
        let mut home = vec![usize::MAX; n];
        let mut cursor = 0usize;
        while remaining > 0 {
            // Lowest-id unsatisfied center (deterministic).
            while cursor < n && !unsatisfied[cursor] {
                cursor += 1;
            }
            let v0 = VertexId::new(cursor);
            // One truncated Dijkstra serves all growth decisions.
            let dij = dijkstra_within(graph, v0, forbidden, max_radius);
            let count_unsat = |r: u64| -> usize {
                (0..n)
                    .filter(|&i| unsatisfied[i] && dij.dist[i].is_some_and(|d| d <= r))
                    .count()
            };
            let mut r = 0u64;
            while count_unsat(r + 2 * rho) as f64 > base * count_unsat(r).max(1) as f64 {
                r += 2 * rho;
            }
            let cluster_radius = r + rho;
            let cluster: Vec<VertexId> = (0..n)
                .filter(|&i| dij.dist[i].is_some_and(|d| d <= cluster_radius))
                .map(VertexId::new)
                .collect();
            let sub = InducedSubgraph::new(graph, &cluster, |e| {
                !forbidden.get(e.index()).copied().unwrap_or(false)
            });
            let local_center = sub.to_local_vertex(v0).expect("center is in its ball");
            let local_dij = dijkstra_within(sub.graph(), local_center, &[], u64::MAX);
            let tree = SpanningTree::from_dijkstra(sub.graph(), local_center, &local_dij);
            let idx = trees.len();
            trees.push(CoverTree {
                center: v0,
                sub,
                tree,
                radius: cluster_radius,
            });
            // Satisfy all unsatisfied centers within r (their rho-balls lie
            // inside the cluster).
            for i in 0..n {
                if unsatisfied[i] && dij.dist[i].is_some_and(|d| d <= r) {
                    unsatisfied[i] = false;
                    home[i] = idx;
                    remaining -= 1;
                }
            }
        }
        TreeCover {
            rho,
            k,
            trees,
            home,
        }
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the cover is empty (only for the empty graph).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Maximum number of trees any vertex belongs to (property (3),
    /// measured).
    pub fn max_overlap(&self) -> usize {
        let n = self.home.len();
        let mut count = vec![0usize; n];
        for t in &self.trees {
            for (i, c) in count.iter_mut().enumerate().take(n) {
                if t.sub.contains_vertex(VertexId::new(i)) {
                    *c += 1;
                }
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// Largest weighted tree radius across the cover (property (2) requires
    /// `<= (2k-1)·rho` for `k <= log2 n`).
    pub fn max_tree_radius(&self) -> u64 {
        self.trees
            .iter()
            .map(|t| {
                (0..t.sub.graph().num_vertices())
                    .map(|i| t.tree.weighted_depth(VertexId::new(i)))
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// Verifies property (1): for every vertex `v`, the home tree's cluster
    /// contains the whole `B_ρ(v)` in `graph` minus `forbidden`.
    ///
    /// # Errors
    ///
    /// Returns the offending vertex on failure.
    pub fn validate_coverage(&self, graph: &Graph, forbidden: &[bool]) -> Result<(), VertexId> {
        for i in 0..graph.num_vertices() {
            let v = VertexId::new(i);
            let tree = &self.trees[self.home[i]];
            let ball = ftl_graph::shortest_path::ball(graph, v, self.rho, forbidden);
            if !ball.iter().all(|&u| tree.sub.contains_vertex(u)) {
                return Err(v);
            }
        }
        Ok(())
    }

    /// Total number of (vertex, tree) incidences — the driver of label and
    /// table sizes in Sections 4 and 5.
    pub fn total_tree_vertices(&self) -> usize {
        self.trees.iter().map(CoverTree::num_vertices).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_cover(g: &Graph, rho: u64, k: u32) -> TreeCover {
        let tc = TreeCover::build(g, &[], rho, k);
        tc.validate_coverage(g, &[]).expect("coverage");
        let n = g.num_vertices() as f64;
        let k_eff = (k as u64).min((n.log2().ceil() as u64) + 1);
        assert!(
            tc.max_tree_radius() <= (2 * k_eff + 1) * rho,
            "radius {} vs bound {}",
            tc.max_tree_radius(),
            (2 * k_eff + 1) * rho
        );
        // Measured overlap within a small constant of k * n^{1/k}.
        let bound = 4.0 * k as f64 * n.powf(1.0 / k as f64) + 4.0;
        assert!(
            (tc.max_overlap() as f64) <= bound,
            "overlap {} vs bound {}",
            tc.max_overlap(),
            bound
        );
        tc
    }

    #[test]
    fn grid_covers() {
        let g = generators::grid(8, 8);
        for k in [1, 2, 3, 4] {
            for rho in [1, 2, 4] {
                check_cover(&g, rho, k);
            }
        }
    }

    #[test]
    fn path_and_cycle_covers() {
        check_cover(&generators::path(40), 3, 2);
        check_cover(&generators::cycle(30), 2, 3);
    }

    #[test]
    fn random_graph_covers() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_random(60, 0.05, 4, &mut rng);
        for k in [2, 3] {
            check_cover(&g, 4, k);
        }
    }

    #[test]
    fn k1_gives_full_ball_trees() {
        // k = 1: radius <= rho-ish clusters, many trees, stretch 1 territory.
        let g = generators::path(10);
        let tc = check_cover(&g, 2, 1);
        assert!(tc.len() >= 2);
    }

    #[test]
    fn heavy_edge_filter_respected() {
        let mut b = ftl_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 100); // heavy
        b.add_edge(2, 3, 1);
        let g = b.build();
        let heavy: Vec<bool> = g.edges().iter().map(|e| e.weight() > 10).collect();
        let tc = TreeCover::build(&g, &heavy, 2, 2);
        tc.validate_coverage(&g, &heavy).unwrap();
        // No cover tree may contain the heavy edge.
        for t in &tc.trees {
            for (_, e) in t.sub.graph().edge_ids() {
                assert!(e.weight() <= 10);
            }
        }
        // 0,1 and 2,3 end up in different trees (graph effectively split).
        let t01 = tc.home[0];
        let t23 = tc.home[3];
        assert!(!tc.trees[t01].sub.contains_vertex(VertexId::new(3)));
        let _ = t23;
    }

    #[test]
    fn home_tree_contains_ball() {
        let g = generators::grid(5, 5);
        let tc = TreeCover::build(&g, &[], 3, 2);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            let home = &tc.trees[tc.home[i]];
            for u in ftl_graph::shortest_path::ball(&g, v, 3, &[]) {
                assert!(home.sub.contains_vertex(u));
            }
        }
    }

    #[test]
    fn tree_radius_definition_consistent() {
        let g = generators::grid(4, 4);
        let tc = TreeCover::build(&g, &[], 2, 2);
        for t in &tc.trees {
            // SPT depths within the cluster are at least the host distance.
            for li in 0..t.num_vertices() {
                let lv = VertexId::new(li);
                assert!(t.tree.contains(lv), "cluster SPT spans the cluster");
            }
        }
    }

    #[test]
    fn singleton_graph() {
        let g = ftl_graph::GraphBuilder::new(1).build();
        let tc = TreeCover::build(&g, &[], 1, 2);
        assert_eq!(tc.len(), 1);
        assert_eq!(tc.home[0], 0);
    }

    #[test]
    fn disconnected_graph_covered_per_component() {
        let mut b = ftl_graph::GraphBuilder::new(4);
        b.add_unit_edge(0, 1);
        b.add_unit_edge(2, 3);
        let g = b.build();
        let tc = TreeCover::build(&g, &[], 1, 2);
        tc.validate_coverage(&g, &[]).unwrap();
        assert!(tc.len() >= 2);
    }
}
