//! Workload generators: the graph families used by the tests, examples, and
//! every experiment binary in `crates/bench/src/bin/` (listed in the README).
//!
//! All randomized generators take an explicit [`rand::Rng`] so experiments
//! are reproducible from a seed.

use crate::graph::{Graph, GraphBuilder};
use crate::ids::VertexId;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Path graph `0 - 1 - ... - (n-1)` with unit weights.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0);
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_unit_edge(i, i + 1);
    }
    b.build()
}

/// Cycle graph on `n >= 3` vertices with unit weights.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_unit_edge(i, (i + 1) % n);
    }
    b.build()
}

/// Complete graph `K_n` with unit weights.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in i + 1..n {
            b.add_unit_edge(i, j);
        }
    }
    b.build()
}

/// Star graph: center 0 connected to `n-1` leaves.
pub fn star(n: usize) -> Graph {
    assert!(n > 0);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_unit_edge(0, i);
    }
    b.build()
}

/// `rows x cols` grid with unit weights; vertex `(r, c)` has index
/// `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    weighted_grid(rows, cols, |_| 1)
}

/// Grid with per-edge weights chosen by `weight_of(edge_counter)`; used as a
/// "road network" stand-in in the distance experiments.
pub fn weighted_grid(rows: usize, cols: usize, mut weight_of: impl FnMut(usize) -> u64) -> Graph {
    assert!(rows > 0 && cols > 0);
    let mut b = GraphBuilder::new(rows * cols);
    let mut counter = 0usize;
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), weight_of(counter));
                counter += 1;
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), weight_of(counter));
                counter += 1;
            }
        }
    }
    b.build()
}

/// Random grid weights in `1..=max_w`.
pub fn random_weighted_grid(rows: usize, cols: usize, max_w: u64, rng: &mut impl Rng) -> Graph {
    let weights: Vec<u64> = (0..(2 * rows * cols))
        .map(|_| rng.gen_range(1..=max_w))
        .collect();
    weighted_grid(rows, cols, |i| weights[i % weights.len()])
}

/// Uniform random spanning tree-ish: a random recursive tree (each vertex
/// `i >= 1` attaches to a uniformly random earlier vertex).
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    assert!(n > 0);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        b.add_unit_edge(p, i);
    }
    b.build()
}

/// Caterpillar tree: a spine of `spine` vertices, each with `legs` leaves.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0);
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for i in 0..spine - 1 {
        b.add_unit_edge(i, i + 1);
    }
    let mut next = spine;
    for i in 0..spine {
        for _ in 0..legs {
            b.add_unit_edge(i, next);
            next += 1;
        }
    }
    b.build()
}

/// A biased coin that lands exactly as `rng.gen_bool(p)` would, from the
/// same single draw per flip, with the range check and the float work done
/// once. `gen_bool` tests `y · 2⁻⁵³ < p` for the top 53 bits `y` of the
/// draw; scaling by a power of two is exact in `f64`, so for an integer
/// `y < 2⁵³` that is `y < ⌈p · 2⁵³⌉`.
#[derive(Debug, Clone, Copy)]
struct Coin {
    threshold: u64,
}

impl Coin {
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`, as `gen_bool` does.
    fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Coin {
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    #[inline]
    fn flip(self, rng: &mut impl RngCore) -> bool {
        rng.next_u64() >> 11 < self.threshold
    }
}

/// Erdős–Rényi `G(n, p)` with unit weights (not necessarily connected).
pub fn erdos_renyi(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let coin = Coin::new(p);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in i + 1..n {
            if coin.flip(rng) {
                b.add_unit_edge(i, j);
            }
        }
    }
    b.build()
}

/// Connected Erdős–Rényi: a random recursive tree backbone plus `G(n, p)`
/// extra edges. Weights are `1` unless `max_w > 1`, in which case each edge
/// weight is uniform in `1..=max_w`.
pub fn connected_random(n: usize, p: f64, max_w: u64, rng: &mut impl Rng) -> Graph {
    assert!(n > 0);
    let coin = Coin::new(p);
    let mut b = GraphBuilder::new(n);
    let w = |rng: &mut dyn RngCore| {
        if max_w <= 1 {
            1
        } else {
            rng.gen_range(1..=max_w)
        }
    };
    // Random tree backbone over a shuffled vertex order so the tree is not
    // biased toward low ids.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let wt = w(rng);
        b.add_edge(order[i], order[j], wt);
    }
    for i in 0..n {
        for j in i + 1..n {
            if coin.flip(rng) {
                let wt = w(rng);
                b.add_edge(i, j, wt);
            }
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a small clique of
/// `m_attach + 1` seed vertices, then every new vertex attaches `m_attach`
/// edges to existing vertices sampled proportionally to their degree (via
/// the endpoint-list trick: picking a uniform endpoint of a uniform
/// existing edge is exactly degree-proportional sampling). Always
/// connected; matches the scale-free topology the DRFE-R experiments use
/// for their 1k–5k-node tables.
///
/// # Panics
///
/// Panics if `m_attach == 0` or `n <= m_attach`.
pub fn barabasi_albert(n: usize, m_attach: usize, rng: &mut impl Rng) -> Graph {
    assert!(m_attach > 0, "attachment count must be positive");
    assert!(
        n > m_attach,
        "need more vertices than attachments per vertex"
    );
    let seed_n = m_attach + 1;
    let mut b = GraphBuilder::new(n);
    // Flat endpoint list: every edge contributes both endpoints, so a
    // uniform draw from it is a degree-proportional vertex draw.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * m_attach * n);
    for i in 0..seed_n {
        for j in i + 1..seed_n {
            b.add_unit_edge(i, j);
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    let mut targets: Vec<usize> = Vec::with_capacity(m_attach);
    for v in seed_n..n {
        targets.clear();
        while targets.len() < m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_unit_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// The stretch lower-bound gadget of Theorem 1.6 / Figure 4: `f + 1`
/// internally disjoint `s`–`t` paths, each with `len` edges.
///
/// Returns `(graph, s, t, last_edge_of_path)` where `last_edge_of_path[i]`
/// is the edge id of the final (t-adjacent) edge of path `i`; the adversary
/// fails all but one of these.
pub fn lower_bound_gadget(
    f: usize,
    len: usize,
) -> (Graph, VertexId, VertexId, Vec<crate::ids::EdgeId>) {
    assert!(len >= 1);
    let paths = f + 1;
    // s = 0, t = 1, then (len - 1) internal vertices per path.
    let n = 2 + paths * (len - 1);
    let mut b = GraphBuilder::new(n);
    let mut last_edges = Vec::with_capacity(paths);
    for pth in 0..paths {
        let mut prev = 0usize; // s
        for step in 0..len - 1 {
            let v = 2 + pth * (len - 1) + step;
            b.add_unit_edge(prev, v);
            prev = v;
        }
        let e = b.add_unit_edge(prev, 1); // final hop into t
        last_edges.push(e);
    }
    (b.build(), VertexId::new(0), VertexId::new(1), last_edges)
}

/// A small fat-tree-like three-level datacenter topology: `pods` pods, each
/// with `tors` top-of-rack switches and `hosts_per_tor` hosts, plus `cores`
/// core switches connected to every pod aggregation switch.
///
/// Returns the graph; hosts are the last `pods * tors * hosts_per_tor`
/// vertices.
pub fn fat_tree_like(pods: usize, tors: usize, hosts_per_tor: usize, cores: usize) -> Graph {
    assert!(pods > 0 && tors > 0 && cores > 0);
    // layout: [cores][pods aggregation][pods*tors ToR][hosts]
    let agg0 = cores;
    let tor0 = agg0 + pods;
    let host0 = tor0 + pods * tors;
    let n = host0 + pods * tors * hosts_per_tor;
    let mut b = GraphBuilder::new(n);
    for p in 0..pods {
        let agg = agg0 + p;
        for c in 0..cores {
            b.add_unit_edge(c, agg);
        }
        for t in 0..tors {
            let tor = tor0 + p * tors + t;
            b.add_unit_edge(agg, tor);
            for h in 0..hosts_per_tor {
                let host = host0 + (p * tors + t) * hosts_per_tor + h;
                b.add_unit_edge(tor, host);
            }
        }
    }
    b.build()
}

/// First host vertex index of [`fat_tree_like`] with the same parameters.
pub fn fat_tree_first_host(pods: usize, tors: usize, cores: usize) -> usize {
    cores + pods + pods * tors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert!(is_connected(&p));
        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        for v in c.vertices() {
            assert_eq!(c.degree(v), 2);
        }
    }

    #[test]
    fn complete_edge_count() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert!(is_connected(&g));
    }

    #[test]
    fn star_degrees() {
        let g = star(7);
        assert_eq!(g.degree(VertexId::new(0)), 6);
        assert_eq!(g.degree(VertexId::new(3)), 1);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // 3*3 horizontal + 2*4 vertical = 9 + 8
        assert_eq!(g.num_edges(), 17);
        assert!(is_connected(&g));
    }

    #[test]
    fn weighted_grid_weights() {
        let g = weighted_grid(2, 2, |i| (i + 1) as u64);
        assert!(g.edges().iter().all(|e| e.weight() >= 1));
        assert!(g.max_weight() >= 2);
    }

    #[test]
    fn random_tree_is_spanning_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_tree(50, &mut rng);
        assert_eq!(g.num_edges(), 49);
        assert!(is_connected(&g));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 3);
        assert_eq!(g.num_vertices(), 16);
        assert_eq!(g.num_edges(), 15);
        assert!(is_connected(&g));
    }

    #[test]
    fn connected_random_is_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1, 2, 10, 64] {
            let g = connected_random(n, 0.05, 8, &mut rng);
            assert!(is_connected(&g), "n = {n}");
            assert!(g.num_edges() >= n.saturating_sub(1));
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g0 = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(g0.num_edges(), 0);
        let g1 = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(g1.num_edges(), 45);
    }

    /// A source that returns the same draw every time.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn coin_lands_like_gen_bool() {
        let two53 = (1u64 << 53) as f64;
        let probabilities = [
            0.0,
            1.0,
            1.0 / two53,
            12_345.0 / two53,
            0.5,
            ((1u64 << 53) - 1) as f64 / two53,
            0.3,
            1.0 / 3.0,
            8.0 / 1024.0,
            f64::MIN_POSITIVE,
        ];
        for p in probabilities {
            let coin = Coin::new(p);
            if p * two53 == (p * two53).floor() {
                // p = k·2⁻⁵³ exactly: the threshold is k.
                assert_eq!(coin.threshold as f64, p * two53, "p = {p}");
            }
            // Draws whose top 53 bits sit just either side of the
            // threshold, with the 11 discarded low bits clear and set.
            let t = coin.threshold as i128;
            for y in [t - 2, t - 1, t, t + 1, 0, (1 << 53) - 1] {
                let Ok(y) = u64::try_from(y) else { continue };
                if y >= 1 << 53 {
                    continue;
                }
                for low in [0, 0x7FF] {
                    let draw = y << 11 | low;
                    assert_eq!(
                        coin.flip(&mut Fixed(draw)),
                        Fixed(draw).gen_bool(p),
                        "p = {p}, y = {y}"
                    );
                }
            }
        }
        assert!(!Coin::new(0.0).flip(&mut Fixed(0)));
        assert!(Coin::new(1.0).flip(&mut Fixed(u64::MAX)));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn coin_rejects_probability_above_one() {
        Coin::new(1.5);
    }

    #[test]
    fn erdos_renyi_matches_per_pair_gen_bool() {
        for (seed, p) in [(1, 0.0), (2, 0.05), (3, 1.0 / 3.0), (4, 1.0)] {
            let g = erdos_renyi(40, p, &mut StdRng::seed_from_u64(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut want = Vec::new();
            for i in 0..40 {
                for j in i + 1..40 {
                    if rng.gen_bool(p) {
                        want.push((i, j));
                    }
                }
            }
            let got: Vec<(usize, usize)> = g
                .edges()
                .iter()
                .map(|e| (e.u().index(), e.v().index()))
                .collect();
            assert_eq!(got, want, "p = {p}");
        }
    }

    #[test]
    fn barabasi_albert_shape_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(9);
        let (n, m_attach) = (200, 3);
        let g = barabasi_albert(n, m_attach, &mut rng);
        assert_eq!(g.num_vertices(), n);
        // seed clique edges + m_attach per later vertex
        let seed_edges = (m_attach + 1) * m_attach / 2;
        assert_eq!(g.num_edges(), seed_edges + (n - m_attach - 1) * m_attach);
        assert!(is_connected(&g));
        // Preferential attachment is heavy-tailed: the max degree must be
        // well above the mean (2m/n ≈ 6); a uniform wiring of the same size
        // stays close to it.
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg >= 3 * m_attach, "max degree {max_deg} not hub-like");
        // Every non-seed vertex got exactly distinct targets (no self
        // loops, no parallel edges from one attachment round).
        for v in g.vertices() {
            assert!(g.neighbors(v).iter().all(|nb| {
                let e = g.edge(nb.edge);
                e.u() != e.v()
            }));
        }
    }

    #[test]
    #[should_panic]
    fn barabasi_albert_rejects_tiny_n() {
        let mut rng = StdRng::seed_from_u64(1);
        barabasi_albert(3, 3, &mut rng);
    }

    #[test]
    fn lower_bound_gadget_shape() {
        let (g, s, t, last) = lower_bound_gadget(3, 5);
        assert_eq!(last.len(), 4);
        assert!(is_connected(&g));
        // Each path has `len` edges; s-t distance is len.
        let d = crate::shortest_path::distance_avoiding(&g, s, t, &[]);
        assert_eq!(d, Some(5));
        // Cutting the last edge of every path but one keeps distance len.
        let mask = crate::traversal::forbidden_mask(&g, &last[1..]);
        let d = crate::shortest_path::distance_avoiding(&g, s, t, &mask);
        assert_eq!(d, Some(5));
        // Cutting all last edges disconnects.
        let mask = crate::traversal::forbidden_mask(&g, &last);
        assert_eq!(
            crate::shortest_path::distance_avoiding(&g, s, t, &mask),
            None
        );
    }

    #[test]
    fn lower_bound_gadget_len_one() {
        let (g, s, t, last) = lower_bound_gadget(2, 1);
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(last.len(), 3); // three parallel s-t edges
        assert_eq!(
            crate::shortest_path::distance_avoiding(&g, s, t, &[]),
            Some(1)
        );
    }

    #[test]
    fn fat_tree_connected() {
        let g = fat_tree_like(3, 2, 2, 2);
        assert!(is_connected(&g));
        let h0 = fat_tree_first_host(3, 2, 2);
        assert!(h0 < g.num_vertices());
        // hosts are leaves
        assert_eq!(g.degree(VertexId::new(h0)), 1);
    }
}
