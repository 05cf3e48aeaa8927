//! Fault-tolerant compact routing with **unknown** faults
//! (Section 5.2, Theorems 5.5 and 5.8).
//!
//! Preprocessing: for every distance scale `i` and every tree `T_{i,j}` of
//! the scale's tree cover, build
//!
//! * a [`TreeRouting`] (heavy-light interval routing with Γ blocks),
//! * `f + 1` independent sketch-scheme copies on `G_{i,j}` sharing one
//!   `S_ID` seed (so extended identifiers coincide across copies, footnote
//!   7) but with fresh `S_h` sampling seeds, their cells carrying the
//!   serialized tree-routing labels as aux payloads (Eq. (5)).
//!
//! Routing: phases over scales; in phase `i` the source tries the home tree
//! of the *destination* (`G_{i, i*(t)}`). Each phase runs at most `|F| + 1`
//! trial iterations: decode a succinct path using the iteration's sketch
//! copy and the faults discovered so far, walk it, and on touching an
//! unknown faulty edge fetch its routing label (own table, or a Γ-block
//! round trip — Claim 5.7), append it to the header, and retreat to `s`.
//! Stretch: `32k(|F|+1)²·dist_{G\F}(s,t)` (Claim 5.4).

use crate::network::{Cursor, RoutingOutcome};
use crate::tree_routing::{LabelCodec, NextHop, TreeRouting};
use ftl_graph::shortest_path::distance_avoiding;
use ftl_graph::traversal::forbidden_mask;
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_seeded::{DetHashSet, Seed};
use ftl_sketch::{
    PathSegment, SketchEdgeLabel, SketchParams, SketchScheme, SketchVertexLabel, SuccinctPath,
    VertexAux,
};
use ftl_tree_cover::TreeCover;

/// Parameters of the routing scheme.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct RoutingParams {
    /// Stretch parameter `k`.
    pub k: u32,
    /// Fault budget `f` (number of sketch copies is `f + 1`).
    pub f: usize,
    /// Sketch units per labeling copy (`None` = 16; experiments lower it).
    pub units: Option<usize>,
}

impl RoutingParams {
    /// Default parameters.
    pub fn new(k: u32, f: usize) -> Self {
        RoutingParams { k, f, units: None }
    }

    /// Overrides the sketch-unit count.
    pub fn with_units(self, units: usize) -> Self {
        RoutingParams {
            units: Some(units),
            ..self
        }
    }
}

/// Everything attached to one cover tree `T_{i,j}`.
pub(crate) struct RTree {
    pub(crate) routing: TreeRouting,
    pub(crate) codec: LabelCodec,
    /// `f + 1` sketch copies, shared `S_ID`.
    pub(crate) copies: Vec<SketchScheme>,
}

/// One distance scale.
pub(crate) struct RScale {
    pub(crate) cover: TreeCover,
    pub(crate) trees: Vec<RTree>,
}

/// The routing label `L_route(t)` of Eq. (8): per scale, the home-tree index
/// `i*(t)` and the connectivity vertex label in that tree (whose aux payload
/// is the serialized tree-routing label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteLabel {
    /// One `(home tree index, vertex label)` entry per distance scale
    /// (every vertex has a home tree at every scale — covers are built over
    /// the whole graph).
    pub per_scale: Vec<(usize, SketchVertexLabel)>,
}

impl RouteLabel {
    /// Label size in bits.
    pub fn bits(&self) -> usize {
        self.per_scale
            .iter()
            .map(|(_, l)| 32 + 32 + 64 + l.aux.len())
            .sum()
    }
}

/// The fault-tolerant compact routing scheme (Theorem 5.8).
pub struct FtRoutingScheme {
    params: RoutingParams,
    pub(crate) scales: Vec<RScale>,
}

impl FtRoutingScheme {
    /// Preprocesses `graph`: builds covers, tree routings and `f + 1` sketch
    /// copies per cover tree.
    pub fn new(graph: &Graph, params: RoutingParams, seed: Seed) -> Self {
        let num_scales = graph.num_distance_scales() as usize;
        let mut scales = Vec::with_capacity(num_scales);
        for i in 0..num_scales {
            let radius = 1u64 << i.min(62);
            let heavy: Vec<bool> = graph.edges().iter().map(|e| e.weight() > radius).collect();
            let cover = TreeCover::build(graph, &heavy, radius, params.k);
            // Per-source preprocessing: every cover tree builds its routing
            // tables and `f + 1` sketch copies independently, so the sweep
            // runs one tree per core (see `ftl-par`). Each item is
            // milliseconds of work, so parallelize from two trees up.
            let trees: Vec<RTree> = ftl_par::par_map_indexed(cover.trees.len(), 2, |j| {
                let ct = &cover.trees[j];
                let local = ct.sub.graph();
                let routing = TreeRouting::new(local, &ct.tree, params.f);
                let codec = routing.codec();
                let aux = VertexAux {
                    bits: local
                        .vertices()
                        .map(|v| codec.encode(routing.label(v)))
                        .collect(),
                };
                let sp = SketchParams::for_graph(local)
                    .with_aux_bits(codec.bits())
                    .with_units(params.units.unwrap_or(16));
                let tree_seed = seed.derive(((i as u64) << 24) | j as u64);
                let sid = tree_seed.derive(0x1D);
                let copies: Vec<SketchScheme> = (0..=params.f)
                    .map(|c| {
                        SketchScheme::label_with_tree(
                            local,
                            &ct.tree,
                            &sp,
                            sid,
                            tree_seed.derive(0x100 + c as u64),
                            Some(&aux),
                        )
                        .expect("cover tree spans its cluster")
                    })
                    .collect();
                RTree {
                    routing,
                    codec,
                    copies,
                }
            });
            scales.push(RScale { cover, trees });
        }
        FtRoutingScheme { params, scales }
    }

    /// Scheme parameters.
    pub fn params(&self) -> RoutingParams {
        self.params
    }

    /// Number of distance scales.
    pub fn num_scales(&self) -> usize {
        self.scales.len()
    }

    /// The routing label of `t` (Eq. (8)).
    pub fn route_label(&self, t: VertexId) -> RouteLabel {
        let per_scale = self
            .scales
            .iter()
            .map(|sc| {
                let j = sc.cover.home[t.index()];
                let lt = sc.cover.trees[j]
                    .sub
                    .to_local_vertex(t)
                    .expect("home tree contains t");
                (j, sc.trees[j].copies[0].vertex_label(lt))
            })
            .collect();
        RouteLabel { per_scale }
    }

    /// The worst-case stretch bound `32k(f+1)²` of Theorem 5.8.
    pub fn stretch_bound(&self, num_faults: usize) -> u64 {
        32 * self.params.k as u64 * (num_faults as u64 + 1).pow(2)
    }

    /// Size in bits of `v`'s routing table (Eq. (9) as modified by
    /// Claim 5.7): per tree containing `v` — the tree-routing table, one
    /// connectivity vertex label, and the `f+1`-copy labels of the tree
    /// edges whose Γ block contains `v`.
    pub fn table_bits(&self, v: VertexId) -> usize {
        let mut bits = 0usize;
        for sc in &self.scales {
            for (j, ct) in sc.cover.trees.iter().enumerate() {
                let Some(lv) = ct.sub.to_local_vertex(v) else {
                    continue;
                };
                let rt = &sc.trees[j];
                bits += rt.routing.table_bits();
                bits += rt.copies[0].vertex_label_bits();
                for e in rt.routing.edges_stored_by(lv) {
                    for copy in &rt.copies {
                        bits += copy.edge_label(e).bits();
                    }
                }
            }
        }
        bits
    }

    /// Largest routing table across all vertices, in bits.
    pub fn max_table_bits(&self, graph: &Graph) -> usize {
        graph
            .vertices()
            .map(|v| self.table_bits(v))
            .max()
            .unwrap_or(0)
    }

    /// Total table space across all vertices, in bits.
    pub fn total_table_bits(&self, graph: &Graph) -> usize {
        graph.vertices().map(|v| self.table_bits(v)).sum()
    }

    /// Routes a message from `s` to the holder of `label(t)` while the fault
    /// set is unknown (discovered on contact). Implements the phase /
    /// iteration algorithm of Section 5.2.
    pub fn route(
        &self,
        graph: &Graph,
        s: VertexId,
        t: VertexId,
        faults: &DetHashSet<EdgeId>,
    ) -> RoutingOutcome {
        let fault_vec: Vec<EdgeId> = faults.iter().copied().collect();
        let mask = forbidden_mask(graph, &fault_vec);
        let optimal = distance_avoiding(graph, s, t, &mask);
        let mut out = RoutingOutcome {
            delivered: false,
            weight: 0,
            hops: 0,
            optimal,
            phases: 0,
            iterations: 0,
            faults_discovered: 0,
            max_header_bits: 0,
        };
        if s == t {
            out.delivered = true;
            return out;
        }
        let t_label = self.route_label(t);
        let mut cursor = Cursor::new(graph, faults, s);
        let mut discovered_global: DetHashSet<EdgeId> = DetHashSet::default();
        for (i, sc) in self.scales.iter().enumerate() {
            // Phase i uses the destination's home tree G_{i, i*(t)}.
            let (j, local_t_label) = t_label.per_scale[i].clone();
            let ct = &sc.cover.trees[j];
            let Some(local_s) = ct.sub.to_local_vertex(s) else {
                continue; // s not in T_i: next phase
            };
            let Some(_) = ct.sub.to_local_vertex(t) else {
                continue;
            };
            out.phases += 1;
            let rt = &sc.trees[j];
            // Known faults of this phase: (local edge, per-copy labels).
            let mut known: Vec<(EdgeId, Vec<SketchEdgeLabel>)> = Vec::new();
            let s_label = rt.copies[0].vertex_label(local_s);
            'iterations: for ell in 0..=self.params.f {
                out.iterations += 1;
                let copy = ell.min(rt.copies.len() - 1);
                let fl: Vec<SketchEdgeLabel> =
                    known.iter().map(|(_, ls)| ls[copy].clone()).collect();
                let decoded = ftl_sketch::decode(&s_label, &local_t_label, &fl);
                if !decoded.connected {
                    break 'iterations; // next phase
                }
                let path = decoded.path.expect("connected carries a path");
                // Header: path description + the f+1-copy labels of every
                // known fault + bookkeeping indices.
                let header_bits = succinct_path_bits(&path)
                    + known
                        .iter()
                        .map(|(_, ls)| ls.iter().map(SketchEdgeLabel::bits).sum::<usize>())
                        .sum::<usize>()
                    + 96;
                out.max_header_bits = out.max_header_bits.max(header_bits);
                match walk_path(&mut cursor, ct, rt, local_s, &path) {
                    WalkResult::Arrived => {
                        out.delivered = true;
                        out.weight = cursor.weight;
                        out.hops = cursor.hops;
                        out.faults_discovered = discovered_global.len();
                        return out;
                    }
                    WalkResult::FaultDiscovered { local_edge, labels } => {
                        let host = ct.sub.to_host_edge(local_edge);
                        discovered_global.insert(host);
                        if !known.iter().any(|(e, _)| *e == local_edge) {
                            known.push((local_edge, labels));
                        }
                        // Message already retreated to s inside walk_path.
                        debug_assert_eq!(cursor.at, s);
                        continue 'iterations;
                    }
                    WalkResult::Stuck => {
                        // Could not fetch a fault's label (more faults than
                        // the scheme's budget); abort.
                        out.weight = cursor.weight;
                        out.hops = cursor.hops;
                        out.faults_discovered = discovered_global.len();
                        return out;
                    }
                }
            }
        }
        out.weight = cursor.weight;
        out.hops = cursor.hops;
        out.faults_discovered = discovered_global.len();
        out
    }
}

/// Bits of a succinct path description inside a header.
fn succinct_path_bits(path: &SuccinctPath) -> usize {
    path.segments
        .iter()
        .map(|seg| match seg {
            PathSegment::RecoveryEdge { eid, .. } => eid.to_bits().len(),
            PathSegment::TreePath { from, to } => 2 * (32 + 64) + from.aux.len() + to.aux.len(),
        })
        .sum()
}

/// Result of walking one succinct path attempt.
enum WalkResult {
    Arrived,
    FaultDiscovered {
        local_edge: EdgeId,
        labels: Vec<SketchEdgeLabel>,
    },
    Stuck,
}

/// Walks the succinct path from `local_s`, charging the cursor. On touching
/// a faulty edge, fetches its labels (own table or Γ round trip), retreats
/// to the start, and reports the discovery.
fn walk_path(
    cursor: &mut Cursor<'_>,
    ct: &ftl_tree_cover::CoverTree,
    rt: &RTree,
    local_s: VertexId,
    path: &SuccinctPath,
) -> WalkResult {
    let sub = &ct.sub;
    let local = sub.graph();
    let start_host = cursor.at;
    let mut cur = local_s;
    let mut trail: Vec<EdgeId> = Vec::new(); // host edges, forward order
    let cross =
        |cursor: &mut Cursor<'_>, trail: &mut Vec<EdgeId>, cur: &mut VertexId, le: EdgeId| {
            let he = sub.to_host_edge(le);
            cursor.cross(he);
            trail.push(he);
            *cur = local.edge(le).other(*cur);
        };
    for seg in &path.segments {
        match seg {
            PathSegment::RecoveryEdge { eid, from, to } => {
                debug_assert_eq!(from.id, cur.raw());
                let port = if eid.lo == from.id {
                    eid.port_lo
                } else {
                    eid.port_hi
                };
                let nb = local
                    .port(cur, port as usize)
                    .expect("recovery edge port valid");
                let he = sub.to_host_edge(nb.edge);
                if cursor.probe(he) {
                    // Non-tree fault: its label is its EID, already in the
                    // header; all copies share it (same S_ID).
                    let labels = rt.copies.iter().map(|c| c.edge_label(nb.edge)).collect();
                    cursor.retreat(&trail, start_host);
                    return WalkResult::FaultDiscovered {
                        local_edge: nb.edge,
                        labels,
                    };
                }
                cross(cursor, &mut trail, &mut cur, nb.edge);
                debug_assert_eq!(cur.raw(), to.id);
            }
            PathSegment::TreePath { from, to } => {
                debug_assert_eq!(from.id, cur.raw());
                let target = rt.codec.decode(&to.aux);
                loop {
                    let table = rt.routing.table(cur);
                    let Some((hop, gamma_ports)) = TreeRouting::next_hop_with_gamma(table, &target)
                    else {
                        return WalkResult::Stuck;
                    };
                    let NextHop::Port(p) = hop else {
                        break; // arrived at segment end
                    };
                    let nb = local.port(cur, p as usize).expect("tree port valid");
                    let he = sub.to_host_edge(nb.edge);
                    if cursor.probe(he) {
                        // Tree fault. Fetch its label: own table if cur is a
                        // Γ member (always true when moving up to the
                        // parent), otherwise a Γ-block round trip.
                        let has_it = rt.routing.gamma_members(nb.edge).contains(&cur);
                        if !has_it {
                            let mut fetched = false;
                            for gp in &gamma_ports {
                                let gnb = local.port(cur, *gp as usize).expect("gamma port");
                                if gnb.edge == nb.edge {
                                    continue; // that's the faulty edge itself
                                }
                                let ghe = sub.to_host_edge(gnb.edge);
                                if cursor.probe(ghe) {
                                    continue; // this Γ member is unreachable
                                }
                                cursor.round_trip(ghe);
                                fetched = true;
                                break;
                            }
                            if !fetched {
                                return WalkResult::Stuck;
                            }
                        }
                        let labels = rt.copies.iter().map(|c| c.edge_label(nb.edge)).collect();
                        cursor.retreat(&trail, start_host);
                        return WalkResult::FaultDiscovered {
                            local_edge: nb.edge,
                            labels,
                        };
                    }
                    cross(cursor, &mut trail, &mut cur, nb.edge);
                }
                debug_assert_eq!(cur.raw(), to.id);
            }
        }
    }
    WalkResult::Arrived
}

/// Shared helper for the forbidden-set variant: walk a path that is
/// guaranteed fault-free.
pub(crate) fn walk_clean_path(
    cursor: &mut Cursor<'_>,
    ct: &ftl_tree_cover::CoverTree,
    rt: &RTree,
    local_s: VertexId,
    path: &SuccinctPath,
) -> bool {
    matches!(
        walk_path(cursor, ct, rt, local_s, path),
        WalkResult::Arrived
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_fault_set(g: &Graph, f: usize, rng: &mut StdRng) -> DetHashSet<EdgeId> {
        let mut faults = DetHashSet::default();
        while faults.len() < f.min(g.num_edges()) {
            faults.insert(EdgeId::new(rng.gen_range(0..g.num_edges())));
        }
        faults
    }

    fn check_ft_routing(g: &Graph, k: u32, f: usize, trials: usize, seed: u64) {
        let scheme = FtRoutingScheme::new(g, RoutingParams::new(k, f), Seed::new(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for trial in 0..trials {
            let s = VertexId::new(rng.gen_range(0..g.num_vertices()));
            let t = VertexId::new(rng.gen_range(0..g.num_vertices()));
            let faults = random_fault_set(g, f, &mut rng);
            let out = scheme.route(g, s, t, &faults);
            match out.optimal {
                None => assert!(!out.delivered, "trial {trial}: delivered across a cut"),
                Some(opt) => {
                    assert!(
                        out.delivered,
                        "trial {trial}: undelivered s={s:?} t={t:?} faults={faults:?}"
                    );
                    let bound = scheme.stretch_bound(faults.len());
                    assert!(
                        out.weight <= bound * opt.max(1),
                        "trial {trial}: stretch {} > {bound} x {opt}",
                        out.weight
                    );
                }
            }
        }
    }

    #[test]
    fn grid_ft_routing() {
        let g = generators::grid(4, 4);
        check_ft_routing(&g, 2, 2, 20, 21);
    }

    #[test]
    fn cycle_ft_routing() {
        let g = generators::cycle(12);
        check_ft_routing(&g, 2, 1, 20, 22);
    }

    #[test]
    fn random_graph_ft_routing() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::connected_random(20, 0.12, 1, &mut rng);
        check_ft_routing(&g, 2, 2, 15, 23);
    }

    #[test]
    fn weighted_graph_ft_routing() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::random_weighted_grid(3, 4, 4, &mut rng);
        check_ft_routing(&g, 2, 1, 15, 24);
    }

    #[test]
    fn star_high_degree_gamma_path() {
        // High-degree root: Γ blocks are non-trivial, and failing tree edges
        // forces label fetches through siblings.
        let g = generators::star(14);
        check_ft_routing(&g, 2, 2, 20, 25);
    }

    #[test]
    fn zero_faults_cheap_delivery() {
        let g = generators::grid(3, 3);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 1), Seed::new(5));
        let out = scheme.route(
            &g,
            VertexId::new(0),
            VertexId::new(8),
            &DetHashSet::default(),
        );
        assert!(out.delivered);
        assert_eq!(out.faults_discovered, 0);
        assert!(out.iterations >= 1);
        assert!(out.stretch().unwrap() <= scheme.stretch_bound(0) as f64);
    }

    #[test]
    fn discovery_counts_reported() {
        // Path graph: failing the middle edge with s,t on opposite sides is
        // a genuine cut; on the same side routing succeeds.
        let g = generators::path(8);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 1), Seed::new(6));
        let faults: DetHashSet<EdgeId> = [EdgeId::new(3)].into_iter().collect();
        let cut = scheme.route(&g, VertexId::new(0), VertexId::new(7), &faults);
        assert!(!cut.delivered);
        let same_side = scheme.route(&g, VertexId::new(0), VertexId::new(3), &faults);
        assert!(same_side.delivered);
    }

    #[test]
    fn label_and_table_accounting() {
        let g = generators::grid(4, 4);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 1), Seed::new(7));
        let label = scheme.route_label(VertexId::new(5));
        assert!(label.bits() > 0);
        assert_eq!(label.per_scale.len(), scheme.num_scales());
        let max_bits = scheme.max_table_bits(&g);
        let total_bits = scheme.total_table_bits(&g);
        assert!(max_bits > 0);
        assert!(total_bits >= max_bits);
        assert!(total_bits <= max_bits * g.num_vertices());
    }

    #[test]
    fn header_bits_grow_with_discoveries() {
        let g = generators::cycle(10);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 2), Seed::new(8));
        let clean = scheme.route(
            &g,
            VertexId::new(0),
            VertexId::new(5),
            &DetHashSet::default(),
        );
        // Put a fault right on the tree path between 0 and 5.
        let faults: DetHashSet<EdgeId> = [EdgeId::new(2)].into_iter().collect();
        let dirty = scheme.route(&g, VertexId::new(0), VertexId::new(5), &faults);
        assert!(dirty.delivered);
        if dirty.faults_discovered > 0 {
            assert!(dirty.max_header_bits > clean.max_header_bits);
        }
    }

    #[test]
    fn adversarial_bridge_faults() {
        // Two triangles and a bridge; fail one triangle edge + test routing
        // across the bridge.
        let mut b = ftl_graph::GraphBuilder::new(6);
        b.add_unit_edge(0, 1);
        b.add_unit_edge(1, 2);
        b.add_unit_edge(2, 0);
        b.add_unit_edge(3, 4);
        b.add_unit_edge(4, 5);
        b.add_unit_edge(5, 3);
        let bridge = b.add_unit_edge(0, 3);
        let g = b.build();
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 2), Seed::new(9));
        let faults: DetHashSet<EdgeId> = [EdgeId::new(0)].into_iter().collect();
        let out = scheme.route(&g, VertexId::new(1), VertexId::new(4), &faults);
        assert!(out.delivered);
        let faults: DetHashSet<EdgeId> = [bridge].into_iter().collect();
        let out = scheme.route(&g, VertexId::new(1), VertexId::new(4), &faults);
        assert!(!out.delivered);
    }
}
