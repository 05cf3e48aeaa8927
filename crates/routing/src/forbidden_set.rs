//! Forbidden-set routing: the faulty edges are **known** to the source
//! (Section 5.1, Theorem 5.3).
//!
//! The source holds the routing labels of the faults, scans the distance
//! scales upward through *its own* home trees (as in the Section 4 distance
//! decoder), finds the first scale where `s` and `t` are connected in
//! `G_{i,i*(s)} \ F`, extracts the succinct path, and routes straight along
//! it — no trial-and-error, stretch `(8k−2)(|F|+1)`.

use crate::ft_routing::{walk_clean_path, FtRoutingScheme};
use crate::network::{Cursor, RoutingOutcome};
use ftl_graph::shortest_path::distance_avoiding;
use ftl_graph::traversal::forbidden_mask;
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_seeded::DetHashSet;
use ftl_sketch::SketchEdgeLabel;

impl FtRoutingScheme {
    /// The worst-case forbidden-set stretch `(8k−2)(f+1)` of Theorem 5.3.
    pub fn forbidden_set_stretch_bound(&self, num_faults: usize) -> u64 {
        (8 * self.params().k as u64 - 2) * (num_faults as u64 + 1)
    }

    /// Routes from `s` to `t` with the fault set known to `s` upfront
    /// (Theorem 5.3).
    pub fn route_forbidden_set(
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
        let mut cursor = Cursor::new(graph, faults, s);
        for sc in &self.scales {
            // Forbidden-set mode scans the SOURCE's home trees (Section 4).
            let j = sc.cover.home[s.index()];
            let ct = &sc.cover.trees[j];
            let Some(local_t) = ct.sub.to_local_vertex(t) else {
                continue;
            };
            let local_s = ct.sub.to_local_vertex(s).expect("s in home tree");
            out.phases += 1;
            let rt = &sc.trees[j];
            // F_i = F ∩ G_{i,j}, with the first-copy labels (the source was
            // handed DistLabel(e) for every forbidden edge).
            let fl: Vec<SketchEdgeLabel> = fault_vec
                .iter()
                .filter_map(|&e| ct.sub.to_local_edge(e))
                .map(|le| rt.copies[0].edge_label(le))
                .collect();
            let s_label = rt.copies[0].vertex_label(local_s);
            let t_label = rt.copies[0].vertex_label(local_t);
            let decoded = ftl_sketch::decode(&s_label, &t_label, &fl);
            if !decoded.connected {
                continue;
            }
            out.iterations += 1;
            let path = decoded.path.expect("connected carries a path");
            out.max_header_bits = out.max_header_bits.max(
                path.segments.len() * 256 + fl.iter().map(SketchEdgeLabel::bits).sum::<usize>(),
            );
            // The path avoids every known fault, so the walk cannot hit one.
            if walk_clean_path(&mut cursor, ct, rt, local_s, &path) {
                out.delivered = true;
                out.weight = cursor.weight;
                out.hops = cursor.hops;
                return out;
            } else {
                // Decoder failure (probabilistic); try the next scale.
                continue;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft_routing::RoutingParams;
    use ftl_graph::generators;
    use ftl_seeded::Seed;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_fault_set(g: &Graph, f: usize, rng: &mut StdRng) -> DetHashSet<EdgeId> {
        let mut faults = DetHashSet::default();
        while faults.len() < f.min(g.num_edges()) {
            faults.insert(EdgeId::new(rng.gen_range(0..g.num_edges())));
        }
        faults
    }

    fn check_scheme(g: &Graph, k: u32, f: usize, trials: usize, seed: u64) {
        let scheme = FtRoutingScheme::new(g, RoutingParams::new(k, f), Seed::new(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFFFF);
        for _ in 0..trials {
            let s = VertexId::new(rng.gen_range(0..g.num_vertices()));
            let t = VertexId::new(rng.gen_range(0..g.num_vertices()));
            let faults = random_fault_set(g, f, &mut rng);
            let out = scheme.route_forbidden_set(g, s, t, &faults);
            match out.optimal {
                None => assert!(!out.delivered, "must not deliver across a cut"),
                Some(opt) => {
                    assert!(out.delivered, "s={s:?} t={t:?} faults={faults:?}");
                    let bound = scheme.forbidden_set_stretch_bound(faults.len());
                    assert!(
                        out.weight <= bound * opt.max(1),
                        "stretch: weight {} > {bound} * {opt}",
                        out.weight
                    );
                }
            }
        }
    }

    #[test]
    fn grid_forbidden_set_routing() {
        let g = generators::grid(4, 4);
        check_scheme(&g, 2, 2, 25, 11);
    }

    #[test]
    fn cycle_forbidden_set_routing() {
        let g = generators::cycle(12);
        check_scheme(&g, 2, 1, 25, 12);
    }

    #[test]
    fn weighted_graph_forbidden_set_routing() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::random_weighted_grid(3, 4, 4, &mut rng);
        check_scheme(&g, 2, 2, 20, 13);
    }

    #[test]
    fn random_graph_forbidden_set_routing() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::connected_random(24, 0.1, 1, &mut rng);
        check_scheme(&g, 3, 2, 20, 14);
    }

    #[test]
    fn no_faults_direct_delivery() {
        let g = generators::grid(3, 3);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 1), Seed::new(3));
        let out = scheme.route_forbidden_set(
            &g,
            VertexId::new(0),
            VertexId::new(8),
            &DetHashSet::default(),
        );
        assert!(out.delivered);
        assert!(out.stretch().unwrap() <= scheme.forbidden_set_stretch_bound(0) as f64);
    }

    #[test]
    fn self_route_is_free() {
        let g = generators::path(4);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 1), Seed::new(4));
        let out = scheme.route_forbidden_set(
            &g,
            VertexId::new(2),
            VertexId::new(2),
            &DetHashSet::default(),
        );
        assert!(out.delivered);
        assert_eq!(out.weight, 0);
    }
}
