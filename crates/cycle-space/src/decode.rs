//! Decoding algorithms for the cycle-space scheme (Sections 3.1.2–3.1.3).

use crate::batch::EliminationScratch;
use crate::labeling::{CycleSpaceEdgeLabel, CycleSpaceVertexLabel};
use ftl_gf2::BitVec;

/// Fast decoder (Lemma 3.5), in the null-space form of [`crate::batch`]:
/// the faults are eliminated once into their null-space generators and the
/// query is a parity test per generator, as in the serving engine.
///
/// Returns `Some(subset)` — the positions in `faults` of a disconnecting
/// induced edge cut `F′` — when `s` and `t` are separated, `None` when they
/// remain connected (w.h.p.).
pub fn decode_with_certificate<'a>(
    s: &CycleSpaceVertexLabel,
    t: &CycleSpaceVertexLabel,
    faults: impl IntoIterator<Item = &'a CycleSpaceEdgeLabel>,
) -> Option<Vec<usize>> {
    let mut faults = faults.into_iter().peekable();
    let width = faults.peek().map_or(0, |e| e.phi.len());
    let mut scratch = EliminationScratch::default();
    scratch.reset(width, faults.size_hint().0);
    for e in faults {
        scratch.push_fault(e.phi.words(), e.tree_child_interval());
    }
    let eliminated = scratch.eliminate();
    let gen = eliminated.separating_generator(&s.anc, &t.anc, &mut BitVec::zeros(0))?;
    eliminated.fault_positions(gen).map(Iterator::collect)
}

/// Fast decoder, boolean form: `true` iff `s` and `t` are **connected** in
/// `G \ F` (w.h.p.).
pub fn decode<'a>(
    s: &CycleSpaceVertexLabel,
    t: &CycleSpaceVertexLabel,
    faults: impl IntoIterator<Item = &'a CycleSpaceEdgeLabel>,
) -> bool {
    decode_with_certificate(s, t, faults).is_none()
}

/// The exponential-time decoder of Section 3.1.2: enumerate every
/// `F′ ⊆ F`, test the induced-cut condition via the XOR of `φ`, and the
/// side condition via the parities of `n′_s(F′), n′_t(F′)`.
///
/// Kept as the differential-testing oracle for [`decode`]; limited to
/// `|F| <= 20`.
///
/// # Panics
///
/// Panics if more than 20 faults are supplied.
pub fn decode_brute_force(
    s: &CycleSpaceVertexLabel,
    t: &CycleSpaceVertexLabel,
    faults: &[CycleSpaceEdgeLabel],
) -> bool {
    assert!(faults.len() <= 20, "too many faults for brute force");
    if s.anc == t.anc {
        return true;
    }
    let f = faults.len();
    let b = faults.first().map(|e| e.phi.len()).unwrap_or(0);
    for mask in 1u64..(1u64 << f) {
        let mut xor = BitVec::zeros(b);
        let mut ns = 0usize; // edges on root-s path, not root-t
        let mut nt = 0usize; // edges on root-t path, not root-s
        for (i, e) in faults.iter().enumerate() {
            if (mask >> i) & 1 == 0 {
                continue;
            }
            xor.xor_assign(&e.phi);
            let on_s = e.on_root_path_of(&s.anc);
            let on_t = e.on_root_path_of(&t.anc);
            if on_s && !on_t {
                ns += 1;
            }
            if on_t && !on_s {
                nt += 1;
            }
        }
        if xor.is_zero() && (ns % 2) != (nt % 2) {
            return false; // found an induced cut separating s from t
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::CycleSpaceScheme;
    use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
    use ftl_graph::{generators, EdgeId, Graph, VertexId};
    use ftl_seeded::Seed;

    fn check_all_pairs(g: &Graph, faults: &[EdgeId], seed: u64) {
        let scheme = CycleSpaceScheme::label(g, faults.len(), Seed::new(seed)).unwrap();
        let flabels: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let mask = forbidden_mask(g, faults);
        for a in 0..g.num_vertices() {
            for b in 0..g.num_vertices() {
                let (s, t) = (VertexId::new(a), VertexId::new(b));
                let truth = connected_avoiding(g, s, t, &mask);
                let fast = decode(&scheme.vertex_label(s), &scheme.vertex_label(t), &flabels);
                assert_eq!(fast, truth, "pair ({a},{b}), faults {faults:?}");
                let slow =
                    decode_brute_force(&scheme.vertex_label(s), &scheme.vertex_label(t), &flabels);
                assert_eq!(slow, truth, "brute force pair ({a},{b})");
            }
        }
    }

    #[test]
    fn path_graph_all_single_faults() {
        let g = generators::path(6);
        for e in 0..g.num_edges() {
            check_all_pairs(&g, &[EdgeId::new(e)], 100 + e as u64);
        }
    }

    #[test]
    fn cycle_graph_fault_pairs() {
        let g = generators::cycle(6);
        for e1 in 0..6 {
            for e2 in (e1 + 1)..6 {
                check_all_pairs(&g, &[EdgeId::new(e1), EdgeId::new(e2)], 7);
            }
        }
    }

    #[test]
    fn grid_graph_random_fault_sets() {
        let g = generators::grid(3, 4);
        let mut state = 0xABCDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let f = 1 + (next() as usize) % 5;
            let mut faults = Vec::new();
            while faults.len() < f {
                let e = EdgeId::new((next() as usize) % g.num_edges());
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            check_all_pairs(&g, &faults, 1000 + trial);
        }
    }

    #[test]
    fn star_center_isolation() {
        let g = generators::star(5);
        // Failing all edges of leaf 1 disconnects it from everyone.
        check_all_pairs(&g, &[EdgeId::new(0)], 3);
        // Failing every star edge isolates everything.
        let all: Vec<EdgeId> = (0..4).map(EdgeId::new).collect();
        check_all_pairs(&g, &all, 4);
    }

    #[test]
    fn certificate_is_a_real_separating_cut() {
        let g = generators::cycle(8);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(21)).unwrap();
        let faults = [EdgeId::new(0), EdgeId::new(3), EdgeId::new(5)];
        let flabels: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let s = scheme.vertex_label(VertexId::new(1));
        let t = scheme.vertex_label(VertexId::new(6));
        // 0-1-2-3 side vs 4..7: faults {0,3} separate 1..3 from the rest?
        // Cycle edges: i connects i and i+1 mod 8. Removing e0 (0-1) and e3
        // (3-4) splits {1,2,3} from {4,...,0}. s=1, t=6 are separated.
        let cert = decode_with_certificate(&s, &t, &flabels).expect("separated");
        // The certificate must consist of e0 and e3 (indices 0 and 1 in F).
        assert_eq!(cert, vec![0, 1]);
    }

    #[test]
    fn reused_decoder_matches_one_shot_decode() {
        // One EliminationScratch across many queries of different shapes
        // (varying f and b) must agree with the fresh-per-call functions.
        let g = generators::grid(3, 4);
        let mut state = 0x77AAu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = EliminationScratch::default();
        let mut diff = BitVec::zeros(0);
        for trial in 0..20 {
            let scheme =
                CycleSpaceScheme::label(&g, 1 + trial % 7, Seed::new(trial as u64)).unwrap();
            let f = 1 + (next() as usize) % 6;
            let mut faults = Vec::new();
            while faults.len() < f {
                let e = EdgeId::new((next() as usize) % g.num_edges());
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            let flabels: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
            scratch.reset(scheme.bits_b(), flabels.len());
            for e in &flabels {
                scratch.push_fault(e.phi.words(), e.tree_child_interval());
            }
            let eliminated = scratch.eliminate();
            for _ in 0..6 {
                let s = scheme.vertex_label(VertexId::new((next() as usize) % g.num_vertices()));
                let t = scheme.vertex_label(VertexId::new((next() as usize) % g.num_vertices()));
                let reused = eliminated
                    .separating_generator(&s.anc, &t.anc, &mut diff)
                    .and_then(|gen| eliminated.fault_positions(gen).map(Iterator::collect));
                assert_eq!(
                    reused,
                    decode_with_certificate(&s, &t, &flabels),
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn no_faults_always_connected() {
        let g = generators::grid(2, 3);
        let scheme = CycleSpaceScheme::label(&g, 0, Seed::new(2)).unwrap();
        let s = scheme.vertex_label(VertexId::new(0));
        let t = scheme.vertex_label(VertexId::new(5));
        assert!(decode(&s, &t, &[]));
        assert!(decode_brute_force(&s, &t, &[]));
    }

    #[test]
    fn s_equals_t_connected_despite_isolation() {
        let g = generators::star(4);
        let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(8)).unwrap();
        let s = scheme.vertex_label(VertexId::new(1));
        let flabels: Vec<_> = (0..3).map(|e| scheme.edge_label(EdgeId::new(e))).collect();
        assert!(decode(&s, &s, &flabels));
    }

    #[test]
    fn irrelevant_faults_do_not_disconnect() {
        // Faults in a far corner of a grid must not affect nearby pairs.
        let g = generators::grid(4, 4);
        let far = g.find_edge(VertexId::new(14), VertexId::new(15)).unwrap();
        check_all_pairs(&g, &[far], 55);
    }

    #[test]
    fn bridge_in_dumbbell_graph() {
        // Two triangles joined by a bridge; failing the bridge splits them.
        let mut b = ftl_graph::GraphBuilder::new(6);
        b.add_unit_edge(0, 1);
        b.add_unit_edge(1, 2);
        b.add_unit_edge(2, 0);
        b.add_unit_edge(3, 4);
        b.add_unit_edge(4, 5);
        b.add_unit_edge(5, 3);
        let bridge = b.add_unit_edge(0, 3);
        let g = b.build();
        check_all_pairs(&g, &[bridge], 77);
        // Bridge + a triangle edge.
        check_all_pairs(&g, &[bridge, EdgeId::new(0)], 78);
    }
}
