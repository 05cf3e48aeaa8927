//! Property-based tests: the cycle-space FT connectivity scheme against
//! ground truth on random graphs and fault sets.

use ftl_cycle_space::{decode, decode_brute_force, decode_with_certificate, CycleSpaceScheme};
use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
use ftl_graph::{EdgeId, Graph, GraphBuilder, VertexId};
use ftl_seeded::Seed;
use proptest::prelude::*;

/// Connected graph + fault subset + query pair.
fn scenario() -> impl Strategy<Value = (Graph, Vec<EdgeId>, VertexId, VertexId, u64)> {
    (
        2usize..24,
        proptest::collection::vec((0usize..24, 0usize..24), 0..30),
        proptest::collection::vec(0usize..500, 0..6),
        0usize..24,
        0usize..24,
        any::<u64>(),
    )
        .prop_map(|(n, extra, fpicks, s, t, seed)| {
            let mut b = GraphBuilder::new(n);
            for i in 1..n {
                b.add_unit_edge(i / 2, i);
            }
            for (u, v) in extra {
                if u % n != v % n {
                    b.add_unit_edge(u % n, v % n);
                }
            }
            let g = b.build();
            let mut faults: Vec<EdgeId> = Vec::new();
            for p in fpicks {
                let e = EdgeId::new(p % g.num_edges());
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            (g, faults, VertexId::new(s % n), VertexId::new(t % n), seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fast decode == ground truth == brute-force decode.
    #[test]
    fn decode_matches_ground_truth((g, faults, s, t, seed) in scenario()) {
        let scheme = CycleSpaceScheme::label_with_bits(&g, faults.len() + 48, Seed::new(seed)).unwrap();
        let fl: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let mask = forbidden_mask(&g, &faults);
        let truth = connected_avoiding(&g, s, t, &mask);
        let sl = scheme.vertex_label(s);
        let tl = scheme.vertex_label(t);
        prop_assert_eq!(decode(&sl, &tl, &fl), truth);
        prop_assert_eq!(decode_brute_force(&sl, &tl, &fl), truth);
    }

    /// When disconnected, the certificate is a genuine separating cut.
    #[test]
    fn certificate_separates((g, faults, s, t, seed) in scenario()) {
        let scheme = CycleSpaceScheme::label_with_bits(&g, faults.len() + 48, Seed::new(seed)).unwrap();
        let fl: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let sl = scheme.vertex_label(s);
        let tl = scheme.vertex_label(t);
        if let Some(cert) = decode_with_certificate(&sl, &tl, &fl) {
            // The certificate subset alone must already disconnect s from t.
            let sub: Vec<EdgeId> = cert.iter().map(|&i| faults[i]).collect();
            let mask = forbidden_mask(&g, &sub);
            prop_assert!(!connected_avoiding(&g, s, t, &mask),
                "certificate {:?} does not separate", sub);
        }
    }

    /// Monotonicity: adding faults can only disconnect, never reconnect.
    #[test]
    fn fault_monotonicity((g, faults, s, t, seed) in scenario()) {
        let scheme = CycleSpaceScheme::label_with_bits(&g, faults.len() + 48, Seed::new(seed)).unwrap();
        let fl: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let sl = scheme.vertex_label(s);
        let tl = scheme.vertex_label(t);
        if !fl.is_empty() {
            let fewer = &fl[..fl.len() - 1];
            if !decode(&sl, &tl, fewer) {
                prop_assert!(!decode(&sl, &tl, &fl));
            }
        }
    }

    /// Labels are an injective-enough addressing: same vertex label => same
    /// vertex (distinct vertices get distinct ancestry labels).
    #[test]
    fn vertex_labels_distinct((g, _faults, _s, _t, seed) in scenario()) {
        let scheme = CycleSpaceScheme::label_with_bits(&g, 48, Seed::new(seed)).unwrap();
        let mut seen = ftl_seeded::DetHashSet::default();
        for v in g.vertices() {
            prop_assert!(seen.insert(scheme.vertex_label(v).anc));
        }
    }
}
