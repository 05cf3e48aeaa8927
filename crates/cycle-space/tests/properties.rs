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

/// SplitMix64 draw below `below`.
fn draw(state: &mut u64, below: usize) -> usize {
    *state = ftl_seeded::splitmix64(*state);
    (*state % below as u64) as usize
}

/// The fast decoder equals the subset oracle where the labels are too
/// short to be right. With `b = f + slack` bits for slack 1–4, non-cut
/// fault subsets XOR to zero by chance (Lemma 1.7), so some answers are
/// wrong; both decoders must be wrong on exactly the same queries, and
/// every wrong answer must be a false "disconnected" — a real cut's `φ`
/// values always XOR to zero, so a disconnected pair is never reported
/// connected.
#[test]
fn fast_decoder_matches_subset_oracle_in_error_regime() {
    let mut state = 0x00E2_2023u64;
    let (mut queries, mut wrong) = (0, 0);
    for trial in 0..240u64 {
        let n = 6 + draw(&mut state, 19);
        let mut b = GraphBuilder::new(n);
        for i in 1..n {
            b.add_unit_edge(draw(&mut state, i), i);
        }
        for _ in 0..n {
            let (u, v) = (draw(&mut state, n), draw(&mut state, n));
            if u != v {
                b.add_unit_edge(u, v);
            }
        }
        let g = b.build();
        let f = (1 + draw(&mut state, 10)).min(g.num_edges());
        let slack = 1 + (trial % 4) as usize;
        let scheme = CycleSpaceScheme::label_with_bits(&g, f + slack, Seed::new(trial)).unwrap();
        let mut faults: Vec<EdgeId> = Vec::new();
        while faults.len() < f {
            let e = EdgeId::new(draw(&mut state, g.num_edges()));
            if !faults.contains(&e) {
                faults.push(e);
            }
        }
        let fl: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let mask = forbidden_mask(&g, &faults);
        for _ in 0..12 {
            let s = VertexId::new(draw(&mut state, n));
            let t = VertexId::new(draw(&mut state, n));
            let (sl, tl) = (scheme.vertex_label(s), scheme.vertex_label(t));
            let fast = decode(&sl, &tl, &fl);
            assert_eq!(
                fast,
                decode_brute_force(&sl, &tl, &fl),
                "trial {trial}: ({s:?}, {t:?}), f = {f}, b = f + {slack}"
            );
            let truth = connected_avoiding(&g, s, t, &mask);
            if fast != truth {
                assert!(
                    truth,
                    "trial {trial}: false \"connected\" for ({s:?}, {t:?})"
                );
                wrong += 1;
            }
            queries += 1;
        }
    }
    assert!(
        wrong > 0,
        "no wrong answer in {queries} queries: the error regime went unexercised"
    );
}
