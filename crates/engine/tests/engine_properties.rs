//! End-to-end engine tests: the batched path must agree with the naive
//! per-query path and with ground-truth graph traversals, certificates must
//! be genuine cuts, and the cache must actually amortise eliminations.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::print_stdout
)]
use ftl_cycle_space::{CycleSpaceDecoder, CycleSpaceEdgeLabel, CycleSpaceScheme};
use ftl_engine::{
    BatchRequest, ConnQuery, Engine, EngineConfig, EngineError, FaultSetBatch, LabelStore,
    LabelStoreBuilder, QueryResult, StoreError, StoreKey,
};
use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
use ftl_graph::{generators, EdgeId, Graph, VertexId};
use ftl_labels::wire::WireLabel;
use ftl_seeded::Seed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engine_for(g: &Graph, f: usize, seed: u64, config: EngineConfig) -> Engine {
    let scheme = CycleSpaceScheme::label(g, f, Seed::new(seed)).unwrap();
    Engine::from_cycle_space(&scheme, config).unwrap()
}

/// Every label of `scheme` imported through its wire record.
fn imported(scheme: &CycleSpaceScheme) -> LabelStore {
    let mut b = LabelStoreBuilder::new(
        scheme.num_vertices(),
        scheme.num_edges(),
        scheme.bits_b(),
        EngineConfig::default().num_shards,
    );
    for i in 0..scheme.num_vertices() {
        let v = VertexId::new(i);
        b.put_bytes(StoreKey::vertex(v), &scheme.vertex_label(v).to_wire())
            .unwrap();
    }
    for i in 0..scheme.num_edges() {
        let e = EdgeId::new(i);
        b.put_bytes(StoreKey::edge(e), &scheme.edge_label(e).to_wire())
            .unwrap();
    }
    b.freeze()
}

fn random_fault_sets(g: &Graph, count: usize, f: usize, rng: &mut StdRng) -> Vec<Vec<EdgeId>> {
    (0..count)
        .map(|_| {
            let mut fs = Vec::new();
            while fs.len() < f.min(g.num_edges()) {
                let e = EdgeId::new(rng.gen_range(0..g.num_edges()));
                if !fs.contains(&e) {
                    fs.push(e);
                }
            }
            fs
        })
        .collect()
}

/// The naive path, kept as the differential oracle: every query pays a
/// **fresh elimination** of the augmented system over the scheme's own
/// labels (the pre-engine `ftl_cycle_space::decode` formulation). Its
/// certificates index the request's fault list, so they come back in
/// request order rather than canonical order.
fn naive_answers(scheme: &CycleSpaceScheme, req: &BatchRequest) -> Vec<QueryResult> {
    let mut decoder = CycleSpaceDecoder::new();
    let labels: Vec<Vec<CycleSpaceEdgeLabel>> = req
        .fault_sets
        .iter()
        .map(|fs| fs.iter().map(|&e| scheme.edge_label(e)).collect())
        .collect();
    req.queries
        .iter()
        .map(|q| {
            let s = scheme.vertex_label(q.s);
            let t = scheme.vertex_label(q.t);
            match decoder.decode_with_certificate(&s, &t, &labels[q.fault_set]) {
                Some(idx) => QueryResult {
                    connected: false,
                    certificate: Some(
                        idx.into_iter()
                            .map(|i| req.fault_sets[q.fault_set][i])
                            .collect(),
                    ),
                },
                None => QueryResult {
                    connected: true,
                    certificate: None,
                },
            }
        })
        .collect()
}

fn random_queries(g: &Graph, count: usize, fault_sets: usize, rng: &mut StdRng) -> Vec<ConnQuery> {
    (0..count)
        .map(|_| ConnQuery {
            s: VertexId::new(rng.gen_range(0..g.num_vertices())),
            t: VertexId::new(rng.gen_range(0..g.num_vertices())),
            fault_set: rng.gen_range(0..fault_sets),
        })
        .collect()
}

#[test]
fn batched_naive_and_truth_agree() {
    for (name, g) in [
        ("grid", generators::grid(4, 4)),
        ("cycle", generators::cycle(12)),
        ("star", generators::star(10)),
        ("grid-5x5", generators::grid(5, 5)),
    ] {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let config = EngineConfig {
            collect_certificates: true,
            ..EngineConfig::default()
        };
        let scheme = CycleSpaceScheme::label(&g, 5, Seed::new(9)).unwrap();
        let mut engine = Engine::from_cycle_space(&scheme, config).unwrap();
        for trial in 0..3 {
            let fault_sets = random_fault_sets(&g, 4, 5, &mut rng);
            let queries = random_queries(&g, 120, fault_sets.len(), &mut rng);
            let req = BatchRequest {
                fault_sets: fault_sets.clone(),
                queries,
            };
            let batched = engine.execute(&req).unwrap();
            let naive = naive_answers(&scheme, &req);
            assert_eq!(batched.results.len(), naive.len());
            for (i, (b, nv)) in batched.results.iter().zip(&naive).enumerate() {
                let q = &req.queries[i];
                assert_eq!(
                    b.connected, nv.connected,
                    "{name} trial {trial}: query {i} batched vs naive"
                );
                // Cuts are not unique, so the two paths may certify a
                // disconnection with different cuts — but each must be a
                // genuine one: inside F, and separating s from t alone.
                for cert in [&b.certificate, &nv.certificate] {
                    assert_eq!(cert.is_some(), !b.connected, "{name}: query {i}");
                    if let Some(cert) = cert {
                        assert!(cert.iter().all(|e| fault_sets[q.fault_set].contains(e)));
                        let mask = forbidden_mask(&g, cert);
                        assert!(
                            !connected_avoiding(&g, q.s, q.t, &mask),
                            "{name}: query {i}"
                        );
                    }
                }
                let mask = forbidden_mask(&g, &fault_sets[q.fault_set]);
                let truth = connected_avoiding(&g, q.s, q.t, &mask);
                assert_eq!(b.connected, truth, "{name}: query {i} vs ground truth");
            }
            // Batched ran at most one elimination per distinct fault set.
            assert!(batched.stats.eliminations <= fault_sets.len());
            assert_eq!(
                batched.stats.eliminations + batched.stats.cache_hits,
                fault_sets.len()
            );
        }
    }
}

#[test]
fn certificates_are_genuine_cuts() {
    let g = generators::grid(3, 4);
    let mut rng = StdRng::seed_from_u64(0xCE57);
    let mut engine = engine_for(
        &g,
        4,
        3,
        EngineConfig {
            collect_certificates: true,
            ..EngineConfig::default()
        },
    );
    let fault_sets = random_fault_sets(&g, 6, 4, &mut rng);
    let queries = random_queries(&g, 200, fault_sets.len(), &mut rng);
    let req = BatchRequest {
        fault_sets: fault_sets.clone(),
        queries,
    };
    let resp = engine.execute(&req).unwrap();
    let mut disconnections = 0;
    for (q, r) in req.queries.iter().zip(&resp.results) {
        if r.connected {
            assert!(r.certificate.is_none());
            continue;
        }
        disconnections += 1;
        let cert = r.certificate.as_ref().expect("disconnected carries a cut");
        assert!(!cert.is_empty());
        // The certificate must be a subset of the fault set…
        for e in cert {
            assert!(fault_sets[q.fault_set].contains(e), "cert edge outside F");
        }
        // …and removing it alone must separate s from t.
        let mask = forbidden_mask(&g, cert);
        assert!(
            !connected_avoiding(&g, q.s, q.t, &mask),
            "certificate does not cut ({:?}, {:?})",
            q.s,
            q.t
        );
    }
    assert!(disconnections > 0, "workload produced no disconnections");
}

#[test]
fn repeated_fault_sets_are_served_from_cache() {
    let g = generators::grid(4, 4);
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut engine = engine_for(&g, 6, 4, EngineConfig::default());
    let fault_sets = random_fault_sets(&g, 3, 6, &mut rng);
    let queries = random_queries(&g, 30, fault_sets.len(), &mut rng);
    let req = BatchRequest {
        fault_sets: fault_sets.clone(),
        queries,
    };
    let first = engine.execute(&req).unwrap();
    assert_eq!(first.stats.eliminations, 3);
    assert_eq!(first.stats.cache_hits, 0);
    let second = engine.execute(&req).unwrap();
    assert_eq!(second.stats.eliminations, 0);
    assert_eq!(second.stats.cache_hits, 3);
    // A permuted fault set is the same canonical set: still a hit.
    let mut permuted = fault_sets[0].clone();
    permuted.reverse();
    let req2 = BatchRequest {
        fault_sets: vec![permuted],
        queries: vec![ConnQuery {
            s: VertexId::new(0),
            t: VertexId::new(15),
            fault_set: 0,
        }],
    };
    let third = engine.execute(&req2).unwrap();
    assert_eq!(third.stats.eliminations, 0);
    assert_eq!(third.stats.cache_hits, 1);
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a, b, "cache must not change answers");
    }
}

#[test]
fn zero_capacity_cache_still_answers_correctly() {
    let g = generators::cycle(10);
    let mut rng = StdRng::seed_from_u64(7);
    let mut engine = engine_for(
        &g,
        3,
        5,
        EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        },
    );
    let fault_sets = random_fault_sets(&g, 2, 3, &mut rng);
    let queries = random_queries(&g, 40, 2, &mut rng);
    let req = BatchRequest {
        fault_sets: fault_sets.clone(),
        queries,
    };
    let a = engine.execute(&req).unwrap();
    let b = engine.execute(&req).unwrap();
    assert_eq!(a.stats.eliminations, 2);
    assert_eq!(b.stats.eliminations, 2, "no cache, so re-eliminate");
    for (q, r) in req.queries.iter().zip(&a.results) {
        let mask = forbidden_mask(&g, &fault_sets[q.fault_set]);
        assert_eq!(r.connected, connected_avoiding(&g, q.s, q.t, &mask));
    }
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x, y);
    }
}

#[test]
fn bad_fault_set_index_is_an_error() {
    let g = generators::path(4);
    let mut engine = engine_for(&g, 2, 1, EngineConfig::default());
    let req = BatchRequest {
        fault_sets: vec![vec![EdgeId::new(0)]],
        queries: vec![ConnQuery {
            s: VertexId::new(0),
            t: VertexId::new(3),
            fault_set: 5,
        }],
    };
    assert!(matches!(
        engine.execute(&req),
        Err(EngineError::UnknownFaultSet {
            index: 5,
            available: 1
        })
    ));
}

#[test]
fn missing_edge_label_is_a_store_error() {
    let g = generators::path(4);
    let mut engine = engine_for(&g, 2, 1, EngineConfig::default());
    let req = BatchRequest {
        fault_sets: vec![vec![EdgeId::new(99)]],
        queries: vec![],
    };
    assert!(matches!(
        engine.execute(&req),
        Err(EngineError::Store(StoreError::Missing(_)))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs, fault sets, and query mixes: the engine always agrees
    /// with a direct graph traversal.
    #[test]
    fn engine_matches_truth_on_random_workloads(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_random(24, 0.12, 1, &mut rng);
        let f = 1 + (seed as usize) % 6;
        let mut engine = engine_for(&g, f, seed ^ 0xABC, EngineConfig::default());
        let fault_sets = random_fault_sets(&g, 3, f, &mut rng);
        let queries = random_queries(&g, 60, 3, &mut rng);
        let req = BatchRequest { fault_sets: fault_sets.clone(), queries };
        let resp = engine.execute(&req).unwrap();
        for (q, r) in req.queries.iter().zip(&resp.results) {
            let mask = forbidden_mask(&g, &fault_sets[q.fault_set]);
            prop_assert_eq!(r.connected, connected_avoiding(&g, q.s, q.t, &mask));
        }
    }
}

// ---------------------------------------------------------------------
// The decoded sidecar, shared stores, and request validation.
// ---------------------------------------------------------------------

/// The wire format is only a transfer encoding: importing every label
/// through `put_bytes` builds the same columns as storing the typed labels
/// directly — on a fresh labeling, and on the labeling a live store reached
/// through delta swaps, where both also equal the published snapshot.
#[test]
fn sidecar_and_wire_paths_agree() {
    use ftl_engine::{full_store_of, plan_edge_removals, LiveStore, RemovalModel};
    fn import(live: &ftl_cycle_space::LiveCycleSpace, num_shards: usize) -> LabelStore {
        let g = live.graph();
        let mut b =
            LabelStoreBuilder::new(g.num_vertices(), g.num_edges(), live.bits(), num_shards);
        for v in live.alive_vertices() {
            b.put_bytes(StoreKey::vertex(v), &live.vertex_label(v).to_wire())
                .unwrap();
        }
        for e in live.alive_edges() {
            b.put_bytes(StoreKey::edge(e), &live.edge_label(e).to_wire())
                .unwrap();
        }
        b.freeze()
    }
    let g = generators::grid(6, 6);
    let config = EngineConfig::default();
    let mut live = LiveStore::new(&g, 6, Seed::new(31), config).unwrap();
    let check = |live: &LiveStore| {
        let published = live.epochs().current();
        let direct = full_store_of(live.live(), &config).unwrap();
        let wire = import(live.live(), config.num_shards);
        assert_eq!(wire, direct);
        assert_eq!(**published.store(), direct);
        assert_eq!(
            wire.len(),
            live.live().num_alive_vertices() + live.live().num_alive_edges()
        );
    };
    check(&live);
    let plan = plan_edge_removals(live.live(), 6, RemovalModel::Random, Seed::new(32));
    live.remove_edges(&plan).unwrap();
    assert!(
        live.epochs().current().number() > 1,
        "no delta swap happened"
    );
    check(&live);
}

/// M plain threads hammering one frozen `Arc<LabelStore>` — each with its
/// own engine — must all reproduce a reference engine's answers. This is
/// the lock-free-reads contract of the store, and the shape of a server
/// with several executors.
#[test]
fn threads_sharing_one_frozen_store_agree_with_serial() {
    use std::sync::Arc;
    let g = generators::grid(4, 5);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(12)).unwrap();
    let mut reference = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let store = reference.shared_store();
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    let fault_sets = random_fault_sets(&g, 4, 4, &mut rng);
    let queries = random_queries(&g, 200, fault_sets.len(), &mut rng);
    let req = Arc::new(BatchRequest {
        fault_sets,
        queries,
    });
    let expected = Arc::new(reference.execute(&req).unwrap().results);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            let req = Arc::clone(&req);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut engine = Engine::with_shared(store, EngineConfig::default());
                for _ in 0..3 {
                    let resp = engine.execute(&req).unwrap();
                    assert_eq!(resp.results, *expected);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

/// A store imported record by record through the wire boundary
/// (`put_bytes`) serves identically to one built directly from the typed
/// labels, certificates included: one store representation, whichever way
/// the labels arrived.
#[test]
fn wire_only_freeze_serves_identically_without_sidecar() {
    let g = generators::grid(4, 4);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(6)).unwrap();
    let config = EngineConfig {
        collect_certificates: true,
        ..EngineConfig::default()
    };
    let mut wire_engine = Engine::new(imported(&scheme), config);
    let mut direct_engine = Engine::from_cycle_space(&scheme, config).unwrap();
    assert_eq!(wire_engine.store(), direct_engine.store());
    let mut rng = StdRng::seed_from_u64(0xF00);
    let mut disconnected = 0;
    for trial in 0..4 {
        let fault_sets = random_fault_sets(&g, 2, 4, &mut rng);
        let queries = random_queries(&g, 80, fault_sets.len(), &mut rng);
        let req = BatchRequest {
            fault_sets,
            queries,
        };
        let wire = wire_engine.execute(&req).unwrap().results;
        assert_eq!(
            wire,
            direct_engine.execute(&req).unwrap().results,
            "trial {trial}"
        );
        disconnected += wire.iter().filter(|r| r.certificate.is_some()).count();
    }
    assert!(disconnected > 0, "no certificate was compared");
}

/// A fault set naming a missing edge is rejected by both entry points even
/// when no query references it: the indexed call fails as a whole, and as
/// a zero-query group it fails its own slot.
#[test]
fn unreferenced_bad_fault_set_rejected_by_both_engines() {
    let g = generators::grid(3, 3);
    let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(4)).unwrap();
    let req = BatchRequest {
        fault_sets: vec![vec![EdgeId::new(0)], vec![EdgeId::new(999_999)]],
        queries: vec![ConnQuery {
            s: VertexId::new(0),
            t: VertexId::new(8),
            fault_set: 0, // the bad set (index 1) is never referenced
        }],
    };
    let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let err = engine.execute(&req).unwrap_err();
    assert!(matches!(err, EngineError::Store(StoreError::Missing(_))));
    let grouped = engine.execute_grouped(&[
        FaultSetBatch {
            faults: vec![EdgeId::new(0)],
            queries: vec![(VertexId::new(0), VertexId::new(8))],
        },
        FaultSetBatch {
            faults: vec![EdgeId::new(999_999)],
            queries: Vec::new(),
        },
    ]);
    assert!(grouped.groups[0].is_ok());
    assert_eq!(grouped.groups[1], Err(err));
}
