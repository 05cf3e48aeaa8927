//! End-to-end engine tests: the batched path must agree with the
//! subset-enumerating oracle and with ground-truth graph traversals, the
//! cut certificates of the store's eliminations must be genuine cuts, and
//! the cache must actually amortise eliminations.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::print_stdout
)]
use ftl_cycle_space::{decode_brute_force, CycleSpaceEdgeLabel, CycleSpaceScheme};
use ftl_engine::{
    EliminatedFaultSet, Engine, EngineConfig, EngineError, FaultSetBatch, GroupedResponse,
    LabelStore, LabelStoreBuilder, StoreError, StoreKey,
};
use ftl_gf2::BitVec;
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

/// One group per fault set, and `count` queries with random endpoints,
/// each in a random group.
fn random_groups(
    g: &Graph,
    fault_sets: Vec<Vec<EdgeId>>,
    count: usize,
    rng: &mut StdRng,
) -> Vec<FaultSetBatch> {
    let mut groups: Vec<FaultSetBatch> = fault_sets
        .into_iter()
        .map(|faults| FaultSetBatch {
            faults,
            queries: Vec::new(),
        })
        .collect();
    let k = groups.len();
    for _ in 0..count {
        let s = VertexId::new(rng.gen_range(0..g.num_vertices()));
        let t = VertexId::new(rng.gen_range(0..g.num_vertices()));
        groups[rng.gen_range(0..k)].queries.push((s, t));
    }
    groups
}

/// Every answer of a response, group by group; any failure panics.
fn answers(resp: &GroupedResponse) -> Vec<Vec<bool>> {
    resp.groups
        .iter()
        .map(|group| group.as_ref().unwrap().clone())
        .collect()
}

/// The differential oracle: every query enumerates the subsets of its
/// fault set (Section 3.1.2) over the scheme's own labels, sharing no code
/// with the engine's elimination. Returns whether each query is connected.
fn naive_answers(scheme: &CycleSpaceScheme, groups: &[FaultSetBatch]) -> Vec<Vec<bool>> {
    groups
        .iter()
        .map(|group| {
            let labels: Vec<CycleSpaceEdgeLabel> =
                group.faults.iter().map(|&e| scheme.edge_label(e)).collect();
            group
                .queries
                .iter()
                .map(|&(s, t)| {
                    decode_brute_force(&scheme.vertex_label(s), &scheme.vertex_label(t), &labels)
                })
                .collect()
        })
        .collect()
}

/// Whether `s` and `t` are connected in `g` minus `faults`, by BFS.
fn truth(g: &Graph, faults: &[EdgeId], s: VertexId, t: VertexId) -> bool {
    connected_avoiding(g, s, t, &forbidden_mask(g, faults))
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
        let scheme = CycleSpaceScheme::label(&g, 5, Seed::new(9)).unwrap();
        let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
        for trial in 0..3 {
            let fault_sets = random_fault_sets(&g, 4, 5, &mut rng);
            let groups = random_groups(&g, fault_sets, 120, &mut rng);
            let batched = engine.execute_grouped(&groups);
            let naive = naive_answers(&scheme, &groups);
            assert_eq!(
                answers(&batched),
                naive,
                "{name} trial {trial}: batched vs naive"
            );
            for (group, got) in groups.iter().zip(&naive) {
                for (i, (&(s, t), &connected)) in group.queries.iter().zip(got).enumerate() {
                    assert_eq!(
                        connected,
                        truth(&g, &group.faults, s, t),
                        "{name} trial {trial}: query {i} vs ground truth"
                    );
                }
            }
            // Batched ran at most one elimination per distinct fault set.
            assert_eq!(batched.stats.queries, 120);
            assert!(batched.stats.eliminations <= groups.len());
            assert_eq!(
                batched.stats.eliminations + batched.stats.cache_hits,
                groups.len()
            );
        }
    }
}

/// The cut certificate `F′ ⊆ F` of each disconnected answer, read off the
/// elimination of the engine's own store: inside the fault set, and
/// separating `s` from `t` on its own.
#[test]
fn certificates_are_genuine_cuts() {
    let g = generators::grid(3, 4);
    let mut rng = StdRng::seed_from_u64(0xCE57);
    let mut engine = engine_for(&g, 4, 3, EngineConfig::default());
    let fault_sets = random_fault_sets(&g, 6, 4, &mut rng);
    let groups = random_groups(&g, fault_sets, 200, &mut rng);
    let resp = engine.execute_grouped(&groups);
    let store = engine.store();
    let mut diff = BitVec::zeros(0);
    let mut disconnections = 0;
    for (group, got) in groups.iter().zip(answers(&resp)) {
        let mut ids = group.faults.clone();
        ids.sort();
        ids.dedup();
        let efs = EliminatedFaultSet::eliminate_from_sidecar(ids, store).unwrap();
        for (&(s, t), connected) in group.queries.iter().zip(got) {
            let (s_anc, t_anc) = (store.vertex_anc(s).unwrap(), store.vertex_anc(t).unwrap());
            let gen = efs.separating_generator_anc(&s_anc, &t_anc, &mut diff);
            assert_eq!(gen.is_none(), connected, "engine and elimination disagree");
            let Some(gen) = gen else { continue };
            disconnections += 1;
            let cert = efs.certificate(gen).expect("disconnected carries a cut");
            assert!(!cert.is_empty());
            // The certificate must be a subset of the fault set…
            for e in &cert {
                assert!(group.faults.contains(e), "cert edge outside F");
            }
            // …and removing it alone must separate s from t.
            assert!(
                !truth(&g, &cert, s, t),
                "certificate does not cut ({s:?}, {t:?})"
            );
        }
    }
    assert!(disconnections > 0, "workload produced no disconnections");
}

#[test]
fn repeated_fault_sets_are_served_from_cache() {
    let g = generators::grid(4, 4);
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut engine = engine_for(&g, 6, 4, EngineConfig::default());
    let fault_sets = random_fault_sets(&g, 3, 6, &mut rng);
    let groups = random_groups(&g, fault_sets, 30, &mut rng);
    let first = engine.execute_grouped(&groups);
    assert_eq!(first.stats.eliminations, 3);
    assert_eq!(first.stats.cache_hits, 0);
    let second = engine.execute_grouped(&groups);
    assert_eq!(second.stats.eliminations, 0);
    assert_eq!(second.stats.cache_hits, 3);
    // A permuted fault set is the same canonical set: still a hit.
    let mut permuted = groups[0].faults.clone();
    permuted.reverse();
    let third = engine.execute_grouped(&[FaultSetBatch {
        faults: permuted,
        queries: vec![(VertexId::new(0), VertexId::new(15))],
    }]);
    assert_eq!(third.stats.eliminations, 0);
    assert_eq!(third.stats.cache_hits, 1);
    assert_eq!(
        answers(&first),
        answers(&second),
        "cache must not change answers"
    );
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
    let groups = random_groups(&g, fault_sets, 40, &mut rng);
    let a = engine.execute_grouped(&groups);
    let b = engine.execute_grouped(&groups);
    assert_eq!(a.stats.eliminations, 2);
    assert_eq!(b.stats.eliminations, 2, "no cache, so re-eliminate");
    for (group, got) in groups.iter().zip(answers(&a)) {
        for (&(s, t), connected) in group.queries.iter().zip(got) {
            assert_eq!(connected, truth(&g, &group.faults, s, t));
        }
    }
    assert_eq!(a.groups, b.groups);
}

#[test]
fn missing_edge_label_is_a_store_error() {
    let g = generators::path(4);
    let mut engine = engine_for(&g, 2, 1, EngineConfig::default());
    let resp = engine.execute_grouped(&[FaultSetBatch {
        faults: vec![EdgeId::new(99)],
        queries: vec![],
    }]);
    assert!(matches!(
        resp.groups[0],
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
        let groups = random_groups(&g, fault_sets, 60, &mut rng);
        let resp = engine.execute_grouped(&groups);
        for (group, got) in groups.iter().zip(answers(&resp)) {
            for (&(s, t), connected) in group.queries.iter().zip(got) {
                prop_assert_eq!(connected, truth(&g, &group.faults, s, t));
            }
        }
    }
}

// ---------------------------------------------------------------------
// The decoded sidecar, shared stores, and fault-set validation.
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
    let groups = Arc::new(random_groups(&g, fault_sets, 200, &mut rng));
    let expected = Arc::new(answers(&reference.execute_grouped(&groups)));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            let groups = Arc::clone(&groups);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut engine = Engine::with_shared(store, EngineConfig::default());
                for _ in 0..3 {
                    assert_eq!(answers(&engine.execute_grouped(&groups)), *expected);
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
/// labels: one store representation, whichever way the labels arrived.
#[test]
fn wire_only_freeze_serves_identically_without_sidecar() {
    let g = generators::grid(4, 4);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(6)).unwrap();
    let config = EngineConfig::default();
    let mut wire_engine = Engine::new(imported(&scheme), config);
    let mut direct_engine = Engine::from_cycle_space(&scheme, config).unwrap();
    assert_eq!(wire_engine.store(), direct_engine.store());
    let mut rng = StdRng::seed_from_u64(0xF00);
    let mut disconnected = 0;
    for trial in 0..4 {
        let fault_sets = random_fault_sets(&g, 2, 4, &mut rng);
        let groups = random_groups(&g, fault_sets, 80, &mut rng);
        let wire = answers(&wire_engine.execute_grouped(&groups));
        assert_eq!(
            wire,
            answers(&direct_engine.execute_grouped(&groups)),
            "trial {trial}"
        );
        disconnected += wire.iter().flatten().filter(|&&c| !c).count();
    }
    assert!(disconnected > 0, "no disconnected answer was compared");
}

/// A fault set naming a missing edge is rejected even when no query
/// references it: as a zero-query group it fails its own slot, and the
/// group beside it keeps its answer.
#[test]
fn unreferenced_bad_fault_set_rejected_by_both_engines() {
    let g = generators::grid(3, 3);
    let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(4)).unwrap();
    let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
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
    assert_eq!(grouped.groups[0], Ok(vec![true]));
    assert_eq!(
        grouped.groups[1],
        Err(EngineError::Store(StoreError::Missing(StoreKey::edge(
            EdgeId::new(999_999)
        ))))
    );
}
