//! Fault-injection (chaos) suite for the epoch-versioned serving stack.
//!
//! Every test here injects a failure the serving path must survive
//! *gracefully*: corrupted / truncated / length-lying wire records at the
//! store's import boundary, panics mid-batch, readers racing snapshot
//! swaps, adversarial targeted churn, and stale-cache hazards across
//! epochs. "Gracefully" means a typed error (never a crash), unaffected
//! sibling queries, and 100% agreement with BFS ground truth after every
//! swap.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout
)]
use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{
    corrupt_random_bytes, full_store_of, oversize_declared_bits, plan_edge_removals,
    plan_vertex_removals, run_churn_scenario, store_from_cycle_space, truncate_record, ChurnConfig,
    Engine, EngineConfig, EngineError, EpochStore, FaultSetBatch, GroupResult, GroupedResponse,
    LabelStore, LabelStoreBuilder, LiveStore, RemovalModel, StoreError, StoreKey, SwapPath,
};
use ftl_graph::traversal::connected_avoiding;
use ftl_graph::{generators, EdgeId, Graph, VertexId};
use ftl_labels::wire::{WireError, WireLabel};
use ftl_seeded::Seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A live store plus an epoch-following serial engine over it.
fn live_setup(g: &Graph, f: usize, seed: u64, config: EngineConfig) -> (LiveStore, Engine) {
    let store = LiveStore::new(g, f, Seed::new(seed), config).unwrap();
    let engine = Engine::over_epochs(Arc::clone(store.epochs()), config);
    (store, engine)
}

/// Serves one group: the `(s, t)` pairs against the fault set `fs`.
fn serve(engine: &mut Engine, fs: Vec<EdgeId>, pairs: &[(usize, usize)]) -> GroupedResponse {
    engine.execute_grouped(&[FaultSetBatch {
        faults: fs,
        queries: pairs
            .iter()
            .map(|&(s, t)| (VertexId::new(s), VertexId::new(t)))
            .collect(),
    }])
}

/// The outcome of a one-group response.
fn only(resp: GroupedResponse) -> GroupResult {
    resp.groups.into_iter().next().expect("one group served")
}

/// The answers of a one-group response; any failure panics.
fn answers(resp: GroupedResponse) -> Vec<bool> {
    only(resp).expect("group served")
}

/// A non-tree (hence removable-without-disconnect) alive edge.
fn non_tree_edge(store: &LiveStore) -> EdgeId {
    store
        .live()
        .alive_edges()
        .find(|&e| !store.live().edge_label(e).is_tree)
        .expect("graph has a cycle")
}

// ---------------------------------------------------------------- wire chaos

/// A builder for `scheme`'s id spaces and `φ` width.
fn builder_for(scheme: &CycleSpaceScheme) -> LabelStoreBuilder {
    LabelStoreBuilder::new(
        scheme.num_vertices(),
        scheme.num_edges(),
        scheme.bits_b(),
        8,
    )
}

/// Offers `record` to the import boundary under `key`: it must be refused
/// with a typed error and leave the builder exactly as it was.
fn refused(b: &mut LabelStoreBuilder, key: StoreKey, record: &[u8]) -> StoreError {
    let before = b.clone();
    let err = b
        .put_bytes(key, record)
        .expect_err("the import boundary accepted a record it cannot place");
    assert_eq!(*b, before, "refusing {key:?} changed the builder");
    err
}

/// Every label of `scheme` imported through its wire record, except the
/// `victim` edge, whose record is `victim_record` — which the import must
/// refuse with a wire error. The victim is then absent from the store.
fn import_refusing(scheme: &CycleSpaceScheme, victim: EdgeId, victim_record: &[u8]) -> LabelStore {
    let mut b = builder_for(scheme);
    for i in 0..scheme.num_vertices() {
        let v = VertexId::new(i);
        b.put_bytes(StoreKey::vertex(v), &scheme.vertex_label(v).to_wire())
            .unwrap();
    }
    for e in (0..scheme.num_edges())
        .map(EdgeId::new)
        .filter(|&e| e != victim)
    {
        b.put_bytes(StoreKey::edge(e), &scheme.edge_label(e).to_wire())
            .unwrap();
    }
    let err = refused(&mut b, StoreKey::edge(victim), victim_record);
    assert!(matches!(err, StoreError::Wire(_)), "{err:?}");
    b.freeze()
}

/// A corrupt record is refused where it enters, at import. A snapshot
/// built without it and published over a good one fails only the fault
/// sets naming the victim, with a typed `Missing`; a sibling fault set on
/// the same snapshot still matches BFS.
#[test]
fn corrupted_record_errors_cleanly_and_spares_other_queries() {
    let config = EngineConfig::default();
    let g = generators::grid(5, 5);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(11)).unwrap();
    let good = Arc::new(store_from_cycle_space(&scheme, 8).unwrap());
    let victim = EdgeId::new(7);
    // The victim's record with heavy random corruption, the way a disk or
    // network flip would reach the import.
    let mut bytes = scheme.edge_label(victim).to_wire();
    let smear = bytes.len() * 2;
    corrupt_random_bytes(&mut bytes, smear, Seed::new(0xBAD));
    let bad = import_refusing(&scheme, victim, &bytes);
    let epochs = Arc::new(EpochStore::new(good));
    let mut engine = Engine::over_epochs(Arc::clone(&epochs), config);
    // Pre-swap: the victim serves fine.
    let pre = answers(serve(&mut engine, vec![victim], &[(0, 24)]));
    assert_eq!(pre.len(), 1);
    epochs.publish(Arc::new(bad));
    // Post-swap: the fault set naming the refused record fails cleanly.
    assert_eq!(
        only(serve(&mut engine, vec![victim], &[(0, 24)])),
        Err(EngineError::Store(StoreError::Missing(StoreKey::edge(
            victim
        ))))
    );
    // A sibling fault set that never touches the victim still serves
    // correctly from the same snapshot.
    let clean = EdgeId::new(20);
    let resp = answers(serve(&mut engine, vec![clean], &[(0, 24)]));
    let mask = ftl_graph::traversal::forbidden_mask(&g, &[clean]);
    assert_eq!(
        resp,
        [connected_avoiding(
            &g,
            VertexId::new(0),
            VertexId::new(24),
            &mask
        )],
        "clean query infected by corrupt neighbor"
    );
}

/// Truncated and length-lying records are refused at import with typed
/// errors, never panics, and the fault sets naming the refused edge fail
/// with `Missing`.
#[test]
fn truncated_and_oversized_records_error_not_panic() {
    let config = EngineConfig::default();
    let g = generators::grid(4, 4);
    let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(12)).unwrap();
    let victim = EdgeId::new(3);
    let wire = scheme.edge_label(victim).to_wire();
    let corruptions: Vec<Vec<u8>> = vec![
        {
            let mut b = wire.clone();
            let keep = b.len().saturating_sub(2);
            truncate_record(&mut b, keep);
            b
        },
        {
            let mut b = wire.clone();
            truncate_record(&mut b, 3); // shorter than the header
            b
        },
        {
            let mut b = wire.clone();
            assert!(oversize_declared_bits(&mut b, 4096));
            b
        },
    ];
    for (i, bad_bytes) in corruptions.iter().enumerate() {
        let bad = import_refusing(&scheme, victim, bad_bytes);
        let mut engine = Engine::new(bad, config);
        assert_eq!(
            only(serve(&mut engine, vec![victim], &[(0, 15)])),
            Err(EngineError::Store(StoreError::Missing(StoreKey::edge(
                victim
            )))),
            "corruption #{i}"
        );
    }
}

/// The import boundary refuses every record it cannot place with a typed
/// `StoreError` and leaves the builder unchanged: every truncation point
/// of a real edge record, lying length fields, heavy random byte smears,
/// records of the wrong label kind (a vertex record under an edge key and
/// the reverse), a `φ` of the wrong width, and ids outside the declared id
/// spaces.
#[test]
fn import_boundary_refuses_typed_and_never_panics() {
    let g = generators::grid(4, 4);
    let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(12)).unwrap();
    let (n, m) = (g.num_vertices(), g.num_edges());
    let victim = EdgeId::new(3);
    let key = StoreKey::edge(victim);
    let wire = scheme.edge_label(victim).to_wire();
    let mut b = builder_for(&scheme);
    for i in 0..n {
        let v = VertexId::new(i);
        b.put_vertex(v, &scheme.vertex_label(v)).unwrap();
    }
    for e in (0..m).map(EdgeId::new).filter(|&e| e != victim) {
        b.put_edge(e, &scheme.edge_label(e)).unwrap();
    }

    for keep in 0..wire.len() {
        let mut cut = wire.clone();
        truncate_record(&mut cut, keep);
        let err = refused(&mut b, key, &cut);
        assert!(matches!(err, StoreError::Wire(_)), "keep {keep}: {err:?}");
    }
    for extra in [1, 7, 8, 64, 4096, u32::MAX] {
        let mut lying = wire.clone();
        assert!(oversize_declared_bits(&mut lying, extra));
        let err = refused(&mut b, key, &lying);
        assert!(matches!(err, StoreError::Wire(_)), "extra {extra}: {err:?}");
    }
    for seed in 0..64 {
        let mut smeared = wire.clone();
        let count = smeared.len() * 2;
        corrupt_random_bytes(&mut smeared, count, Seed::new(0x5EA7).derive(seed));
        let err = refused(&mut b, key, &smeared);
        assert!(matches!(err, StoreError::Wire(_)), "smear {seed}: {err:?}");
    }

    let foreign = scheme.vertex_label(VertexId::new(0)).to_wire();
    let err = refused(&mut b, key, &foreign);
    assert!(
        matches!(err, StoreError::Wire(WireError::WrongKind { .. })),
        "{err:?}"
    );
    let err = refused(&mut b, StoreKey::vertex(VertexId::new(0)), &wire);
    assert!(
        matches!(err, StoreError::Wire(WireError::WrongKind { .. })),
        "{err:?}"
    );

    let wider = CycleSpaceScheme::label(&g, 9, Seed::new(12)).unwrap();
    assert_ne!(wider.bits_b(), scheme.bits_b());
    let err = refused(&mut b, key, &wider.edge_label(victim).to_wire());
    assert_eq!(
        err,
        StoreError::PhiWidth {
            key,
            expected: scheme.bits_b(),
            got: wider.bits_b()
        }
    );

    for far in [m, m + 1, u32::MAX as usize] {
        let far_key = StoreKey::edge(EdgeId::new(far));
        let err = refused(&mut b, far_key, &wire);
        assert_eq!(
            err,
            StoreError::OutOfRange {
                key: far_key,
                len: m
            }
        );
    }
    let far_key = StoreKey::vertex(VertexId::new(n));
    let err = refused(
        &mut b,
        far_key,
        &scheme.vertex_label(VertexId::new(0)).to_wire(),
    );
    assert_eq!(
        err,
        StoreError::OutOfRange {
            key: far_key,
            len: n
        }
    );

    // After all those refusals the genuine record still imports, and the
    // result is the store a direct build makes.
    b.put_bytes(key, &wire).unwrap();
    assert_eq!(b.freeze(), store_from_cycle_space(&scheme, 8).unwrap());
}

// -------------------------------------------------------------- panic chaos

/// A panic mid-batch is contained to its group: that group fails with
/// `Panicked`, the process survives, the other groups keep their answers,
/// and the engine serves the next call correctly on a rebuilt core.
#[test]
fn worker_panic_is_contained_and_engine_recovers() {
    let g = generators::grid(5, 5);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(21)).unwrap();
    let chaos_edge = EdgeId::new(5);
    let config = EngineConfig {
        chaos_panic_edge: Some(chaos_edge),
        ..EngineConfig::default()
    };
    let mut engine = Engine::from_cycle_space(&scheme, config).unwrap();
    let mut reference = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let group = |faults: Vec<EdgeId>| FaultSetBatch {
        faults,
        queries: vec![
            (VertexId::new(0), VertexId::new(24)),
            (VertexId::new(3), VertexId::new(21)),
        ],
    };
    // Any fault set containing the chaos edge detonates its resolver.
    let groups = [
        group(vec![EdgeId::new(9), EdgeId::new(30)]),
        group(vec![chaos_edge, EdgeId::new(9)]),
        group(vec![EdgeId::new(2)]),
    ];
    let resp = engine.execute_grouped(&groups);
    match &resp.groups[1] {
        Err(EngineError::Panicked { message }) => {
            assert!(
                message.contains("chaos"),
                "lost the panic payload: {message}"
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let expected = reference.execute_grouped(&groups);
    assert_eq!(resp.groups[0], expected.groups[0]);
    assert_eq!(resp.groups[2], expected.groups[2]);
    // A group of its own fails the same way.
    assert!(matches!(
        only(serve(&mut engine, vec![chaos_edge], &[(0, 24)])),
        Err(EngineError::Panicked { .. })
    ));
    // The engine — same instance, core rebuilt — keeps serving batches
    // that avoid the tripwire, identical to a fresh engine.
    let faults = vec![EdgeId::new(9), EdgeId::new(30)];
    let pairs = [(0, 24), (3, 21), (7, 18)];
    let resp = only(serve(&mut engine, faults.clone(), &pairs));
    assert!(resp.is_ok(), "engine must recover after a contained panic");
    let want = only(serve(&mut reference, faults.clone(), &pairs));
    assert_eq!(resp, want);
    // And the tripwire still trips — containment is repeatable, not
    // one-shot.
    assert!(engine.execute_grouped(&groups).groups[1].is_err());
    assert_eq!(only(serve(&mut engine, faults, &pairs)), want);
}

// --------------------------------------------------------------- swap chaos

/// Readers serving batches while the writer swaps epochs underneath them
/// never error, never block on the publisher, and never observe a
/// half-applied snapshot (every answer stays `connected` because only
/// non-bridge edges are removed).
#[test]
fn mid_swap_readers_serve_consistent_snapshots() {
    let g = generators::grid(8, 8);
    let config = EngineConfig::default();
    let mut store = LiveStore::new(&g, 4, Seed::new(31), config).unwrap();
    let plan = plan_edge_removals(store.live(), 20, RemovalModel::Random, Seed::new(32));
    let epochs = Arc::clone(store.epochs());
    let n = g.num_vertices();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let epochs = Arc::clone(&epochs);
                scope.spawn(move || {
                    let mut engine = Engine::over_epochs(epochs, config);
                    let mut rng = Seed::new(40 + r).stream();
                    let mut last_epoch = 0u64;
                    for _ in 0..60 {
                        let pairs: Vec<(usize, usize)> = (0..8)
                            .map(|_| ((rng() % n as u64) as usize, (rng() % n as u64) as usize))
                            .collect();
                        let resp = serve(&mut engine, Vec::new(), &pairs);
                        // Epochs are observed in publication order.
                        assert!(resp.stats.epoch >= last_epoch);
                        last_epoch = resp.stats.epoch;
                        // No vertex is ever removed and removals skip
                        // bridges, so every snapshot is fully connected.
                        assert!(answers(resp).into_iter().all(|connected| connected));
                    }
                    last_epoch
                })
            })
            .collect();
        // Writer: swap epochs as fast as the removals allow.
        for e in plan {
            let _ = store.remove_edge(e);
        }
        for h in readers {
            h.join().expect("reader panicked");
        }
    });
    assert!(
        store.epochs().current().number() > 1,
        "no swap ever happened"
    );
}

/// Epoch numbers increase monotonically with each publishing removal, the
/// engine's batch stats report the epoch they were served at, and a failed
/// removal publishes nothing.
#[test]
fn epoch_numbers_are_monotone_and_stamped_into_stats() {
    let g = generators::grid(5, 5);
    let (mut store, mut engine) = live_setup(&g, 4, 41, EngineConfig::default());
    let mut seen = Vec::new();
    for _ in 0..4 {
        seen.push(serve(&mut engine, Vec::new(), &[(0, 24)]).stats.epoch);
        let e = non_tree_edge(&store);
        let before = store.epochs().current().number();
        let report = store.remove_edge(e).unwrap();
        assert_eq!(report.epoch, before + 1);
    }
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "epochs not monotone: {seen:?}"
    );
    // A rejected removal (bridge) leaves the published epoch untouched.
    let tree = store
        .live()
        .alive_edges()
        .find(|&e| store.live().edge_label(e).is_tree)
        .unwrap();
    let before = store.epochs().current().number();
    if store.remove_edge(tree).is_err() {
        assert_eq!(store.epochs().current().number(), before);
    }
}

// -------------------------------------------------------------- churn chaos

/// Adversarial targeted removal rounds: highest-degree victims first,
/// every answer checked against BFS truth, and after the final swap every
/// alive pair is reachable with no transient faults.
#[test]
fn targeted_churn_rounds_keep_perfect_reachability() {
    let g = generators::barabasi_albert(150, 3, &mut StdRng::seed_from_u64(51));
    let config = EngineConfig::default();
    let mut store = LiveStore::new(&g, 4, Seed::new(52), config).unwrap();
    let mut engine = Engine::over_epochs(Arc::clone(store.epochs()), config);
    let mut cfg = ChurnConfig::new(4);
    cfg.model = RemovalModel::Targeted;
    cfg.rounds = 6;
    cfg.edge_removals_per_round = 10;
    cfg.vertex_removals_per_round = 3;
    let report = run_churn_scenario(&mut store, &mut engine, &cfg).unwrap();
    assert_eq!(
        report.mismatches, 0,
        "engine diverged from ground truth under attack"
    );
    assert!(report.final_epoch > 1);
    // Post-swap, zero-fault reachability is 100% over the survivors.
    let live = store.live();
    let alive: Vec<VertexId> = live.alive_vertices().collect();
    let mut rng = Seed::new(53).stream();
    let pairs: Vec<(usize, usize)> = (0..50)
        .map(|_| {
            (
                alive[(rng() % alive.len() as u64) as usize].index(),
                alive[(rng() % alive.len() as u64) as usize].index(),
            )
        })
        .collect();
    assert!(
        answers(serve(&mut engine, Vec::new(), &pairs))
            .into_iter()
            .all(|connected| connected),
        "post-swap reachability below 100%"
    );
}

/// The delta-freeze path and a from-scratch rebuild of the same surviving
/// topology are identical: equal column for column (every surviving
/// record, every removed key absent), equal in bytes, and equal in every
/// query answer.
#[test]
fn delta_swaps_match_full_rebuild_bit_for_bit() {
    let g = generators::grid(7, 7);
    let config = EngineConfig::default();
    let mut store = LiveStore::new(&g, 4, Seed::new(61), config).unwrap();
    for round in 0..4 {
        let seed = Seed::new(62).derive(round);
        let edges = plan_edge_removals(store.live(), 3, RemovalModel::Random, seed);
        store.remove_edges(&edges).unwrap();
        let vertices = plan_vertex_removals(store.live(), 1, RemovalModel::Random, seed.derive(1));
        store.remove_vertices(&vertices).unwrap();
    }
    let live = store.live();
    let delta_built = Arc::clone(store.epochs().current().store());
    let rebuilt = Arc::new(full_store_of(live, &config).unwrap());
    // Column-level identity over the whole id space.
    assert_eq!(*delta_built, *rebuilt);
    assert_eq!(delta_built.bytes_total(), rebuilt.bytes_total());
    // Query-level identity.
    let alive_edges: Vec<EdgeId> = live.alive_edges().collect();
    let alive_vertices: Vec<VertexId> = live.alive_vertices().collect();
    let mut rng = Seed::new(63).stream();
    let mut groups: Vec<FaultSetBatch> = (0..4)
        .map(|_| {
            let mut faults = Vec::new();
            while faults.len() < 4 {
                let e = alive_edges[(rng() % alive_edges.len() as u64) as usize];
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            FaultSetBatch {
                faults,
                queries: Vec::new(),
            }
        })
        .collect();
    for i in 0..120 {
        let s = alive_vertices[(rng() % alive_vertices.len() as u64) as usize];
        let t = alive_vertices[(rng() % alive_vertices.len() as u64) as usize];
        groups[i % 4].queries.push((s, t));
    }
    let mut over_delta = Engine::with_shared(delta_built, config);
    let mut over_rebuilt = Engine::with_shared(rebuilt, config);
    let a = over_delta.execute_grouped(&groups);
    assert!(a.groups.iter().all(Result::is_ok));
    assert_eq!(a.groups, over_rebuilt.execute_grouped(&groups).groups);
}

/// The published store equals a fresh build of the live labeling column
/// for column, and holds exactly its bytes.
fn assert_published_is_fresh_build(store: &LiveStore) {
    let published = store.epochs().current();
    let fresh = full_store_of(store.live(), &store.config()).unwrap();
    assert_eq!(**published.store(), fresh, "epoch {}", published.number());
    assert_eq!(
        published.store().bytes_total(),
        fresh.bytes_total(),
        "epoch {}",
        published.number()
    );
}

/// Store memory under long churn, in the DRFE-R multi-round shape: 1000
/// single-edge delta rounds on er 1024/8 (about 4k of its edges are
/// removable). Every 100 rounds the published store must equal a fresh
/// build of the surviving topology column for column, and its bytes must
/// equal the fresh build's exactly: delta freezes leave nothing behind.
#[test]
fn long_churn_store_stays_equal_to_a_fresh_build() {
    const ROUNDS: usize = 1000;
    let mut rng = StdRng::seed_from_u64(1);
    let g = generators::connected_random(1024, 8.0 / 1024.0, 1, &mut rng);
    let mut store = LiveStore::new(&g, 4, Seed::new(0x10C), EngineConfig::default()).unwrap();
    let plan = plan_edge_removals(
        store.live(),
        g.num_edges(),
        RemovalModel::Random,
        Seed::new(0x10D),
    );
    let mut delta_rounds = 0;
    for e in plan {
        // A bridge of the surviving topology is refused and publishes
        // nothing; it is not a round.
        let Ok(report) = store.remove_edge(e) else {
            continue;
        };
        if matches!(report.path, SwapPath::Delta { .. }) {
            delta_rounds += 1;
            if delta_rounds % 100 == 0 {
                assert_published_is_fresh_build(&store);
            }
            if delta_rounds == ROUNDS {
                break;
            }
        }
    }
    assert_eq!(delta_rounds, ROUNDS, "ran out of removable edges");
}

/// Regression: the elimination cache must not serve a basis eliminated
/// against an older epoch's labels. Same fault set, same engine, topology
/// changed underneath — the post-swap answer must follow the new truth.
#[test]
fn elimination_cache_never_crosses_epochs() {
    let g = generators::cycle(8);
    let (mut store, mut engine) = live_setup(&g, 3, 71, EngineConfig::default());
    // The transient fault: any alive edge that is NOT the one we will
    // structurally remove.
    let structural = non_tree_edge(&store);
    let fault = store
        .live()
        .alive_edges()
        .find(|&e| e != structural)
        .unwrap();
    let (s, t) = {
        let edge = g.edge(fault);
        (edge.u().index(), edge.v().index())
    };
    // Pre-churn: the cycle minus one faulted edge is still connected —
    // and this primes the cache for exactly this fault set.
    assert_eq!(answers(serve(&mut engine, vec![fault], &[(s, t)])), [true]);
    // Structurally remove the other edge: the cycle becomes a path, and
    // the same transient fault now disconnects its endpoints.
    store.remove_edge(structural).unwrap();
    let mask = {
        let mut m = store.live().forbidden_base();
        m[fault.index()] = true;
        m
    };
    let truth = connected_avoiding(&g, VertexId::new(s), VertexId::new(t), &mask);
    assert!(!truth, "test graph did not discriminate");
    assert_eq!(
        answers(serve(&mut engine, vec![fault], &[(s, t)])),
        [truth],
        "stale cached elimination served across an epoch swap"
    );
}

// ------------------------------------------------------------- timing gate

/// Release-mode timing gate: publishing a delta-frozen epoch must beat
/// relabel-from-scratch + full freeze of the same topology by a clear
/// margin. Two workloads (`ba-600`, `er-1000`, drawn in that order from
/// one seed-6 RNG), 20 rounds of 5 edge + 1 vertex removals under both
/// removal models, labels of width 16 over 16 shards. Every round first
/// times a full rebuild of the current topology
/// (`measure_full_rebuild_ns`), then applies its removals through the
/// live store. Answers are BFS-audited elsewhere
/// (`targeted_churn_rounds_keep_perfect_reachability`, `churn_soak`); this
/// test only times. Run explicitly: `cargo test --release -p ftl-engine
/// --test chaos -- --ignored delta_swap_beats_relabel_from_scratch`.
#[test]
#[ignore = "timing gate; run in release mode"]
fn delta_swap_beats_relabel_from_scratch() {
    const ROUNDS: usize = 20;
    let median = |mut xs: Vec<u64>| {
        xs.sort_unstable();
        xs.get(xs.len() / 2).copied().unwrap_or(0)
    };
    let mut rng = StdRng::seed_from_u64(6);
    let workloads = [
        ("ba-600", generators::barabasi_albert(600, 3, &mut rng)),
        (
            "er-1000",
            generators::connected_random(1000, 8.0 / 1000.0, 1, &mut rng),
        ),
    ];
    for (name, g) in &workloads {
        for model in [RemovalModel::Random, RemovalModel::Targeted] {
            let seed = Seed::new(0x9A6 ^ g.num_vertices() as u64);
            let config = EngineConfig {
                num_shards: 16,
                ..EngineConfig::default()
            };
            let mut store = LiveStore::new(g, 16, seed, config).unwrap();
            let (mut delta_ns, mut rebuild_ns) = (Vec::new(), Vec::new());
            for round in 0..ROUNDS {
                let round_seed = seed.derive(round as u64 + 1);
                rebuild_ns.push(store.measure_full_rebuild_ns().unwrap());
                let edges = plan_edge_removals(store.live(), 5, model, round_seed);
                let (edge_swap, _) = store.remove_edges(&edges).unwrap();
                let vertices = plan_vertex_removals(store.live(), 1, model, round_seed.derive(1));
                let (vertex_swap, _) = store.remove_vertices(&vertices).unwrap();
                let full = [&edge_swap, &vertex_swap]
                    .iter()
                    .any(|swap| swap.path == SwapPath::FullRebuild);
                if !full {
                    delta_ns.push(edge_swap.elapsed_ns + vertex_swap.elapsed_ns);
                }
            }
            let delta_rounds = delta_ns.len();
            let final_epoch = store.epochs().current().number();
            let (delta, rebuild) = (median(delta_ns), median(rebuild_ns));
            println!(
                "{name} {model:?}: delta median {delta} ns, rebuild median {rebuild} ns \
                 ({:.1}x), {delta_rounds}/{ROUNDS} delta rounds, final epoch {final_epoch}",
                rebuild as f64 / delta.max(1) as f64
            );
            assert!(
                delta_rounds > 0,
                "{name}/{model:?}: no round stayed on the delta path"
            );
            assert!(
                final_epoch > ROUNDS as u64 / 2,
                "{name}/{model:?}: churn barely published any epochs"
            );
            assert!(
                delta * 2 < rebuild,
                "{name}/{model:?}: delta swap not measurably faster: {delta} ns vs {rebuild} ns"
            );
        }
    }
}

// ---------------------------------------------------------------- soak mode

/// Time-boxed churn soak: repeats randomized churn scenarios (fresh graph,
/// fresh seeds each iteration) until the `CHURN_SOAK_MS` budget runs out,
/// requiring perfect ground-truth agreement throughout, and a final store
/// equal (columns and bytes) to a fresh build after every iteration. Run explicitly:
/// `CHURN_SOAK_MS=30000 cargo test -p ftl-engine --test chaos -- --ignored`.
#[test]
#[ignore = "time-boxed soak; enable via CHURN_SOAK_MS"]
fn churn_soak() {
    let budget_ms: u64 = std::env::var("CHURN_SOAK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let start = std::time::Instant::now();
    let mut iteration = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        let mut rng = StdRng::seed_from_u64(0x50AC ^ iteration);
        let g = generators::barabasi_albert(200, 3, &mut rng);
        let config = EngineConfig::default();
        let mut store = LiveStore::new(&g, 4, Seed::new(iteration), config).unwrap();
        let mut engine = Engine::over_epochs(Arc::clone(store.epochs()), config);
        let mut cfg = ChurnConfig::new(4);
        cfg.seed = iteration;
        cfg.rounds = 10;
        cfg.edge_removals_per_round = 8;
        cfg.vertex_removals_per_round = 2;
        cfg.model = if iteration.is_multiple_of(2) {
            RemovalModel::Random
        } else {
            RemovalModel::Targeted
        };
        let report = run_churn_scenario(&mut store, &mut engine, &cfg).unwrap();
        assert_eq!(
            report.mismatches, 0,
            "soak iteration {iteration} diverged from ground truth"
        );
        assert_published_is_fresh_build(&store);
        iteration += 1;
    }
    assert!(iteration > 0, "soak budget too small to run one iteration");
    println!(
        "churn_soak: {iteration} iterations in {:?}",
        start.elapsed()
    );
}
