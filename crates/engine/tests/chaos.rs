//! Fault-injection (chaos) suite for the epoch-versioned serving stack.
//!
//! Every test here injects a failure the serving path must survive
//! *gracefully*: corrupted / truncated / length-lying wire records,
//! panics mid-batch, readers racing snapshot swaps, adversarial
//! targeted churn, and stale-cache hazards across epochs. "Gracefully"
//! means a clean `EngineError` (never a crash), unaffected sibling
//! queries, and 100% agreement with BFS ground truth after every swap.

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
    plan_vertex_removals, run_churn_scenario, truncate_record, BatchRequest, ChurnConfig,
    ConnQuery, Engine, EngineConfig, EngineError, EpochStore, FaultSetBatch, LiveStore,
    RemovalModel, StoreKey, SwapPath,
};
use ftl_graph::traversal::connected_avoiding;
use ftl_graph::{generators, EdgeId, Graph, VertexId};
use ftl_labels::wire::WireLabel;
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

/// One-fault-set batch helper.
fn batch(fs: Vec<EdgeId>, pairs: &[(usize, usize)]) -> BatchRequest {
    BatchRequest {
        fault_sets: vec![fs],
        queries: pairs
            .iter()
            .map(|&(s, t)| ConnQuery {
                s: VertexId::new(s),
                t: VertexId::new(t),
                fault_set: 0,
            })
            .collect(),
    }
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

/// Corrupt records published through a delta swap produce clean errors on
/// the queries that touch them and leave sibling fault sets unharmed.
#[test]
fn corrupted_record_errors_cleanly_and_spares_other_queries() {
    let config = EngineConfig::default();
    let g = generators::grid(5, 5);
    let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(11)).unwrap();
    let good = Arc::new(ftl_engine::store_from_cycle_space(&scheme, 8).unwrap());
    let victim = EdgeId::new(7);
    // Re-encode the victim's record with heavy random corruption and
    // splice it in through the delta path — the way a disk or network
    // flip would reach a serving snapshot.
    let mut bytes = scheme.edge_label(victim).to_wire();
    let smear = bytes.len() * 2;
    corrupt_random_bytes(&mut bytes, smear, Seed::new(0xBAD));
    let bad = good
        .delta_freeze(&[(StoreKey::edge(victim), bytes)], &[])
        .unwrap();
    let epochs = Arc::new(EpochStore::new(good));
    let mut engine = Engine::over_epochs(Arc::clone(&epochs), config);
    // Pre-swap: the victim decodes fine.
    let pre = engine.execute(&batch(vec![victim], &[(0, 24)])).unwrap();
    assert_eq!(pre.results.len(), 1);
    epochs.publish(Arc::new(bad));
    // Post-swap: the fault set naming the corrupt record errors
    // cleanly — no panic, and the error is a store error (or, if the
    // corruption happened to keep the record decodable, the answer
    // still matches ground truth).
    match engine.execute(&batch(vec![victim], &[(0, 24)])) {
        Err(EngineError::Store(_)) => {}
        Err(other) => panic!("unexpected error kind: {other:?}"),
        Ok(resp) => {
            let mask = ftl_graph::traversal::forbidden_mask(&g, &[victim]);
            assert_eq!(
                resp.results[0].connected,
                connected_avoiding(&g, VertexId::new(0), VertexId::new(24), &mask)
            );
        }
    }
    // A sibling fault set that never touches the corrupt record still
    // serves correctly from the same snapshot.
    let clean = EdgeId::new(20);
    let resp = engine.execute(&batch(vec![clean], &[(0, 24)])).unwrap();
    let mask = ftl_graph::traversal::forbidden_mask(&g, &[clean]);
    assert_eq!(
        resp.results[0].connected,
        connected_avoiding(&g, VertexId::new(0), VertexId::new(24), &mask),
        "clean query infected by corrupt neighbor"
    );
}

/// Truncated and length-lying records are rejected with errors, never
/// panics: the sidecar cannot place them, so they reach the per-record
/// wire fallback, which refuses them.
#[test]
fn truncated_and_oversized_records_error_not_panic() {
    let config = EngineConfig::default();
    let g = generators::grid(4, 4);
    let scheme = CycleSpaceScheme::label(&g, 3, Seed::new(12)).unwrap();
    let good = Arc::new(ftl_engine::store_from_cycle_space(&scheme, 8).unwrap());
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
    for (i, bad_bytes) in corruptions.into_iter().enumerate() {
        let bad = good
            .delta_freeze(&[(StoreKey::edge(victim), bad_bytes)], &[])
            .unwrap();
        let mut engine = Engine::with_shared(Arc::new(bad), config);
        let out = engine.execute(&batch(vec![victim], &[(0, 15)]));
        assert!(
            matches!(out, Err(EngineError::Store(_))),
            "corruption #{i}: expected clean store error, got {out:?}"
        );
    }
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
    // The indexed entry point fails as a whole with the same error kind.
    assert!(matches!(
        engine.execute(&batch(vec![chaos_edge], &[(0, 24)])),
        Err(EngineError::Panicked { .. })
    ));
    // The engine — same instance, core rebuilt — keeps serving batches
    // that avoid the tripwire, identical to a fresh engine.
    let req = batch(
        vec![EdgeId::new(9), EdgeId::new(30)],
        &[(0, 24), (3, 21), (7, 18)],
    );
    let resp = engine
        .execute(&req)
        .expect("engine must recover after a contained panic");
    let want = reference.execute(&req).unwrap();
    assert_eq!(resp.results, want.results);
    // And the tripwire still trips — containment is repeatable, not
    // one-shot.
    assert!(engine.execute_grouped(&groups).groups[1].is_err());
    assert_eq!(engine.execute(&req).unwrap().results, want.results);
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
                        let resp = engine
                            .execute(&batch(Vec::new(), &pairs))
                            .expect("reader must never fail across swaps");
                        // No vertex is ever removed and removals skip
                        // bridges, so every snapshot is fully connected.
                        assert!(resp.results.iter().all(|q| q.connected));
                        // Epochs are observed in publication order.
                        assert!(resp.stats.epoch >= last_epoch);
                        last_epoch = resp.stats.epoch;
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
        let resp = engine.execute(&batch(Vec::new(), &[(0, 24)])).unwrap();
        seen.push(resp.stats.epoch);
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
    let mut cfg = ChurnConfig::new("chaos-targeted", 4);
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
    let resp = engine.execute(&batch(Vec::new(), &pairs)).unwrap();
    assert!(
        resp.results.iter().all(|q| q.connected),
        "post-swap reachability below 100%"
    );
}

/// The delta-freeze path and a from-scratch rebuild of the same surviving
/// topology are bit-identical: every surviving record byte-for-byte, every
/// removed key absent, and every query answer (certificates included)
/// equal.
#[test]
fn delta_swaps_match_full_rebuild_bit_for_bit() {
    let g = generators::grid(7, 7);
    let config = EngineConfig {
        collect_certificates: true,
        ..EngineConfig::default()
    };
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
    // Record-level identity over the whole keyspace.
    for v in 0..g.num_vertices() {
        let key = StoreKey::vertex(VertexId::new(v));
        assert_eq!(
            delta_built.get_bytes(key),
            rebuilt.get_bytes(key),
            "vertex {v}"
        );
    }
    for e in 0..g.num_edges() {
        let key = StoreKey::edge(EdgeId::new(e));
        assert_eq!(
            delta_built.get_bytes(key),
            rebuilt.get_bytes(key),
            "edge {e}"
        );
    }
    // Query-level identity, certificates included.
    let alive_edges: Vec<EdgeId> = live.alive_edges().collect();
    let alive_vertices: Vec<VertexId> = live.alive_vertices().collect();
    let mut rng = Seed::new(63).stream();
    let fault_sets: Vec<Vec<EdgeId>> = (0..4)
        .map(|_| {
            let mut fs = Vec::new();
            while fs.len() < 4 {
                let e = alive_edges[(rng() % alive_edges.len() as u64) as usize];
                if !fs.contains(&e) {
                    fs.push(e);
                }
            }
            fs
        })
        .collect();
    let queries: Vec<ConnQuery> = (0..120)
        .map(|i| ConnQuery {
            s: alive_vertices[(rng() % alive_vertices.len() as u64) as usize],
            t: alive_vertices[(rng() % alive_vertices.len() as u64) as usize],
            fault_set: i % fault_sets.len(),
        })
        .collect();
    let req = BatchRequest {
        fault_sets,
        queries,
    };
    let mut over_delta = Engine::with_shared(delta_built, config);
    let mut over_rebuilt = Engine::with_shared(rebuilt, config);
    let a = over_delta.execute(&req).unwrap();
    let b = over_rebuilt.execute(&req).unwrap();
    assert_eq!(a.results, b.results);
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
    let pre = engine.execute(&batch(vec![fault], &[(s, t)])).unwrap();
    assert!(pre.results[0].connected);
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
    let post = engine.execute(&batch(vec![fault], &[(s, t)])).unwrap();
    assert_eq!(
        post.results[0].connected, truth,
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
/// requiring perfect ground-truth agreement throughout. Run explicitly:
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
        let mut cfg = ChurnConfig::new("soak", 4);
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
        iteration += 1;
    }
    assert!(iteration > 0, "soak budget too small to run one iteration");
    println!(
        "churn_soak: {iteration} iterations in {:?}",
        start.elapsed()
    );
}
