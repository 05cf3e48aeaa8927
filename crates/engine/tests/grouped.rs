//! The engine's one call, `execute_grouped`: many groups in one call
//! answer as one group per call does, it eliminates once per group,
//! refills a reused response, and isolates failures per group — a bad
//! fault set, a bad vertex or a panic.

// Test code: panicking asserts are the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{Engine, EngineConfig, EngineError, FaultSetBatch, GroupedResponse};
use ftl_graph::{generators, EdgeId, VertexId};
use ftl_seeded::Seed;

fn scheme() -> (ftl_graph::Graph, CycleSpaceScheme) {
    let g = generators::grid(6, 6);
    let scheme = CycleSpaceScheme::label(&g, 8, Seed::new(77)).expect("grid is connected");
    (g, scheme)
}

/// Groups covering three distinct fault sets, eight queries each.
fn groups(g: &ftl_graph::Graph) -> Vec<FaultSetBatch> {
    let n = g.num_vertices();
    let sets = [
        vec![EdgeId::new(0), EdgeId::new(5)],
        vec![EdgeId::new(11), EdgeId::new(3), EdgeId::new(19)],
        vec![EdgeId::new(30)],
    ];
    sets.iter()
        .enumerate()
        .map(|(i, faults)| FaultSetBatch {
            faults: faults.clone(),
            queries: (0..8)
                .map(|q| {
                    (
                        VertexId::new((i * 7 + q * 3) % n),
                        VertexId::new((i * 11 + q * 5 + 1) % n),
                    )
                })
                .collect(),
        })
        .collect()
}

/// One call over every group answers as one call per group does — the
/// shape the server uses, one group per call — and either way each
/// distinct fault set is eliminated once, then served from the cache.
#[test]
fn grouped_agrees_with_one_group_per_call() {
    let (g, scheme) = scheme();
    let groups = groups(&g);
    let mut per_call = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let mut eliminations = 0;
    let mut queries = 0;
    let singles: Vec<_> = groups
        .iter()
        .map(|group| {
            let resp = per_call.execute_grouped(std::slice::from_ref(group));
            assert_eq!(resp.stats.fault_sets, 1);
            eliminations += resp.stats.eliminations;
            queries += resp.stats.queries;
            resp.groups.into_iter().next().unwrap()
        })
        .collect();
    assert_eq!(eliminations, 3);
    assert_eq!(queries, 24);

    let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let grouped = engine.execute_grouped(&groups);
    assert_eq!(grouped.groups, singles);
    assert!(grouped.groups.iter().all(Result::is_ok));
    assert_eq!(grouped.stats.queries, queries);
    assert_eq!(grouped.stats.fault_sets, 3);
    assert_eq!(grouped.stats.eliminations, 3);
    // The replay finds every set cached.
    let replay = engine.execute_grouped(&groups);
    assert_eq!(replay.groups, singles);
    assert_eq!(replay.stats.eliminations, 0);
    assert_eq!(replay.stats.cache_hits, 3);
}

/// Several engines on their own threads over one shared store — the shape
/// of a server with several executors — each match a serial reference
/// engine group for group, and each eliminates every distinct fault set
/// exactly once: on its first call, never again on a cache-warm replay.
#[test]
fn par_grouped_matches_serial_and_eliminates_once_per_group() {
    use std::sync::Arc;
    let (g, scheme) = scheme();
    let config = EngineConfig::default();
    let mut serial = Engine::from_cycle_space(&scheme, config).unwrap();
    let store = serial.shared_store();
    let groups = Arc::new(groups(&g));
    let expected = Arc::new(serial.execute_grouped(&groups).groups);
    assert!(expected.iter().all(|gr| gr.is_ok()));
    let handles: Vec<_> = (0..3)
        .map(|worker| {
            let store = Arc::clone(&store);
            let groups = Arc::clone(&groups);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut engine = Engine::with_shared(store, config);
                let cold = engine.execute_grouped(&groups);
                assert_eq!(cold.groups, *expected, "worker {worker} cold");
                assert_eq!(cold.stats.eliminations, 3, "worker {worker}");
                let warm = engine.execute_grouped(&groups);
                assert_eq!(warm.groups, *expected, "worker {worker} warm");
                assert_eq!(warm.stats.eliminations, 0, "worker {worker}");
                assert_eq!(warm.stats.cache_hits, 3, "worker {worker}");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

/// `execute_grouped_into` over a reused response gives the same answers as
/// a fresh `execute_grouped`, whatever the previous call left in it: more
/// groups, fewer groups, or failed groups.
#[test]
fn grouped_into_reused_response_matches_fresh() {
    let (g, scheme) = scheme();
    let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let full = groups(&g);
    let mut broken = groups(&g);
    broken[0].faults = vec![EdgeId::new(999_999)];
    let mut out = GroupedResponse::default();
    for batch in [&full[..], &full[1..], &broken[..], &full[..2], &full[..]] {
        engine.execute_grouped_into(batch, &mut out);
        let fresh = engine.execute_grouped(batch);
        assert_eq!(out.groups, fresh.groups);
        assert_eq!(out.stats.queries, fresh.stats.queries);
        assert_eq!(out.stats.fault_sets, batch.len());
    }
}

#[test]
fn grouped_isolates_bad_fault_set_to_its_own_group() {
    let (g, scheme) = scheme();
    let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let mut groups = groups(&g);
    groups[1].faults = vec![EdgeId::new(999_999)]; // no such edge
    let resp = engine.execute_grouped(&groups);
    assert!(resp.groups[0].is_ok());
    assert!(matches!(resp.groups[1], Err(EngineError::Store(_))));
    assert!(resp.groups[2].is_ok());
}

/// An out-of-range *vertex* id fails its own group, and only it: the
/// groups beside it keep their answers. A front end that sends each
/// request as its own group (as `ftl-server` does) so fails that request
/// alone.
#[test]
fn grouped_isolates_bad_vertex_to_its_own_group() {
    let (g, scheme) = scheme();
    let mut engine = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let mut reference = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let mut groups = groups(&g);
    let expected = reference.execute_grouped(&groups);
    groups[0].queries[3] = (VertexId::new(999_999), VertexId::new(0)); // no such vertex
    let resp = engine.execute_grouped(&groups);
    assert!(matches!(resp.groups[0], Err(EngineError::Store(_))));
    assert_eq!(resp.groups[1..], expected.groups[1..]);
    assert!(resp.groups[1..].iter().all(Result::is_ok));
    assert_eq!(resp.stats.queries, 16, "the failed group answered nothing");
}

/// A panic while serving one group fails that group alone: the groups
/// after it keep their answers, the core is rebuilt, and the next call
/// fully succeeds.
#[test]
fn grouped_contains_panic_to_its_group() {
    let (g, scheme) = scheme();
    let chaos = EdgeId::new(0);
    let config = EngineConfig {
        chaos_panic_edge: Some(chaos),
        ..EngineConfig::default()
    };
    let mut engine = Engine::from_cycle_space(&scheme, config).unwrap();
    let mut reference = Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap();
    let groups = groups(&g); // group 0 contains edge 0 → panics
    let resp = engine.execute_grouped(&groups);
    match &resp.groups[0] {
        Err(EngineError::Panicked { message }) => {
            assert!(
                message.contains("chaos"),
                "lost the panic payload: {message}"
            );
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The groups after the panicking one complete and keep their answers.
    let expected = reference.execute_grouped(&groups);
    assert_eq!(resp.groups[1], expected.groups[1]);
    assert_eq!(resp.groups[2], expected.groups[2]);
    // The engine survives on a rebuilt core: a chaos-free replay fully
    // succeeds.
    let resp = engine.execute_grouped(&groups[1..]);
    assert!(resp.groups.iter().all(|r| r.is_ok()));
    assert_eq!(resp.groups, expected.groups[1..]);
}
