//! The serving path's no-allocation promise, checked at run time: a
//! counting global allocator proves that a warmed-up serving loop — the
//! one `ftl-server`'s executors run: an epoch-following engine, one
//! [`Engine::execute_grouped_into`] call per request over a reused
//! [`FaultSetBatch`] and [`GroupedResponse`], cache-hot fault sets,
//! sidecar-served lookups — performs **zero** heap allocations per call. docs/static-analysis.md maps each function the promise
//! covers to the test here that reaches it.
//!
//! The measured loop runs with `ftl-obs` instrumentation **enabled** (the
//! default feature set) and does what a server executor does after each
//! call, through the server's own registry ([`ServerStats`]): it folds in
//! the engine call's stats, the request's served answers and the window,
//! under a live [`ftl_obs::Span`] — so the zero-allocation claim covers
//! the observability layer and the server's recording code, not just the
//! engine.
//!
//! The kernels beneath the serving loop and the labeling sweep are
//! checked on their own: the gf2 `xor_into`/`count_ones_and` pair and
//! the sketch toggle kernels allocate nothing once warmed.
//!
//! A cache *miss* must allocate too, but only its result: the engine keeps
//! the elimination kernel's scratch, so a warmed cold miss allocates a
//! fixed handful of times plus once per null-space generator.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout
)]
// The one sanctioned `unsafe` in the workspace: implementing `GlobalAlloc`
// for the counting shim. It delegates straight to `System`.
#![allow(unsafe_code)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{
    EliminatedFaultSet, Engine, EngineConfig, EpochStore, FaultSetBatch, GroupResult,
    GroupedResponse,
};
use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::{generators, EdgeId, Graph, VertexId};
use ftl_seeded::{splitmix64, Seed};
use ftl_server::stats::ServerStats;
use ftl_sketch::{Sketch, SketchParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, plus a per-thread count of allocation *events* (alloc +
/// realloc; frees are not counted — the invariant is "no new memory", not
/// "no churn"). Per thread, because the test harness runs tests on
/// parallel threads and the engine serves on its caller's thread: each
/// test sees only its own allocations.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.with(Cell::get)
}

/// One window the way a server executor runs it: one engine call per
/// request, over a kept `batch` refilled from the request, then the
/// call's counters and stage samples and the request's answers as served
/// (per-tenant counters and latency) through the server's registry, and
/// the window once. `seen` gets each request's outcome.
fn serve_window(
    engine: &mut Engine,
    batch: &mut FaultSetBatch,
    resp: &mut GroupedResponse,
    window: &[FaultSetBatch],
    stats: &ServerStats,
    seen: &mut dyn FnMut(usize, Option<&GroupResult>),
) {
    for (i, request) in window.iter().enumerate() {
        batch.faults.clone_from(&request.faults);
        batch.queries.clone_from(&request.queries);
        let t0 = std::time::Instant::now();
        engine.execute_grouped_into(std::slice::from_ref(batch), resp);
        let call_ns = t0.elapsed().as_nanos() as u64;
        stats.record_engine(&resp.stats, call_ns);
        stats.record_ok(0, request.queries.len(), call_ns);
        seen(i, resp.groups.first());
    }
    stats.record_batch();
}

#[test]
fn warmed_sidecar_batch_allocates_nothing() {
    // A grid big enough to have interesting fault sets, small enough that
    // the test is instant.
    let g = generators::grid(6, 6);
    let f = 4;
    let scheme = CycleSpaceScheme::label(&g, f, Seed::new(7)).unwrap();
    let config = EngineConfig::default();
    let store = ftl_engine::store_from_cycle_space(&scheme, config.num_shards).unwrap();
    let epochs = std::sync::Arc::new(EpochStore::new(std::sync::Arc::new(store)));
    let mut engine = Engine::over_epochs(std::sync::Arc::clone(&epochs), config);
    let stats = ServerStats::new(epochs);

    // A window of requests with a spread of endpoints; two requests name
    // the same canonical fault set in different orders, as two clients
    // may. The second cuts off corner vertex 0 (edges 0 and 1), so its
    // null-space generator puts the per-query parity test in the loop.
    let fault_sets: Vec<Vec<EdgeId>> = vec![
        vec![EdgeId::new(0), EdgeId::new(7)],
        vec![EdgeId::new(0), EdgeId::new(1), EdgeId::new(19)],
        vec![EdgeId::new(7), EdgeId::new(0)],
    ];
    let window: Vec<FaultSetBatch> = fault_sets
        .into_iter()
        .enumerate()
        .map(|(ri, faults)| FaultSetBatch {
            faults,
            queries: (0..8)
                .map(|i| {
                    let i = ri * 8 + i;
                    (
                        VertexId::new(i % g.num_vertices()),
                        VertexId::new((i * 5 + 1) % g.num_vertices()),
                    )
                })
                .collect(),
        })
        .collect();

    // Warm up: the first window eliminates both distinct fault sets
    // (allocates: basis vectors, cache entries), grows the batch and the
    // response to their high-water marks, touches every scratch arena and
    // allocates the tenant's counters. The last warm window keeps each
    // request's answers.
    let (mut batch, mut resp) = (FaultSetBatch::default(), GroupedResponse::default());
    let mut expected = vec![Vec::new(); window.len()];
    for _ in 0..3 {
        serve_window(
            &mut engine,
            &mut batch,
            &mut resp,
            &window,
            &stats,
            &mut |i, answers| expected[i] = answers.unwrap().clone().unwrap(),
        );
    }
    assert_eq!(resp.stats.cache_hits, 1, "warm cache");
    assert!(expected.iter().all(|a| a.len() == 8));

    // The measured windows: cache-hot, sidecar-served, batch and response
    // reused — and instrumented, under a live span. The engine records
    // nothing itself; like a server executor, the loop times each call
    // and records through the server's registry.
    let stages = ftl_obs::StageSet::new();
    let mut wrong = 0;
    let before = alloc_count();
    for _ in 0..10 {
        let _span = ftl_obs::Span::enter(&stages, ftl_obs::Stage::ResponseWrite);
        let t0 = std::time::Instant::now();
        serve_window(
            &mut engine,
            &mut batch,
            &mut resp,
            &window,
            &stats,
            &mut |i, answers| {
                if !matches!(answers, Some(Ok(a)) if Some(a) == expected.get(i)) {
                    wrong += 1;
                }
            },
        );
        stages.record(ftl_obs::Stage::WindowWait, t0.elapsed().as_nanos() as u64);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "warmed-up per-request execute_grouped_into allocated {delta} time(s) across \
         10 windows — the zero-alloc serving loop regressed"
    );
    assert_eq!(wrong, 0, "reused batch and response must stay correct");
    // The records landed: the loop really exercised the obs primitives.
    let (windows, requests) = (13, 13 * window.len() as u64);
    let snap = stats.snapshot();
    assert_eq!(snap.queries, requests * 8);
    assert_eq!(snap.requests, requests);
    assert_eq!(snap.batches, windows);
    assert_eq!(snap.groups, requests, "one fault set resolved per request");
    assert_eq!(snap.tenants.len(), 1);
    assert_eq!(stages.get(ftl_obs::Stage::ResponseWrite).count(), 10);
    assert_eq!(stages.get(ftl_obs::Stage::WindowWait).count(), 10);
    let scrape = stats.render_text();
    for line in [
        format!("ftl_engine_queries_total {}\n", requests * 8),
        // The set named in two orders is eliminated once, like the other.
        "ftl_engine_eliminations_total 2\n".to_string(),
        format!("ftl_engine_cache_hits_total {}\n", requests - 2),
        format!("ftl_epoch_pinned {}\n", resp.stats.epoch),
    ] {
        assert!(scrape.contains(&line), "{line:?} not in:\n{scrape}");
    }
}

#[test]
fn warmed_gf2_kernels_allocate_nothing() {
    let mut state = 0xB17u64;
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let (mut a, mut b) = (BitVec::zeros(300), BitVec::zeros(300));
    a.randomize(&mut next);
    b.randomize(&mut next);
    let mut expected = a.clone();
    expected.xor_assign(&b);

    // Warm up: the first `xor_into` grows `out` to the operands' width.
    let mut out = BitVec::zeros(0);
    a.xor_into(&b, &mut out);
    let before = alloc_count();
    let mut parity = 0;
    for _ in 0..10 {
        a.xor_into(&b, &mut out);
        parity ^= out.count_ones_and(&a) & 1;
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "warmed xor_into/count_ones_and allocated {delta} time(s) across 10 calls"
    );
    assert_eq!(out, expected);
    assert_eq!(parity, 0, "ten equal parities cancel");
}

#[test]
fn warmed_sketch_toggles_allocate_nothing() {
    let g = generators::grid(6, 6);
    let params = SketchParams::for_graph(&g);
    let m = g.num_edges();
    let sh = Seed::new(5);
    let keys: Vec<u64> = (0..m as u64).map(splitmix64).collect();
    let levels = params.levels_for_keys(sh, &keys);
    // One random identifier per edge, in the bank the labeling sweep reads.
    let mut bank = BitMatrix::with_rows(m, params.cell_bits());
    let mut state = 0x5EEDu64;
    for e in 0..m {
        bank.randomize_row(e, || {
            state = splitmix64(state);
            state
        });
    }
    let eid_bits = bank.row_to_bitvec(0);
    let mut sketch = Sketch::zero(params);

    // Each pass toggles every edge twice per kernel, so every pass leaves
    // the sketch zero.
    let pass = |sketch: &mut Sketch| {
        for &key in &keys {
            sketch.toggle_edge(&eid_bits, key, sh);
            sketch.toggle_edge(&eid_bits, key, sh);
        }
        sketch.toggle_edges_from_bank(&bank, 0..m, &levels);
        let toggled = !sketch.is_zero();
        sketch.toggle_edges_from_bank(&bank, 0..m, &levels);
        toggled
    };
    pass(&mut sketch);
    let before = alloc_count();
    let mut toggled = true;
    for _ in 0..3 {
        toggled &= pass(&mut sketch);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "warmed sketch toggles allocated {delta} time(s) across 3 passes"
    );
    assert!(toggled, "the bank toggle changed the sketch");
    assert!(sketch.is_zero(), "every toggle was undone");
}

/// A sorted fault set of `f` edges of `g`: every edge around one vertex
/// (a planted cut, so the set has a null-space generator) plus random
/// edges.
fn fault_set_with_cut(g: &Graph, f: usize, state: &mut u64) -> Vec<EdgeId> {
    *state = splitmix64(*state);
    let v = VertexId::new((*state % g.num_vertices() as u64) as usize);
    let mut set: Vec<EdgeId> = (0..g.num_edges())
        .map(EdgeId::new)
        .filter(|&e| {
            let edge = g.edge(e);
            edge.u() == v || edge.v() == v
        })
        .collect();
    while set.len() < f {
        *state = splitmix64(*state);
        let e = EdgeId::new((*state % g.num_edges() as u64) as usize);
        if !set.contains(&e) {
            set.push(e);
        }
    }
    set.sort_unstable();
    set
}

/// Allocations a cold miss may make besides one per generator: the
/// canonical ids, the tree intervals, the generator list and the `Arc`.
const COLD_MISS_FIXED_ALLOCS: usize = 4;

#[test]
fn warmed_cold_miss_allocates_only_its_result() {
    let g = generators::grid(10, 10);
    let f = 24;
    let scheme = CycleSpaceScheme::label(&g, f, Seed::new(11)).unwrap();
    let config = EngineConfig::default();
    let store = ftl_engine::store_from_cycle_space(&scheme, config.num_shards).unwrap();
    let store = std::sync::Arc::new(store);
    let epochs = std::sync::Arc::new(EpochStore::new(std::sync::Arc::clone(&store)));
    let mut engine = Engine::over_epochs(epochs, config);
    let mut state = 0xC01Du64;
    let group = |faults: Vec<EdgeId>| FaultSetBatch {
        faults,
        queries: (0..4)
            .map(|i| (VertexId::new(i), VertexId::new(99 - i)))
            .collect(),
    };

    // Warm up on distinct fault sets, every one a miss: the kernel scratch
    // grows to its high-water mark, the cache fills and starts evicting,
    // and the response reaches its capacity.
    let mut resp = GroupedResponse::default();
    for _ in 0..4 * config.cache_capacity {
        let groups = [group(fault_set_with_cut(&g, f, &mut state))];
        engine.execute_grouped_into(&groups, &mut resp);
        assert_eq!(resp.stats.eliminations, 1, "every warm-up set is new");
    }

    let (mut total_gens, mut misses) = (0, 0);
    for _ in 0..32 {
        let faults = fault_set_with_cut(&g, f, &mut state);
        let gens = EliminatedFaultSet::eliminate_from_sidecar(faults.clone(), &store)
            .unwrap()
            .num_null_generators();
        let groups = [group(faults)];
        let before = alloc_count();
        engine.execute_grouped_into(&groups, &mut resp);
        let delta = alloc_count() - before;
        assert_eq!(resp.stats.eliminations, 1, "the measured set is a miss");
        assert!(resp.groups.iter().all(|g| g.is_ok()));
        assert!(
            delta <= COLD_MISS_FIXED_ALLOCS + gens,
            "a warmed cold miss with {gens} generator(s) allocated {delta} time(s); \
             at most {COLD_MISS_FIXED_ALLOCS} + {gens} allowed — is the kernel \
             scratch still reused?"
        );
        total_gens += gens;
        misses += 1;
    }
    assert!(total_gens >= misses, "every planted cut yields a generator");
}

#[test]
fn first_run_does_allocate_which_proves_the_counter_works() {
    let before = alloc_count();
    let v: Vec<u64> = (0..100).collect();
    assert!(alloc_count() > before, "counter must observe allocations");
    drop(v);
}
