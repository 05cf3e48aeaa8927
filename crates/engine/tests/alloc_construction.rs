//! Allocation guard for construction: a counting global allocator checks
//! that building a graph, labelling it and freezing its store allocate a
//! number of times that does not grow with the graph. The adjacency is one
//! port array and the `φ` bank one contiguous row bank from the sampler to
//! the store, so quadrupling the edges of a graph on the same vertices, or
//! the vertices at the same average degree, must leave the count where it
//! was; one allocation per vertex or per edge shows up as thousands.
//!
//! Deterministic: it counts allocation events, it does not time anything.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout
)]
// Implementing `GlobalAlloc` for the counting shim is inherently `unsafe`;
// it delegates straight to `System`.
#![allow(unsafe_code)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, LiveStore};
use ftl_graph::{generators, Graph};
use ftl_seeded::Seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, plus a per-thread count of allocation events (alloc +
/// realloc). Per thread, so tests running in parallel see only their own.
struct CountingAlloc;

thread_local! {
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

/// How far apart the two graphs' counts may be: the growth steps of a few
/// queues and stacks, not anything per edge.
const SLACK: usize = 32;

/// The `er:N:AVG_DEG` graph of `ftl-serve`'s graph specs at seed 1, built
/// as `parse_graph_spec` builds it.
fn er(n: usize, avg_deg: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(1);
    generators::connected_random(n, avg_deg / n as f64, 1, &mut rng)
}

/// Allocation events of one call of `build`.
fn allocations(build: impl FnOnce()) -> usize {
    let before = alloc_count();
    build();
    alloc_count() - before
}

/// Checks that two counts agree within [`SLACK`].
fn assert_close(what: &str, (a, at_a): (usize, String), (b, at_b): (usize, String)) {
    println!("{what}: {a} allocations at {at_a}, {b} at {at_b}");
    assert!(
        a.abs_diff(b) <= SLACK,
        "{what} allocated {a} times at {at_a} and {b} times at {at_b}: \
         construction allocates per vertex or per edge again"
    );
}

/// Runs `build` on `er:1024:4` and on `er:1024:16` and checks the counts
/// agree within [`SLACK`]; returns the larger count.
fn assert_flat_in_edges(what: &str, build: impl Fn(&Graph)) -> usize {
    let (sparse, dense) = (er(1024, 4.0), er(1024, 16.0));
    assert!(
        dense.num_edges() >= 3 * sparse.num_edges(),
        "{} vs {} edges",
        sparse.num_edges(),
        dense.num_edges()
    );
    let a = allocations(|| build(&sparse));
    let b = allocations(|| build(&dense));
    assert_close(
        what,
        (a, format!("m = {}", sparse.num_edges())),
        (b, format!("m = {}", dense.num_edges())),
    );
    a.max(b)
}

#[test]
fn graph_construction_allocates_independently_of_the_graph_size() {
    let count = |n: usize, avg_deg: f64| {
        let mut m = 0;
        let a = allocations(|| m = er(n, avg_deg).num_edges());
        (a, format!("er:{n}:{avg_deg} (m = {m})"))
    };
    assert_close("er spec, edges ×4", count(1024, 4.0), count(1024, 16.0));
    assert_close("er spec, vertices ×4", count(256, 8.0), count(1024, 8.0));
}

#[test]
fn labelling_and_freezing_allocate_independently_of_the_edge_count() {
    let config = EngineConfig::default();
    assert_flat_in_edges("label + store_from_cycle_space", |g| {
        let scheme = CycleSpaceScheme::label(g, 4, Seed::new(7)).unwrap();
        let store = store_from_cycle_space(&scheme, config.num_shards).unwrap();
        assert_eq!(store.len(), g.num_vertices() + g.num_edges());
    });
}

/// Well below `n = 1024`: copying the graph one adjacency list per vertex
/// (the live scheme keeps its own copy) exceeds it on its own.
const LIVE_STORE_BOUND: usize = 512;

#[test]
fn live_store_construction_allocates_independently_of_the_edge_count() {
    let most = assert_flat_in_edges("LiveStore::new", |g| {
        let live = LiveStore::new(g, 4, Seed::new(7), EngineConfig::default()).unwrap();
        assert_eq!(live.live().num_alive_edges(), g.num_edges());
    });
    assert!(
        most < LIVE_STORE_BOUND,
        "LiveStore::new allocated {most} times at n = 1024 (bound {LIVE_STORE_BOUND})"
    );
}
