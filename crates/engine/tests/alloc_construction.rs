//! Allocation guard for label construction: a counting global allocator
//! checks that labelling a graph and freezing its store allocate a number
//! of times that does not grow with the edge count. The `φ` bank is one
//! contiguous row bank from the sampler to the store, so quadrupling the
//! edges of a graph on the same vertices must leave the count where it
//! was; one allocation per edge shows up as thousands.
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

/// The `er:1024:AVG_DEG` graph of `ftl-serve`'s graph specs.
fn er_1024(avg_deg: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(1);
    generators::connected_random(1024, avg_deg / 1024.0, 1, &mut rng)
}

/// Allocation events of one call of `build`.
fn allocations(build: impl FnOnce()) -> usize {
    let before = alloc_count();
    build();
    alloc_count() - before
}

/// Runs `build` on `er:1024:4` and on `er:1024:16` and checks the counts
/// agree within [`SLACK`].
fn assert_flat_in_edges(what: &str, build: impl Fn(&Graph)) {
    let (sparse, dense) = (er_1024(4.0), er_1024(16.0));
    assert!(
        dense.num_edges() >= 3 * sparse.num_edges(),
        "{} vs {} edges",
        sparse.num_edges(),
        dense.num_edges()
    );
    let a = allocations(|| build(&sparse));
    let b = allocations(|| build(&dense));
    println!(
        "{what}: {a} allocations at m = {}, {b} at m = {}",
        sparse.num_edges(),
        dense.num_edges()
    );
    assert!(
        a.abs_diff(b) <= SLACK,
        "{what} allocated {a} times at m = {} and {b} times at m = {}: \
         construction allocates per edge again",
        sparse.num_edges(),
        dense.num_edges()
    );
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

#[test]
fn live_store_construction_allocates_independently_of_the_edge_count() {
    assert_flat_in_edges("LiveStore::new", |g| {
        let live = LiveStore::new(g, 4, Seed::new(7), EngineConfig::default()).unwrap();
        assert_eq!(live.live().num_alive_edges(), g.num_edges());
    });
}
