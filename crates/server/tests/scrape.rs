//! Loopback tests for the metrics plane: a `MetricsRequest 0x50` scrape
//! against a live, loaded server must return every documented family,
//! parse into the per-stage table, and agree exactly with what the load
//! actually did.

// The whole file asserts on real metric values; under `no-obs` every
// series reads zero by design, so there is nothing to test.
#![cfg(not(feature = "no-obs"))]
// Test code: panicking asserts are the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore};
use ftl_graph::generators;
use ftl_seeded::Seed;
use ftl_server::{
    derive_fault_sets, parse_stage_table, run_loadgen, scrape_metrics, LoadgenConfig, Server,
    ServerConfig, ServerHandle,
};
use std::sync::Arc;
use std::time::Duration;

fn spawn_server(g: &ftl_graph::Graph, config: ServerConfig) -> ServerHandle {
    let scheme = CycleSpaceScheme::label(g, 8, Seed::new(7)).expect("graph is connected");
    let store = store_from_cycle_space(&scheme, 8).unwrap();
    let epochs = Arc::new(EpochStore::new(Arc::new(store)));
    Server::spawn(epochs, EngineConfig::default(), config, "127.0.0.1:0").unwrap()
}

/// Every series family docs/observability.md documents, in both the
/// pipeline (global-registry) and server (per-instance) halves.
const DOCUMENTED_FAMILIES: &[&str] = &[
    // Pipeline side.
    "# TYPE ftl_stage_ns summary",
    "ftl_engine_queries_total",
    "ftl_engine_eliminations_total",
    "ftl_engine_cache_hits_total",
    "ftl_engine_cache_hit_ratio",
    "ftl_epoch_published",
    "ftl_epoch_pinned",
    "ftl_epoch_lag",
    "ftl_epoch_delta_swaps_total",
    "ftl_epoch_full_rebuilds_total",
    "# TYPE ftl_epoch_swap_ns summary",
    "ftl_live_relabels_total",
    // Chaos + resilient-client side (global registry; zero when the
    // process drove no chaos proxy or retrying client).
    "ftl_chaos_connections_total",
    "ftl_chaos_resets_total",
    "ftl_chaos_blackholes_total",
    "ftl_chaos_garbage_total",
    "ftl_chaos_shaped_total",
    "ftl_client_retries_total",
    "ftl_client_reconnects_total",
    "ftl_client_backoffs_total",
    "ftl_client_deadline_exceeded_total",
    "ftl_client_giveups_total",
    // Server side.
    "ftl_server_batches_total",
    "ftl_server_groups_total",
    "ftl_server_requests_total",
    "ftl_server_queries_total",
    "ftl_server_rejects_total",
    "ftl_server_engine_errors_total",
    "ftl_server_frame_errors_total",
    "ftl_server_slow_client_drops_total",
    "ftl_server_deadline_drops_total",
    "ftl_server_watchdog_fires_total",
    "ftl_server_connections_total",
    "ftl_server_tenant_requests_total",
    "ftl_server_tenant_queries_total",
    "ftl_server_tenant_rejects_total",
    "ftl_server_tenant_latency_ns",
];

#[test]
fn mid_load_scrape_returns_every_documented_series_and_parses() {
    let g = generators::grid(12, 12);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 2,
            window: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();
    let sets = derive_fault_sets(&g, 4, 3, 42);
    let load = {
        let g = g.clone();
        let sets = sets.clone();
        std::thread::spawn(move || {
            run_loadgen(
                addr,
                &g,
                &sets,
                LoadgenConfig {
                    clients: 16,
                    requests_per_client: 32,
                    queries_per_request: 8,
                    seed: 11,
                    ..LoadgenConfig::default()
                },
            )
        })
    };

    // Scrape while the clients are still running: retry until the server
    // has visibly answered traffic (the loadgen run outlasts this by a
    // wide margin, but don't race its first request).
    let mut mid = String::new();
    for _ in 0..200 {
        let text = scrape_metrics(addr).expect("scrape must succeed against a live server");
        if !text.contains("ftl_server_requests_total 0\n") {
            mid = text;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(!mid.is_empty(), "server answered no traffic while loaded");
    for family in DOCUMENTED_FAMILIES {
        assert!(mid.contains(family), "scrape is missing `{family}`:\n{mid}");
    }

    // The stage table parses out of the same text, one row per pipeline
    // stage, and the stages a loaded server must have exercised by the
    // time requests were answered have samples.
    let rows = parse_stage_table(&mid);
    let names: Vec<&str> = rows.iter().map(|r| r.stage.as_str()).collect();
    assert_eq!(
        names,
        [
            "frame_read",
            "admission",
            "window_wait",
            "elimination",
            "answer",
            "response_write"
        ],
        "stage table rows:\n{mid}"
    );
    for stage in ["frame_read", "admission", "window_wait", "response_write"] {
        let row = rows.iter().find(|r| r.stage == stage).unwrap();
        assert!(row.count > 0, "stage `{stage}` has no samples mid-load");
        assert!(row.p99_ns >= row.p50_ns, "quantiles out of order: {row:?}");
    }

    let report = load.join().unwrap();
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.io_errors, 0);

    // Post-load scrape: the per-instance server counters are *exact*
    // (this is why ServerStats is per server, not process-global).
    let done = scrape_metrics(addr).unwrap();
    let expect_requests = format!("ftl_server_requests_total {}\n", report.requests_ok);
    let expect_queries = format!("ftl_server_queries_total {}\n", report.queries_ok);
    assert!(done.contains(&expect_requests), "{done}");
    assert!(done.contains(&expect_queries), "{done}");
    // 16 loadgen clients + however many scrape connections this test made
    // (each scrape is its own connection).
    assert!(done.contains("ftl_server_tenant_requests_total{tenant=\"15\"}"));

    handle.shutdown();
}

#[test]
fn scrape_of_idle_server_is_well_formed() {
    let g = generators::grid(4, 4);
    let handle = spawn_server(&g, ServerConfig::default());
    let text = scrape_metrics(handle.local_addr()).unwrap();
    // Families render even with zero traffic; the server-side totals are
    // exactly zero on a fresh instance.
    assert!(text.contains("ftl_server_requests_total 0\n"), "{text}");
    assert!(text.contains("ftl_server_batches_total 0\n"), "{text}");
    assert_eq!(parse_stage_table(&text).len(), 6);
    // An idle scrape still parses as one sample line or TYPE line per
    // row, nothing else: every line is one of the two shapes.
    for line in text.lines() {
        assert!(
            line.starts_with("# TYPE ") || line.rsplit_once(' ').is_some(),
            "unparseable line `{line}`"
        );
    }
    handle.shutdown();
}
