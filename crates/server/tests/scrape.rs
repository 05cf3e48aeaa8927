//! Loopback tests for the metrics plane: a `MetricsRequest 0x50` scrape
//! against a live, loaded server must return exactly the families
//! `docs/observability.md` catalogs, parse into the per-stage table, agree
//! exactly with what the load actually did, and describe only its own
//! server and the epoch store that server serves.

// The whole file asserts on real metric values; under `no-obs` every
// series reads zero by design, so there is nothing to test.
#![cfg(not(feature = "no-obs"))]
// Test code: panicking asserts are the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore, LiveStore};
use ftl_graph::generators;
use ftl_graph::EdgeId;
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

/// The observability doc, whose "Metric catalog" tables list every family
/// a scrape carries, one `ftl_*` row each.
const CATALOG_DOC: &str = include_str!("../../../docs/observability.md");

/// The family names the catalog documents: `{a,b}` alternations inside a
/// name are expanded, and a trailing label set (`{tenant,quantile}`) is
/// dropped.
fn documented_families() -> Vec<String> {
    let catalog = CATALOG_DOC
        .split_once("\n## Metric catalog\n")
        .map(|(_, rest)| rest.split("\n## ").next().unwrap_or(rest))
        .expect("docs/observability.md has a `## Metric catalog` section");
    let mut families = Vec::new();
    for row in catalog.lines().filter(|l| l.starts_with("| `ftl_")) {
        let cell = row.split('|').nth(1).unwrap();
        let pattern = cell.split('`').nth(1).unwrap();
        families.extend(expand(pattern));
    }
    families
}

fn expand(pattern: &str) -> Vec<String> {
    let Some((head, rest)) = pattern.split_once('{') else {
        return vec![pattern.to_string()];
    };
    let (inner, tail) = rest.split_once('}').unwrap();
    if tail.is_empty() {
        return vec![head.to_string()];
    }
    inner
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The families a scrape declares, one per `# TYPE` line.
fn scraped_families(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .map(str::to_string)
        .collect()
}

/// Pulls one unlabeled sample's value out of a text exposition.
fn scraped(text: &str, series: &str) -> u64 {
    let prefix = format!("{series} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("scrape is missing `{series}`:\n{text}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("`{series}` is not an integer"))
}

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
    // Both directions: every documented family is scraped, and every
    // scraped family is documented.
    let (documented, families) = (documented_families(), scraped_families(&mid));
    for family in &documented {
        assert!(
            families.contains(family),
            "scrape is missing documented `{family}`:\n{mid}"
        );
    }
    for family in &families {
        assert!(
            documented.contains(family),
            "`{family}` is scraped but not in docs/observability.md's catalog"
        );
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

/// Stage counts by stage name.
fn stage_counts(text: &str) -> Vec<(String, u64)> {
    parse_stage_table(text)
        .into_iter()
        .map(|r| (r.stage, r.count))
        .collect()
}

#[test]
fn co_resident_servers_and_a_twin_store_keep_their_metrics_apart() {
    let g = generators::grid(8, 8);
    let config = ServerConfig {
        executors: 2,
        window: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let (a, b) = (spawn_server(&g, config), spawn_server(&g, config));
    // A twin live store in the same process, publishing swaps that
    // neither server serves.
    let mut twin = LiveStore::new(&g, 8, Seed::new(9), EngineConfig::default()).unwrap();
    let swaps = (0..g.num_edges())
        .step_by(5)
        .filter(|&i| twin.remove_edge(EdgeId::new(i)).is_ok())
        .count();
    assert!(swaps > 0, "the twin published no swap");

    // Load server A only.
    let sets = derive_fault_sets(&g, 4, 6, 3);
    let report = run_loadgen(
        a.local_addr(),
        &g,
        &sets,
        LoadgenConfig {
            clients: 4,
            requests_per_client: 32,
            queries_per_request: 8,
            seed: 17,
            ..LoadgenConfig::default()
        },
    );
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.requests_ok, 4 * 32);
    // A request is counted once its answer is written: wait for the last.
    for _ in 0..500 {
        if a.stats().requests == report.requests_ok {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (text_a, text_b) = (a.metrics_text(), b.metrics_text());

    // A reports its own engine work, exactly.
    let queries = a.stats().queries;
    assert!(queries > 0);
    assert_eq!(scraped(&text_a, "ftl_engine_queries_total"), queries);
    let eliminations = scraped(&text_a, "ftl_engine_eliminations_total");
    assert!(eliminations > 0, "{text_a}");
    let a_stages = stage_counts(&text_a);
    assert!(
        a_stages.contains(&("elimination".to_string(), eliminations)),
        "one elimination sample per elimination: {a_stages:?}"
    );

    // B saw no traffic, and none of A's work shows in its scrape.
    for (stage, count) in stage_counts(&text_b) {
        assert_eq!(count, 0, "idle server B has `{stage}` samples:\n{text_b}");
    }
    for family in [
        "ftl_engine_queries_total",
        "ftl_engine_eliminations_total",
        "ftl_engine_cache_hits_total",
        "ftl_server_requests_total",
    ] {
        assert_eq!(scraped(&text_b, family), 0, "B's `{family}`:\n{text_b}");
    }

    // Neither server reports the twin's swaps: each serves a store that
    // never changed.
    for text in [&text_a, &text_b] {
        assert_eq!(scraped(text, "ftl_epoch_published"), 1, "{text}");
        assert_eq!(scraped(text, "ftl_epoch_lag"), 0, "{text}");
        assert_eq!(scraped(text, "ftl_epoch_delta_swaps_total"), 0, "{text}");
        assert_eq!(scraped(text, "ftl_epoch_full_rebuilds_total"), 0, "{text}");
        assert_eq!(scraped(text, "ftl_epoch_swap_ns_count"), 0, "{text}");
        assert_eq!(scraped(text, "ftl_live_relabels_total"), 0, "{text}");
    }
    assert_eq!(
        scraped(&text_b, "ftl_epoch_pinned"),
        0,
        "B never ran an engine call"
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn scrape_reports_the_swaps_of_the_store_it_serves() {
    let g = generators::grid(8, 8);
    let mut live = LiveStore::new(&g, 8, Seed::new(5), EngineConfig::default()).unwrap();
    let handle = Server::spawn(
        Arc::clone(live.epochs()),
        EngineConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut published = 0u64;
    for i in (0..g.num_edges()).step_by(7) {
        if live.remove_edge(EdgeId::new(i)).is_ok() {
            published += 1;
        }
    }
    // A forced rebuild is one full-rebuild swap and one relabel.
    let last = live.rebuild().unwrap();
    published += 1;

    let text = scrape_metrics(handle.local_addr()).unwrap();
    assert_eq!(scraped(&text, "ftl_epoch_published"), last.epoch, "{text}");
    let delta = scraped(&text, "ftl_epoch_delta_swaps_total");
    let full = scraped(&text, "ftl_epoch_full_rebuilds_total");
    assert!(full >= 1, "{text}");
    assert_eq!(delta + full, published, "{text}");
    assert_eq!(scraped(&text, "ftl_epoch_swap_ns_count"), published);
    assert_eq!(
        scraped(&text, "ftl_live_relabels_total"),
        live.live().relabels(),
        "{text}"
    );
    assert!(live.live().relabels() >= 1);
    handle.shutdown();
}

#[test]
fn answer_stage_counts_one_sample_per_answered_query() {
    let g = generators::grid(8, 8);
    // A window long enough that several requests share it: each window
    // then runs several engine calls, one per request.
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            window: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let sets = derive_fault_sets(&g, 8, 4, 21);
    let report = run_loadgen(
        handle.local_addr(),
        &g,
        &sets,
        LoadgenConfig {
            clients: 8,
            requests_per_client: 16,
            queries_per_request: 4,
            seed: 23,
            ..LoadgenConfig::default()
        },
    );
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.requests_ok, 8 * 16);
    // A request is counted once its answer is written: wait for the last.
    for _ in 0..500 {
        if handle.stats().requests == report.requests_ok {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let text = handle.metrics_text();
    let (windows, requests) = (
        scraped(&text, "ftl_server_batches_total"),
        scraped(&text, "ftl_server_requests_total"),
    );
    assert!(
        requests > windows,
        "no window held several requests:\n{text}"
    );
    // One `answer` sample per query the engine answered, not one per
    // window (or per engine call).
    let queries = scraped(&text, "ftl_engine_queries_total");
    assert_eq!(queries, handle.stats().queries);
    let answer = stage_counts(&text)
        .into_iter()
        .find(|(stage, _)| stage == "answer")
        .map(|(_, count)| count);
    assert_eq!(answer, Some(queries), "{text}");
    handle.shutdown();
}
