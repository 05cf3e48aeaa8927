//! The chaos acceptance scenario: `run_loadgen` driven *through* an
//! `ftl-chaos` proxy executing a seeded fault plan — resets (immediate
//! and mid-frame), black holes, garbage splices, split writes, byte-rate
//! throttling — against a live server with request TTLs and a batcher
//! watchdog. The run must complete (no hangs), audit perfectly against
//! BFS ground truth (no mismatches), and the proxy's fault accounting
//! must show faults fired, with the client's retry machinery
//! demonstrably engaged. The proxy's and the client's counts live in
//! their own reports, never in the server's scrape.

// The scenario asserts real counter values; under `no-obs` every series
// reads zero by design.
#![cfg(not(feature = "no-obs"))]
// Test code: panicking asserts are the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ftl_chaos::{ChaosProxy, ConnFault, PlanConfig};
use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore};
use ftl_graph::generators;
use ftl_seeded::Seed;
use ftl_server::{
    derive_fault_sets, run_loadgen, scrape_metrics, LoadgenConfig, Server, ServerConfig,
    ServerHandle,
};
use std::sync::Arc;
use std::time::Duration;

fn spawn_server(g: &ftl_graph::Graph, config: ServerConfig) -> ServerHandle {
    let scheme = CycleSpaceScheme::label(g, 8, Seed::new(7)).expect("graph is connected");
    let store = store_from_cycle_space(&scheme, 8).unwrap();
    let epochs = Arc::new(EpochStore::new(Arc::new(store)));
    Server::spawn(epochs, EngineConfig::default(), config, "127.0.0.1:0").unwrap()
}

/// A storm with every fault class enabled. ~37% of connections draw a
/// fault; half run shaped.
fn storm(seed: u64) -> PlanConfig {
    PlanConfig {
        seed,
        reset_immediate_pm: 80,
        reset_midstream_pm: 150,
        blackhole_pm: 60,
        garbage_pm: 80,
        split_pm: 350,
        throttle_pm: 150,
        reset_window_bytes: 200,
        garbage_window_bytes: 64,
        ..PlanConfig::default()
    }
}

const CLIENTS: usize = 8;
const REQUESTS: usize = 16;

#[test]
fn loadgen_through_seeded_chaos_completes_clean_and_accounts_every_fault() {
    let plan = storm(21);
    // Plan precondition (pure, deterministic): the initial wave of
    // connections must already contain a fault that fires without byte
    // preconditions, so the retry path is guaranteed to engage. If the
    // seed is ever changed, this fails loudly instead of the scenario
    // silently degrading into a fair-weather run.
    let unconditional = (0..CLIENTS as u64)
        .filter(|&c| {
            matches!(
                plan.plan_for(c).fault,
                ConnFault::ResetImmediate | ConnFault::Blackhole | ConnFault::InjectGarbage { .. }
            )
        })
        .count();
    assert!(
        unconditional > 0,
        "seed draws no unconditional fault in the first {CLIENTS} connections — pick another"
    );

    let g = generators::grid(8, 8);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 2,
            window: Duration::from_millis(2),
            watchdog_after: Duration::from_millis(16),
            ..ServerConfig::default()
        },
    );
    let proxy = ChaosProxy::spawn("127.0.0.1:0", handle.local_addr(), plan).unwrap();

    let sets = derive_fault_sets(&g, 4, 3, 21);
    let started = std::time::Instant::now();
    let report = run_loadgen(
        proxy.local_addr(),
        &g,
        &sets,
        LoadgenConfig {
            clients: CLIENTS,
            requests_per_client: REQUESTS,
            queries_per_request: 4,
            seed: 5,
            ttl_ms: 250,
            max_busy_retries: 2_000,
            request_timeout: Duration::from_millis(300),
            run_deadline: Duration::from_secs(60),
        },
    );
    let elapsed = started.elapsed();

    // 1. No hangs: the run finished on its own, far inside the deadline.
    assert!(!report.timed_out, "run hit the 60s global deadline");
    assert!(elapsed < Duration::from_secs(55), "run took {elapsed:?}");

    // 2. Perfect audit: chaos may delay answers, never corrupt them — a
    //    desynced or torn frame must surface as a retry, not a wrong bit.
    assert_eq!(report.mismatches, 0, "BFS audit diverged under chaos");

    // 3. Full completion: the resilient client path absorbed every
    //    fault; nothing was abandoned or errored out terminally.
    assert_eq!(report.requests_ok, (CLIENTS * REQUESTS) as u64);
    assert_eq!(report.unserved, 0);
    assert_eq!(report.io_errors, 0, "a client gave up on I/O errors");
    assert_eq!(report.engine_failures, 0);

    // 4. The retry machinery demonstrably engaged (the guaranteed
    //    unconditional fault above makes this deterministic): retries,
    //    deadline drops and watchdog fires do not all read zero.
    let chaos = proxy.shutdown();
    assert!(chaos.connections >= CLIENTS as u64);
    assert!(chaos.faults_fired() > 0, "the storm fired nothing");
    let stats = handle.stats();
    assert!(
        report.retries + report.deadline_rejects + stats.watchdog_fires > 0,
        "no retries, no deadline drops, no watchdog fires — chaos had no effect"
    );
    assert!(
        report.retries > 0,
        "faults fired but the client never retried"
    );
    assert!(
        report.reconnects > 0,
        "faults fired but the client never re-dialed"
    );

    // 5. The server's scrape describes the server alone: the proxy's
    //    faults and the client's retries are counted in `chaos` and
    //    `report` above, and no chaos or client family leaks into it.
    let text = scrape_metrics(handle.local_addr()).expect("scrape a live server");
    assert!(text.contains("ftl_server_requests_total "), "{text}");
    for line in text.lines() {
        let family = line.strip_prefix("# TYPE ").unwrap_or(line);
        assert!(
            !family.starts_with("ftl_chaos_") && !family.starts_with("ftl_client_"),
            "the server scrape carries a chaos or client series: `{line}`"
        );
    }

    handle.shutdown();
}

// ---------------------------------------------------------------- soak mode

/// Time-boxed chaos soak: repeats the acceptance scenario with a fresh
/// storm seed each iteration until the `CHAOS_SOAK_MS` budget runs out,
/// requiring perfect audits and full completion throughout. Run
/// explicitly:
/// `CHAOS_SOAK_MS=30000 cargo test -p ftl-server --test chaos_e2e -- --ignored`.
#[test]
#[ignore = "time-boxed soak; enable via CHAOS_SOAK_MS"]
fn chaos_soak() {
    let budget_ms: u64 = std::env::var("CHAOS_SOAK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let start = std::time::Instant::now();
    let g = generators::grid(8, 8);
    let sets = derive_fault_sets(&g, 4, 3, 21);
    let mut iteration = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        let handle = spawn_server(
            &g,
            ServerConfig {
                executors: 2,
                window: Duration::from_millis(2),
                watchdog_after: Duration::from_millis(16),
                ..ServerConfig::default()
            },
        );
        let proxy =
            ChaosProxy::spawn("127.0.0.1:0", handle.local_addr(), storm(1000 + iteration)).unwrap();
        let report = run_loadgen(
            proxy.local_addr(),
            &g,
            &sets,
            LoadgenConfig {
                clients: CLIENTS,
                requests_per_client: REQUESTS,
                queries_per_request: 4,
                seed: iteration,
                ttl_ms: 250,
                max_busy_retries: 2_000,
                request_timeout: Duration::from_millis(300),
                run_deadline: Duration::from_secs(60),
            },
        );
        let chaos = proxy.shutdown();
        handle.shutdown();
        assert!(
            !report.timed_out,
            "soak iteration {iteration} hit the deadline"
        );
        assert_eq!(
            report.mismatches, 0,
            "soak iteration {iteration} diverged from ground truth"
        );
        assert_eq!(
            report.requests_ok,
            (CLIENTS * REQUESTS) as u64,
            "soak iteration {iteration} abandoned requests (chaos: {chaos:?})"
        );
        iteration += 1;
    }
    assert!(iteration > 0, "soak budget too small to run one iteration");
    println!(
        "chaos_soak: {iteration} iterations in {:?}",
        start.elapsed()
    );
}
