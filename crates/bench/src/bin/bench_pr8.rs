//! PR 8 benchmark: end-to-end serving through the batched TCP front end,
//! written to `BENCH_pr8.json` at the repo root.
//!
//! The scenario is the serving story told with real sockets: a loopback
//! [`ftl_server::Server`] is spun up over a labeled workload, then the
//! built-in loadgen hammers it with 64 concurrent client connections that
//! all draw their faults from a shared 8-set vocabulary. Every answer the
//! server returns is checked against BFS ground truth inside the loadgen,
//! so the throughput and latency numbers below are *audited* numbers.
//!
//! What the cross-connection batcher buys is visible directly in the
//! report: with 64 connections sharing 8 fault sets, the number of
//! distinct engine *group executions* collapses far below the number of
//! requests — one GF(2) elimination per distinct fault set per window,
//! not per request.
//!
//! The binary asserts its own non-regression gates: zero ground-truth
//! mismatches, zero unserved/errored requests, batching collapse
//! (`groups * 2 < requests`), and a conservative end-to-end throughput
//! floor that holds on a 1-core CI container.
//!
//! Run with: `cargo run -p ftl-bench --bin bench_pr8 --release`

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore};
use ftl_seeded::Seed;
use ftl_server::{
    derive_fault_sets, parse_graph_spec, run_loadgen, LoadgenConfig, LoadgenReport, Server,
    ServerConfig, StatsSnapshot,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 64;
const REQUESTS_PER_CLIENT: usize = 16;
const QUERIES_PER_REQUEST: usize = 16;
const FAULT_SETS: usize = 8;
const FAULTS_PER_SET: usize = 4;
const LABEL_WIDTH: usize = 8;
const STORE_SHARDS: usize = 16;
const GRAPH_SEED: u64 = 1;
const LOADGEN_SEED: u64 = 5;
/// End-to-end floor for the audited query rate. Deliberately far below
/// what a laptop measures (hundreds of thousands/s) so a shared 1-core
/// CI container passes while a 10x serving regression still fails.
const MIN_QUERIES_PER_SEC: f64 = 5_000.0;

struct ScenarioResult {
    report: LoadgenReport,
    stats: StatsSnapshot,
}

/// One full serve-and-audit run: label `spec`, spawn a loopback server,
/// drive it with the shared-vocabulary loadgen, drain, and return both
/// sides' books.
fn serve_scenario(spec: &str) -> ScenarioResult {
    let g = parse_graph_spec(spec, GRAPH_SEED).expect("workload spec");
    let scheme = CycleSpaceScheme::label(&g, LABEL_WIDTH, Seed::new(GRAPH_SEED))
        .expect("workload graph is connected");
    let store = store_from_cycle_space(&scheme, STORE_SHARDS).expect("freeze");
    let epochs = Arc::new(EpochStore::new(Arc::new(store)));
    let handle = Server::spawn(
        epochs,
        EngineConfig::default(),
        ServerConfig {
            executors: 2,
            window: Duration::from_millis(1),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback server");
    let sets = derive_fault_sets(&g, FAULT_SETS, FAULTS_PER_SET, GRAPH_SEED);
    let report = run_loadgen(
        handle.local_addr(),
        &g,
        &sets,
        LoadgenConfig {
            clients: CLIENTS,
            requests_per_client: REQUESTS_PER_CLIENT,
            queries_per_request: QUERIES_PER_REQUEST,
            seed: LOADGEN_SEED,
            ..LoadgenConfig::default()
        },
    );
    let stats = handle.shutdown();
    ScenarioResult { report, stats }
}

fn main() {
    let workloads = ["er:1024:8", "grid:32x32"];
    let mut sections = Vec::new();
    let mut human = Vec::new();
    let expected_requests = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    let expected_queries = expected_requests * QUERIES_PER_REQUEST as u64;
    for spec in workloads {
        let ScenarioResult { report, stats } = serve_scenario(spec);

        // Non-regression gates, asserted in-binary so CI fails loudly.
        assert_eq!(
            report.mismatches, 0,
            "{spec}: answers disagreed with BFS ground truth"
        );
        assert_eq!(report.io_errors, 0, "{spec}: client-side socket errors");
        assert_eq!(
            report.unserved, 0,
            "{spec}: requests starved by busy-rejects"
        );
        assert_eq!(
            report.requests_ok, expected_requests,
            "{spec}: lost requests"
        );
        assert_eq!(report.queries_ok, expected_queries, "{spec}: lost queries");
        assert!(
            stats.groups * 2 < stats.requests,
            "{spec}: batching did not collapse: {} groups for {} requests",
            stats.groups,
            stats.requests
        );
        assert!(
            report.queries_per_sec >= MIN_QUERIES_PER_SEC,
            "{spec}: end-to-end throughput regressed: {:.0} queries/s < {MIN_QUERIES_PER_SEC} floor",
            report.queries_per_sec
        );

        human.push(format!(
            "{spec}: {} requests / {} queries audited in {:.1} ms — {:.0} queries/s, \
             p50 {:.3} ms, p99 {:.3} ms; {} windows, {} group executions \
             ({:.1} requests/group), {} busy rejects",
            report.requests_ok,
            report.queries_ok,
            report.wall_ns as f64 / 1e6,
            report.queries_per_sec,
            report.p50_ms,
            report.p99_ms,
            stats.batches,
            stats.groups,
            stats.requests as f64 / stats.groups.max(1) as f64,
            report.busy_rejects
        ));

        let mut sec = String::new();
        writeln!(sec, "    {{").unwrap();
        writeln!(sec, "      \"workload\": \"{spec}\",").unwrap();
        writeln!(
            sec,
            "      \"clients\": {CLIENTS}, \"requests_per_client\": {REQUESTS_PER_CLIENT}, \
             \"queries_per_request\": {QUERIES_PER_REQUEST},"
        )
        .unwrap();
        writeln!(
            sec,
            "      \"fault_sets\": {FAULT_SETS}, \"faults_per_set\": {FAULTS_PER_SET},"
        )
        .unwrap();
        writeln!(
            sec,
            "      \"requests_ok\": {}, \"queries_ok\": {}, \"mismatches\": {},",
            report.requests_ok, report.queries_ok, report.mismatches
        )
        .unwrap();
        writeln!(
            sec,
            "      \"busy_rejects\": {}, \"unserved\": {}, \"io_errors\": {},",
            report.busy_rejects, report.unserved, report.io_errors
        )
        .unwrap();
        writeln!(
            sec,
            "      \"windows\": {}, \"group_executions\": {}, \"requests_per_group\": {:.2},",
            stats.batches,
            stats.groups,
            stats.requests as f64 / stats.groups.max(1) as f64
        )
        .unwrap();
        writeln!(
            sec,
            "      \"wall_ms\": {:.1}, \"queries_per_sec\": {:.0}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}",
            report.wall_ns as f64 / 1e6,
            report.queries_per_sec,
            report.p50_ms,
            report.p99_ms
        )
        .unwrap();
        write!(sec, "    }}").unwrap();
        sections.push(sec);
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"pr\": 8,").unwrap();
    writeln!(
        json,
        "  \"note\": \"End-to-end TCP serving through ftl-server: {CLIENTS} loopback client \
         connections x {REQUESTS_PER_CLIENT} requests x {QUERIES_PER_REQUEST} queries, all \
         drawing faults from a shared {FAULT_SETS}-set vocabulary. The loadgen audits every \
         answer against BFS ground truth, so queries_per_sec counts verified answers only. \
         group_executions is the number of distinct fault-set eliminations the engine actually \
         ran — the batching collapse is group_executions << requests_ok. The binary asserts \
         zero mismatches, zero unserved requests, groups * 2 < requests, and \
         queries_per_sec >= {MIN_QUERIES_PER_SEC}.\","
    )
    .unwrap();
    writeln!(json, "  \"runs\": [").unwrap();
    for (i, sec) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        writeln!(json, "{sec}{comma}").unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    for h in &human {
        println!("{h}");
    }
    let out = std::env::var("BENCH_PR8_OUT").unwrap_or_else(|_| "BENCH_pr8.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("\nwrote {out}");
}
