//! `ftl-loadgen`'s exit status is its verdict: a run that served every
//! request and audited it clean exits 0, and a run whose requests went
//! unanswered exits 4 — an audit of nothing must not pass.

// Test code: panicking asserts are the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore};
use ftl_seeded::Seed;
use ftl_server::{parse_graph_spec, Server, ServerConfig};
use std::net::{SocketAddr, TcpListener};
use std::process::Command;
use std::sync::Arc;

/// Runs the loadgen binary against `addr` on `grid:4x4`, seed 1: one
/// client, two requests of two queries, few retries and a hard deadline,
/// so neither case can hang.
fn loadgen_exit_code(addr: SocketAddr) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_ftl-loadgen"))
        .args(["--addr", &addr.to_string()])
        .args(["--graph", "grid:4x4", "--seed", "1"])
        .args(["--clients", "1", "--requests", "2", "--queries", "2"])
        .args(["--fault-sets", "2", "--max-retries", "2"])
        .args(["--request-timeout-ms", "2000", "--run-deadline-secs", "20"])
        .output()
        .expect("ftl-loadgen runs");
    println!("{}", String::from_utf8_lossy(&out.stdout));
    eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    out.status.code()
}

#[test]
fn loadgen_exits_4_when_no_request_was_served() {
    // A port that was just free: bind it, remember it, release it, so every
    // connection attempt is refused.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    assert_eq!(loadgen_exit_code(addr), Some(4));
}

#[test]
fn loadgen_exits_0_when_every_request_was_served_clean() {
    let g = parse_graph_spec("grid:4x4", 1).unwrap();
    let scheme = CycleSpaceScheme::label(&g, 8, Seed::new(1)).unwrap();
    let store = store_from_cycle_space(&scheme, 4).unwrap();
    let epochs = Arc::new(EpochStore::new(Arc::new(store)));
    let server = Server::spawn(
        epochs,
        EngineConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    assert_eq!(loadgen_exit_code(server.local_addr()), Some(0));
    server.shutdown();
}
