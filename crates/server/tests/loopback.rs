//! End-to-end loopback tests: real sockets, real threads, BFS ground
//! truth. The headline scenario is the front end's acceptance test — 64
//! concurrent connections sharing 8 fault sets, every answer correct,
//! and each set eliminated at most once per executor.

// Test code: panicking asserts are the point.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore};
use ftl_graph::generators;
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::WireLabel;
use ftl_seeded::Seed;
use ftl_server::{
    derive_fault_sets, frame, run_loadgen, ConnectivityOracle, LoadgenConfig, QueryRequestFrame,
    QueryResponseFrame, ResponseStatus, Server, ServerConfig, ServerHandle,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn spawn_server(g: &ftl_graph::Graph, config: ServerConfig) -> ServerHandle {
    spawn_server_with(g, EngineConfig::default(), config)
}

fn spawn_server_with(
    g: &ftl_graph::Graph,
    engine: EngineConfig,
    config: ServerConfig,
) -> ServerHandle {
    let scheme = CycleSpaceScheme::label(g, 8, Seed::new(7)).expect("graph is connected");
    let store = store_from_cycle_space(&scheme, 8).unwrap();
    let epochs = Arc::new(EpochStore::new(Arc::new(store)));
    Server::spawn(epochs, engine, config, "127.0.0.1:0").unwrap()
}

fn read_response(stream: &mut TcpStream) -> QueryResponseFrame {
    let stop = AtomicBool::new(false);
    let body = frame::read_frame(stream, frame::MAX_FRAME_BYTES_DEFAULT, &stop).unwrap();
    QueryResponseFrame::from_wire(&body).unwrap()
}

fn send_request(stream: &mut TcpStream, req: &QueryRequestFrame) {
    frame::write_frame(stream, &req.to_wire()).unwrap();
}

/// The server's `ftl_engine_eliminations_total`, from its scrape.
fn eliminations(handle: &ServerHandle) -> u64 {
    let text = handle.metrics_text();
    text.lines()
        .find_map(|l| l.strip_prefix("ftl_engine_eliminations_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no eliminations counter in:\n{text}"))
}

/// `read_response`, but failing instead of hanging when no response
/// arrives within `limit` (`read_frame` retries through socket timeouts,
/// so a timer flag is what bounds it).
fn read_response_within(stream: &mut TcpStream, limit: Duration) -> QueryResponseFrame {
    let give_up = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&give_up);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let body = frame::read_frame(stream, frame::MAX_FRAME_BYTES_DEFAULT, &give_up)
        .unwrap_or_else(|e| panic!("no response within {limit:?}: {e:?}"));
    QueryResponseFrame::from_wire(&body).unwrap()
}

/// The acceptance scenario: 64 concurrent connections, a shared
/// vocabulary of 8 fault sets, every response checked against BFS, and
/// the elimination cache sharing the work: no set is eliminated more than
/// once per executor, however many requests name it.
#[test]
fn sixty_four_connections_eight_fault_sets_batched_and_correct() {
    const EXECUTORS: u64 = 2;
    let g = generators::grid(16, 16);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: EXECUTORS as usize,
            window: Duration::from_millis(4),
            ..ServerConfig::default()
        },
    );
    let sets = derive_fault_sets(&g, 8, 4, 99);
    let report = run_loadgen(
        handle.local_addr(),
        &g,
        &sets,
        LoadgenConfig {
            clients: 64,
            requests_per_client: 8,
            queries_per_request: 8,
            seed: 5,
            ..LoadgenConfig::default()
        },
    );
    let eliminated = eliminations(&handle);
    let stats = handle.shutdown();

    assert_eq!(report.mismatches, 0, "answers must match BFS ground truth");
    assert_eq!(report.io_errors, 0);
    assert_eq!(report.unserved, 0);
    assert_eq!(report.requests_ok, 64 * 8);
    assert_eq!(report.queries_ok, 64 * 8 * 8);
    assert_eq!(stats.requests, 64 * 8);
    assert_eq!(stats.queries, 64 * 8 * 8);
    assert_eq!(stats.connections_accepted, 64);
    assert_eq!(stats.tenants.len(), 64);
    // 512 requests over an 8-set vocabulary: each executor's cache holds
    // every set, so each set costs at most one elimination per executor.
    assert!(stats.batches >= 1);
    assert!(
        (1..=EXECUTORS * sets.len() as u64).contains(&eliminated),
        "{eliminated} eliminations for {} requests over {} sets on {EXECUTORS} executors",
        stats.requests,
        sets.len()
    );
    // Latency percentiles were recorded for every tenant.
    assert!(stats.tenants.iter().all(|t| t.p99_ms > 0.0));
}

/// Release-mode throughput floor over the same batched loopback path, at
/// a larger shape: `er:1024:8` and `grid:32x32`, 64 clients × 16
/// requests × 16 queries over 8 shared sets of 4 faults, a 1 ms window
/// and 2 executors. Asserts the correctness gates of the test above plus
/// an audited queries/s floor set far below what a laptop measures, so a
/// shared 1-core runner passes while a 10× serving regression fails. Run
/// explicitly: `cargo test --release -p ftl-server --test loopback --
/// --ignored loopback_throughput_stays_above_floor`.
#[test]
#[ignore = "throughput floor; run in release mode"]
fn loopback_throughput_stays_above_floor() {
    const MIN_QUERIES_PER_SEC: f64 = 5_000.0;
    const CLIENTS: usize = 64;
    const REQUESTS_PER_CLIENT: usize = 16;
    const QUERIES_PER_REQUEST: usize = 16;
    const EXECUTORS: usize = 2;
    for spec in ["er:1024:8", "grid:32x32"] {
        let g = ftl_server::parse_graph_spec(spec, 1).unwrap();
        let scheme = CycleSpaceScheme::label(&g, 8, Seed::new(1)).unwrap();
        let store = store_from_cycle_space(&scheme, 16).unwrap();
        let handle = Server::spawn(
            Arc::new(EpochStore::new(Arc::new(store))),
            EngineConfig::default(),
            ServerConfig {
                executors: EXECUTORS,
                window: Duration::from_millis(1),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let sets = derive_fault_sets(&g, 8, 4, 1);
        let report = run_loadgen(
            handle.local_addr(),
            &g,
            &sets,
            LoadgenConfig {
                clients: CLIENTS,
                requests_per_client: REQUESTS_PER_CLIENT,
                queries_per_request: QUERIES_PER_REQUEST,
                seed: 5,
                ..LoadgenConfig::default()
            },
        );
        let eliminated = eliminations(&handle);
        let stats = handle.shutdown();
        println!(
            "{spec}: {:.0} audited queries/s, p50 {:.3} ms, p99 {:.3} ms, \
             {eliminated} eliminations for {} requests",
            report.queries_per_sec, report.p50_ms, report.p99_ms, stats.requests
        );
        let requests = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
        assert_eq!(report.mismatches, 0, "{spec}: answers disagreed with BFS");
        assert_eq!(report.io_errors, 0, "{spec}: client-side socket errors");
        assert_eq!(
            report.unserved, 0,
            "{spec}: requests starved by busy-rejects"
        );
        assert_eq!(report.requests_ok, requests, "{spec}: lost requests");
        assert_eq!(
            report.queries_ok,
            requests * QUERIES_PER_REQUEST as u64,
            "{spec}: lost queries"
        );
        let bound = (EXECUTORS * sets.len()) as u64;
        assert!(
            eliminated <= bound,
            "{spec}: {eliminated} eliminations exceed {bound} (executors x distinct sets)"
        );
        assert!(
            report.queries_per_sec >= MIN_QUERIES_PER_SEC,
            "{spec}: {:.0} queries/s is below the {MIN_QUERIES_PER_SEC} floor",
            report.queries_per_sec
        );
    }
}

/// Admission control: a tiny budget inside a long window rejects the
/// overflowing request with a typed `ServerBusy` carrying the budget.
#[test]
fn admission_control_answers_server_busy() {
    let g = generators::grid(6, 6);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            window: Duration::from_millis(300),
            pending_budget: 4,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Fills the budget exactly; sits in the accumulation window.
    let filler = QueryRequestFrame {
        request_id: 1,
        tenant_id: 9,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(0), VertexId::new(1)); 4],
        ttl_ms: 0,
    };
    send_request(&mut stream, &filler);
    // One more query than the budget has room for: must bounce, and the
    // reject must come back *before* the window closes (admission is
    // synchronous, not queued).
    let overflow = QueryRequestFrame {
        request_id: 2,
        tenant_id: 9,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(2), VertexId::new(3))],
        ttl_ms: 0,
    };
    send_request(&mut stream, &overflow);

    let busy = read_response(&mut stream);
    assert_eq!(busy.request_id, 2);
    assert_eq!(busy.epoch, 0, "rejects never reach an engine");
    assert_eq!(
        busy.status,
        ResponseStatus::ServerBusy {
            pending: 4,
            budget: 4,
        }
    );
    // The filler is eventually served once its window closes.
    let ok = read_response(&mut stream);
    assert_eq!(ok.request_id, 1);
    assert!(matches!(&ok.status, ResponseStatus::Ok(a) if a.len() == 4));

    let stats = handle.shutdown();
    assert_eq!(stats.rejects, 1);
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.tenants.first().map(|t| t.rejects), Some(1));
}

/// A pipelined burst: 64 requests in one `write_all`, against a budget
/// with room for only the first 20. The server reads them in as few reads
/// as the socket allows and admits them under one lock, yet charges each
/// on its own and in order: the admitted prefix is answered (and audited
/// against BFS), the rest get `ServerBusy` in arrival order, and every
/// request id gets exactly one response.
#[test]
fn pipelined_burst_admits_a_prefix_and_refuses_the_rest_in_order() {
    const REQUESTS: u64 = 64;
    const QUERIES: usize = 2;
    const ADMITTED: u64 = 20;
    let g = generators::grid(8, 8);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            // Long enough that no charge is released before the whole
            // burst has been read.
            window: Duration::from_millis(300),
            pending_budget: ADMITTED as usize * QUERIES,
            ..ServerConfig::default()
        },
    );
    let sets = derive_fault_sets(&g, 4, 2, 17);
    let oracle = ConnectivityOracle::new(&g, &sets);
    let n = g.num_vertices() as u64;
    let requests: Vec<(usize, QueryRequestFrame)> = (0..REQUESTS)
        .map(|i| {
            let set = i as usize % sets.len();
            let queries = (0..QUERIES as u64)
                .map(|q| {
                    let s = (i * 7 + q * 13) % n;
                    let t = (i * 29 + q * 5 + 11) % n;
                    (VertexId::new(s as usize), VertexId::new(t as usize))
                })
                .collect();
            let req = QueryRequestFrame {
                request_id: i,
                tenant_id: 5,
                faults: sets[set].clone(),
                queries,
                ttl_ms: 0,
            };
            (set, req)
        })
        .collect();
    let mut burst = Vec::new();
    for (_, req) in &requests {
        frame::push_frame(&mut burst, &req.to_wire());
    }
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&burst).unwrap();

    let mut answered = vec![0u32; REQUESTS as usize];
    let mut busy_order = Vec::new();
    for _ in 0..REQUESTS {
        let resp = read_response(&mut stream);
        let id = resp.request_id;
        answered[id as usize] += 1;
        match &resp.status {
            ResponseStatus::Ok(answers) => {
                assert!(id < ADMITTED, "request {id} past the budget was served");
                let (set, req) = &requests[id as usize];
                for (&(s, t), &got) in req.queries.iter().zip(answers) {
                    assert_eq!(
                        got,
                        oracle.connected(*set, s, t),
                        "request {id}: BFS mismatch"
                    );
                }
                assert_eq!(answers.len(), QUERIES);
            }
            ResponseStatus::ServerBusy { pending, budget } => {
                assert_eq!((*pending, *budget), (40, 40));
                busy_order.push(id);
            }
            other => panic!("request {id}: unexpected {other:?}"),
        }
    }
    assert!(
        answered.iter().all(|&c| c == 1),
        "every request id gets exactly one response: {answered:?}"
    );
    assert_eq!(busy_order, (ADMITTED..REQUESTS).collect::<Vec<_>>());

    let stats = handle.shutdown();
    assert_eq!(stats.requests, ADMITTED);
    assert_eq!(stats.rejects, REQUESTS - ADMITTED);
}

/// Graceful shutdown drains admitted requests: a request sitting in a
/// long accumulation window is still answered (on the pinned epoch)
/// after `shutdown` is called.
#[test]
fn shutdown_drains_in_flight_window() {
    let g = generators::grid(6, 6);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            window: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = QueryRequestFrame {
        request_id: 77,
        tenant_id: 1,
        faults: vec![EdgeId::new(3)],
        queries: vec![(VertexId::new(0), VertexId::new(35))],
        ttl_ms: 0,
    };
    send_request(&mut stream, &req);
    // Let the reader thread admit it into the (minute-long) window.
    std::thread::sleep(Duration::from_millis(150));

    // Shutdown must flush the window instead of waiting out the minute;
    // bound the whole drain to keep a regression from hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let _ = tx.send(handle.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("shutdown did not drain the in-flight window in time");
    drainer.join().unwrap();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.queries, 1);

    let resp = read_response(&mut stream);
    assert_eq!(resp.request_id, 77);
    assert_eq!(resp.epoch, 1, "drained on the pinned epoch");
    assert!(matches!(&resp.status, ResponseStatus::Ok(a) if a.len() == 1));
}

/// A request whose TTL expires inside the accumulation window is answered
/// with a typed `DeadlineExceeded` before elimination — no engine work is
/// spent on it, and a no-deadline request sharing the window is
/// unaffected.
#[test]
fn expired_ttl_answered_before_elimination() {
    let g = generators::grid(6, 6);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            window: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Expires ~295ms before the 300ms window closes.
    let doomed = QueryRequestFrame {
        request_id: 1,
        tenant_id: 5,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(0), VertexId::new(35)); 3],
        ttl_ms: 5,
    };
    // Same fault set, no deadline: must be served untouched.
    let live = QueryRequestFrame {
        request_id: 2,
        tenant_id: 5,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(0), VertexId::new(35))],
        ttl_ms: 0,
    };
    send_request(&mut stream, &doomed);
    send_request(&mut stream, &live);
    let (a, b) = (read_response(&mut stream), read_response(&mut stream));
    let (doomed_resp, live_resp) = if a.request_id == 1 { (a, b) } else { (b, a) };
    assert_eq!(doomed_resp.status, ResponseStatus::DeadlineExceeded);
    assert_eq!(
        doomed_resp.epoch, 0,
        "expired requests never reach an engine"
    );
    assert!(matches!(&live_resp.status, ResponseStatus::Ok(v) if v.len() == 1));
    let stats = handle.shutdown();
    assert_eq!(stats.deadline_drops, 1);
    assert_eq!(stats.requests, 1, "only the live request was served");
    assert_eq!(
        stats.groups, 1,
        "the expired request must not have reached the engine"
    );
    assert_eq!(
        stats.watchdog_fires, 0,
        "the executor caught this, not the watchdog"
    );
}

/// The batcher watchdog: when the only executor is parked on a response
/// write against a client that stopped reading, requests queued behind
/// it sit past `watchdog_after` and are force-released and
/// answered `ServerBusy` by the watchdog thread instead of waiting for
/// the executor to come back.
///
/// Parking is real TCP backpressure: the stalled client floods enough
/// single-query requests that their responses (~34 bytes each, ~10 MB in
/// all) overflow loopback socket buffering (a few MB — more payload fits
/// when a window's responses leave as one coalesced write than as many
/// small ones), so the executor blocks inside a response write for up to
/// `write_timeout`. The timeout is finite (the
/// production shape) so the test also exercises the recovery path — the
/// stalled connection is eventually forfeited and the server heals.
#[test]
fn watchdog_force_releases_requests_stuck_behind_a_parked_executor() {
    const FLOOD: u64 = 300_000;
    let g = generators::grid(8, 8);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            window: Duration::from_millis(20),
            // Big enough that the flood is admitted (charge = 1/request),
            // so `ServerBusy` can only come from the watchdog.
            pending_budget: 1 << 20,
            write_timeout: Duration::from_secs(1),
            watchdog_after: Duration::from_millis(40),
            ..ServerConfig::default()
        },
    );

    // The stalled client floods requests and never reads a byte back.
    // Blocking writes (no timeout): the server's reader always drains, so
    // the full flood lands. The stream is returned (not dropped) so the
    // connection stays open — an EOF would close its writer and instantly
    // unblock the executor's write.
    let addr = handle.local_addr();
    let flooder = std::thread::spawn(move || {
        let mut stalled = TcpStream::connect(addr).unwrap();
        let flood = QueryRequestFrame {
            request_id: 0,
            tenant_id: 1,
            faults: vec![EdgeId::new(0)],
            queries: vec![(VertexId::new(0), VertexId::new(1))],
            ttl_ms: 0,
        };
        let record = flood.to_wire();
        for _ in 0..FLOOD {
            if frame::write_frame(&mut stalled, &record).is_err() {
                break;
            }
        }
        stalled
    });

    // A live client keeps asking throughout. While the executor is parked
    // its requests sit in the batcher past the watchdog threshold and
    // come back `ServerBusy` from the watchdog thread.
    let mut live = TcpStream::connect(handle.local_addr()).unwrap();
    live.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut rescued = false;
    let mut attempt = 0u64;
    while std::time::Instant::now() < deadline {
        attempt += 1;
        let req = QueryRequestFrame {
            request_id: attempt,
            tenant_id: 2,
            faults: vec![EdgeId::new(0)],
            queries: vec![(VertexId::new(0), VertexId::new(63))],
            ttl_ms: 0,
        };
        send_request(&mut live, &req);
        // Bound the wait: read_frame retries through socket timeouts, so
        // a timer flag is what actually limits it.
        let give_up = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&give_up);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(800));
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let Ok(body) = frame::read_frame(&mut live, frame::MAX_FRAME_BYTES_DEFAULT, &give_up)
        else {
            // No answer yet: the request was taken into the parked window
            // itself — the next attempt lands in the open queue.
            continue;
        };
        let resp = QueryResponseFrame::from_wire(&body).unwrap();
        if matches!(resp.status, ResponseStatus::ServerBusy { .. })
            && handle.stats().watchdog_fires > 0
        {
            rescued = true;
            break;
        }
    }
    assert!(
        rescued,
        "watchdog never rescued a stuck request (fires = {})",
        handle.stats().watchdog_fires
    );
    drop(live);
    drop(flooder.join().unwrap());
    // The finite write timeout means the parked executor recovers (the
    // stalled connection is forfeited), so a graceful shutdown works.
    let stats = handle.shutdown();
    assert!(stats.watchdog_fires > 0);
}

/// The watchdog's threshold is a duration of its own: with a zero
/// accumulation window and the watchdog armed, healthy cold traffic — a
/// closed loop over distinct fault sets, every request its own
/// elimination — is never force-released. (When the threshold was a
/// multiple of the window, a zero window clamped it to 1 ms, and this
/// load drew watchdog `ServerBusy` answers.)
#[test]
fn zero_window_watchdog_spares_healthy_cold_traffic() {
    let g = generators::grid(16, 16);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 2,
            window: Duration::ZERO,
            // Far above any healthy queue wait, even in a debug build
            // sharing the machine with other tests.
            watchdog_after: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    );
    let sets = derive_fault_sets(&g, 2048, 8, 17);
    let report = run_loadgen(
        handle.local_addr(),
        &g,
        &sets,
        LoadgenConfig {
            clients: 64,
            requests_per_client: 40,
            queries_per_request: 16,
            seed: 11,
            ..LoadgenConfig::default()
        },
    );
    let stats = handle.shutdown();
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.requests_ok, 64 * 40);
    assert_eq!(
        stats.watchdog_fires, 0,
        "the watchdog fired on healthy traffic"
    );
    assert_eq!(report.busy_rejects, 0);
    assert_eq!(stats.rejects, 0);
}

/// Answers due to a client that closed its sending side before its
/// window ran are dropped unsent: the server's reader saw EOF and the
/// connection is over. No write is attempted, so no slow-client drop is
/// counted, and another connection keeps being served.
#[test]
fn answers_to_a_closed_connection_are_dropped_unsent() {
    let g = generators::grid(8, 8);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            // Long enough that the reader sees EOF well before the
            // window holding the request runs.
            window: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let req = |request_id| QueryRequestFrame {
        request_id,
        tenant_id: 1,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(0), VertexId::new(63))],
        ttl_ms: 0,
    };
    let mut gone = TcpStream::connect(handle.local_addr()).unwrap();
    send_request(&mut gone, &req(1));
    gone.shutdown(std::net::Shutdown::Write).unwrap();

    let mut live = TcpStream::connect(handle.local_addr()).unwrap();
    send_request(&mut live, &req(2));
    let resp = read_response_within(&mut live, Duration::from_secs(10));
    assert_eq!(resp.request_id, 2);
    assert!(matches!(&resp.status, ResponseStatus::Ok(a) if a.len() == 1));

    // The server never wrote to the closed connection: once its last
    // answer was dropped, the socket closed without a byte.
    gone.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = Vec::new();
    gone.read_to_end(&mut received).unwrap();
    assert!(
        received.is_empty(),
        "a closed connection got {} bytes",
        received.len()
    );

    // The live connection is still served after the drop.
    send_request(&mut live, &req(3));
    let resp = read_response_within(&mut live, Duration::from_secs(10));
    assert_eq!(resp.request_id, 3);
    let stats = handle.shutdown();
    assert_eq!(stats.slow_client_drops, 0);
    // Two answers were written (requests 2 and 3); the one to the closed
    // connection was dropped, and is not counted as served.
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.answers_dropped_closed, 1);
    assert_eq!(stats.answers_dropped_write_failed, 0);
}

/// The loadgen's global run deadline: a black-holed server (accepts, then
/// never answers a byte) cannot hang a run — it ends at the bound with
/// the typed `timed_out` marker instead of blocking forever.
#[test]
fn loadgen_run_deadline_beats_a_black_holed_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let hole_stop = Arc::clone(&stop);
    let hole = std::thread::spawn(move || {
        listener.set_nonblocking(true).unwrap();
        let mut conns = Vec::new();
        while !hole_stop.load(std::sync::atomic::Ordering::Relaxed) {
            match listener.accept() {
                Ok((conn, _)) => conns.push(conn),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        drop(conns);
    });

    let g = generators::grid(4, 4);
    let started = std::time::Instant::now();
    let report = run_loadgen(
        addr,
        &g,
        &[vec![EdgeId::new(0)]],
        LoadgenConfig {
            clients: 4,
            requests_per_client: 8,
            queries_per_request: 2,
            seed: 3,
            run_deadline: Duration::from_secs(2),
            ..LoadgenConfig::default()
        },
    );
    let elapsed = started.elapsed();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    hole.join().unwrap();

    assert!(report.timed_out, "the run deadline must be reported as hit");
    assert_eq!(report.requests_ok, 0, "a black hole answers nothing");
    assert_eq!(report.mismatches, 0);
    // Bounded wall-clock: deadline plus at most one attempt's grace, with
    // slack for a loaded CI machine — nowhere near the 10s per-attempt
    // timeout times the retry budget.
    assert!(
        elapsed < Duration::from_secs(8),
        "run took {elapsed:?}, the deadline did not bound it"
    );
}

/// The loadgen's counters account for every request asked of it: against
/// a refused port each worker gives up on its first request (an I/O
/// error) and counts the two it never sent as unserved.
#[test]
fn loadgen_counters_add_up_when_the_server_is_unreachable() {
    // A port that was just free: every connection attempt is refused.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let g = generators::grid(4, 4);
    let report = run_loadgen(
        addr,
        &g,
        &[vec![EdgeId::new(0)]],
        LoadgenConfig {
            clients: 2,
            requests_per_client: 3,
            queries_per_request: 2,
            max_busy_retries: 2,
            run_deadline: Duration::from_secs(20),
            ..LoadgenConfig::default()
        },
    );
    assert_eq!(report.requests_ok, 0);
    assert_eq!(report.io_errors, 2, "one give-up per worker");
    assert_eq!(
        report.requests_ok
            + report.unserved
            + report.engine_failures
            + report.shutdown_notices
            + report.io_errors,
        2 * 3
    );
}

/// A frame that parses but is not a valid wire record closes the
/// connection (the stream can only contain garbage after a desync).
#[test]
fn malformed_frame_closes_connection() {
    let g = generators::grid(4, 4);
    let handle = spawn_server(&g, ServerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&8u32.to_le_bytes()).unwrap();
    stream.write_all(&[0xDE; 8]).unwrap();
    stream.flush().unwrap();
    // The server hangs up: EOF, not a response.
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).unwrap(), 0);
    let stats = handle.shutdown();
    assert_eq!(stats.frame_errors, 1);
    assert_eq!(stats.requests, 0);
}

/// An oversized declared length closes the connection before any
/// allocation or read of the body.
#[test]
fn oversized_frame_closes_connection() {
    let g = generators::grid(4, 4);
    let handle = spawn_server(
        &g,
        ServerConfig {
            max_frame_bytes: 1024,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).unwrap(), 0);
    let stats = handle.shutdown();
    assert_eq!(stats.frame_errors, 1);
}

/// Requests that share a window and name one fault set — in different
/// orders, once with a repeated id — are each their own engine call, and
/// the elimination cache is what shares the set: it costs one
/// elimination, and the healthy requests get identical answers. One of
/// them names an out-of-range vertex: it fails alone, and the requests
/// sharing its fault set and window keep their answers.
#[test]
fn bad_vertex_fails_alone_and_a_shared_fault_set_is_eliminated_once() {
    let g = generators::grid(6, 6);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            window: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (e0, e7) = (EdgeId::new(0), EdgeId::new(7));
    let queries = vec![
        (VertexId::new(0), VertexId::new(35)),
        (VertexId::new(1), VertexId::new(6)),
        (VertexId::new(7), VertexId::new(14)),
    ];
    let request = |request_id, faults: Vec<EdgeId>, queries| QueryRequestFrame {
        request_id,
        tenant_id: request_id as u32,
        faults,
        queries,
        ttl_ms: 0,
    };
    let requests = [
        request(
            1,
            vec![e0, e7],
            vec![(VertexId::new(999_999), VertexId::new(1))],
        ),
        request(2, vec![e0, e7], queries.clone()),
        request(3, vec![e7, e0], queries.clone()),
        request(4, vec![e7, e0, e7], queries.clone()),
    ];
    for req in &requests {
        send_request(&mut stream, req);
    }
    let mut responses: Vec<_> = requests
        .iter()
        .map(|_| read_response(&mut stream))
        .collect();
    responses.sort_by_key(|r| r.request_id);
    let eliminated = eliminations(&handle);
    let stats = handle.shutdown();

    assert_eq!(responses[0].status, ResponseStatus::EngineFailed);
    let ResponseStatus::Ok(answers) = &responses[1].status else {
        panic!(
            "healthy request poisoned by a co-batched bad vertex id: {:?}",
            responses[1].status
        );
    };
    assert_eq!(answers.len(), queries.len());
    for r in &responses[2..] {
        assert_eq!(
            r.status, responses[1].status,
            "request {}: the same fault set, named differently, answered differently",
            r.request_id
        );
    }
    // One window, four engine calls, one elimination: the cache, not the
    // front end, shared the set across orders and repeats.
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.groups, 4, "every request reached the engine");
    assert_eq!(eliminated, 1);
    assert_eq!(stats.engine_errors, 1);
    assert_eq!(stats.requests, 3);
}

/// Response writes are bounded: a connection writer whose peer never
/// reads must surface an error after the write timeout, not block its
/// calling thread indefinitely.
#[test]
fn stalled_reader_write_times_out_instead_of_blocking() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let _stalled_peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server_side, _) = listener.accept().unwrap();
    let writer =
        ftl_server::conn::ConnWriter::new(1, &server_side, Some(Duration::from_millis(50)))
            .unwrap();
    // 64 KiB frames overwhelm any sane socket buffering within a few
    // hundred sends; the peer reads nothing, so an error MUST arrive.
    let mut framed = Vec::new();
    frame::push_frame(&mut framed, &vec![0xA5u8; 1 << 16]);
    let mut timed_out = false;
    for _ in 0..10_000 {
        if writer.send_framed(&framed).is_err() {
            timed_out = true;
            break;
        }
    }
    assert!(
        timed_out,
        "writes to a stalled reader never errored — an executor would block forever"
    );
}

/// A client that stops reading its responses is dropped after the write
/// timeout and costs only its own connection: other connections keep
/// being served, and shutdown still drains in bounded time.
#[test]
fn stalled_reader_costs_only_its_own_connection() {
    let g = generators::grid(8, 8);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 2,
            window: Duration::from_micros(500),
            pending_budget: 1 << 12,
            write_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );

    // The stalled client floods single-query requests and never reads a
    // byte back. Its responses fill its TCP window; past the write
    // timeout the server drops the connection, which eventually fails
    // these sends (reset socket) — capped so the test terminates even if
    // kernel buffering absorbs everything.
    let mut stalled = TcpStream::connect(handle.local_addr()).unwrap();
    let flood = QueryRequestFrame {
        request_id: 0,
        tenant_id: 1,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(0), VertexId::new(1))],
        ttl_ms: 0,
    };
    let record = flood.to_wire();
    for _ in 0..400_000 {
        if frame::write_frame(&mut stalled, &record).is_err() {
            break;
        }
    }

    // A well-behaved client on another connection is served normally
    // while (and after) the stalled one chokes.
    let mut live = TcpStream::connect(handle.local_addr()).unwrap();
    live.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let good = QueryRequestFrame {
        request_id: 7,
        tenant_id: 2,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(0), VertexId::new(63))],
        ttl_ms: 0,
    };
    send_request(&mut live, &good);
    let resp = read_response(&mut live);
    assert_eq!(resp.request_id, 7);
    assert!(matches!(&resp.status, ResponseStatus::Ok(a) if a.len() == 1));

    // Shutdown must drain in bounded time despite the stalled backlog —
    // every write to the dropped connection is skipped or bounded.
    let (tx, rx) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let _ = tx.send(handle.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown blocked behind a stalled reader");
    drainer.join().unwrap();
    assert!(stats.requests >= 1, "the live client's request was served");
}

/// Requests naming out-of-range edges or vertices get a typed
/// `EngineFailed` — isolated to their own engine call, never poisoning
/// co-batched requests.
#[test]
fn bad_fault_set_isolated_to_engine_failed() {
    let g = generators::grid(6, 6);
    let handle = spawn_server(
        &g,
        ServerConfig {
            executors: 1,
            window: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Same window: one bad group, one good group.
    let bad = QueryRequestFrame {
        request_id: 1,
        tenant_id: 2,
        faults: vec![EdgeId::new(999_999)],
        queries: vec![(VertexId::new(0), VertexId::new(1))],
        ttl_ms: 0,
    };
    let good = QueryRequestFrame {
        request_id: 2,
        tenant_id: 2,
        faults: vec![EdgeId::new(0)],
        queries: vec![(VertexId::new(0), VertexId::new(35))],
        ttl_ms: 0,
    };
    send_request(&mut stream, &bad);
    send_request(&mut stream, &good);
    let (a, b) = (read_response(&mut stream), read_response(&mut stream));
    let (bad_resp, good_resp) = if a.request_id == 1 { (a, b) } else { (b, a) };
    assert_eq!(bad_resp.status, ResponseStatus::EngineFailed);
    assert!(matches!(&good_resp.status, ResponseStatus::Ok(v) if v.len() == 1));
    let stats = handle.shutdown();
    assert_eq!(stats.engine_errors, 1);
    assert_eq!(stats.requests, 1);
}

/// A panic while the engine serves one group is contained to that group's
/// requests, even on a single executor: the poisoned request gets a typed
/// `EngineFailed`, the executor thread survives and releases the window's
/// admission charge, the next request is answered correctly, and
/// shutdown drains in bounded time.
#[test]
fn engine_panic_fails_only_its_request_and_server_keeps_serving() {
    let g = generators::grid(6, 6);
    let chaos = EdgeId::new(3);
    let handle = spawn_server_with(
        &g,
        EngineConfig {
            chaos_panic_edge: Some(chaos),
            ..EngineConfig::default()
        },
        ServerConfig {
            executors: 1,
            window: Duration::from_millis(20),
            pending_budget: 8,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let poisoned = QueryRequestFrame {
        request_id: 1,
        tenant_id: 1,
        faults: vec![EdgeId::new(0), chaos],
        queries: vec![(VertexId::new(0), VertexId::new(35)); 4],
        ttl_ms: 0,
    };
    send_request(&mut stream, &poisoned);
    let resp = read_response_within(&mut stream, Duration::from_secs(20));
    assert_eq!(resp.request_id, 1);
    assert_eq!(resp.status, ResponseStatus::EngineFailed);

    // The same executor answers the next request, and answers it right.
    // It carries the whole budget: had the poisoned window's charge not
    // been released, this would bounce with `ServerBusy`.
    let faults = vec![EdgeId::new(5), EdgeId::new(17)];
    let pairs: Vec<(VertexId, VertexId)> = (0..8)
        .map(|i| (VertexId::new(i), VertexId::new(35 - 3 * i)))
        .collect();
    let clean = QueryRequestFrame {
        request_id: 2,
        tenant_id: 1,
        faults: faults.clone(),
        queries: pairs.clone(),
        ttl_ms: 0,
    };
    send_request(&mut stream, &clean);
    let resp = read_response_within(&mut stream, Duration::from_secs(20));
    assert_eq!(resp.request_id, 2);
    let ResponseStatus::Ok(answers) = resp.status else {
        panic!("clean request after a contained panic: {:?}", resp.status);
    };
    let mask = ftl_graph::traversal::forbidden_mask(&g, &faults);
    for (&(s, t), &connected) in pairs.iter().zip(&answers) {
        assert_eq!(
            connected,
            ftl_graph::traversal::connected_avoiding(&g, s, t, &mask),
            "({s:?}, {t:?}) disagrees with BFS"
        );
    }

    let (tx, rx) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let _ = tx.send(handle.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("shutdown hung after a contained engine panic");
    drainer.join().unwrap();
    assert_eq!(stats.engine_errors, 1);
    assert_eq!(stats.requests, 1);
}
