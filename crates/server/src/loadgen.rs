//! The load-generating client: many concurrent connections, a shared
//! fault-set vocabulary, and a BFS ground-truth oracle.
//!
//! Every answer the server returns is checked against
//! [`ConnectivityOracle`] — plain BFS connected components on `G \ F` —
//! so a loadgen run is simultaneously a throughput measurement and an
//! end-to-end correctness audit of the whole stack (framing, batching,
//! the elimination cache, engine, labels). Each worker drives a
//! [`ResilientClient`], so `ServerBusy` and `DeadlineExceeded` answers
//! are retried with capped jittered backoff, I/O errors reconnect, and
//! every retry/reconnect is counted — never silently dropped.
//!
//! A run can carry a **global deadline**
//! ([`LoadgenConfig::run_deadline`]): a watcher raises a stop flag at the
//! bound and every in-flight request's attempt loop observes it, so a
//! stalled or black-holed server can never hang a run — it ends with
//! [`LoadgenReport::timed_out`] set, which the `ftl-loadgen` binary turns
//! into a typed non-zero exit.

use crate::client::{AttemptError, BackoffConfig, ClientConfig, ResilientClient};
use crate::frame::{
    read_frame, write_frame, MetricsRequestFrame, MetricsResponseFrame, MAX_FRAME_BYTES_DEFAULT,
};
use ftl_engine::percentile_nearest_rank;
use ftl_graph::traversal::{connected_components, forbidden_mask};
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_labels::wire::WireLabel;
use ftl_seeded::splitmix64;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ground truth for a fixed vocabulary of fault sets: component ids per
/// vertex in `G \ F`, computed once by BFS.
#[derive(Debug)]
pub struct ConnectivityOracle {
    comps: Vec<Vec<usize>>,
}

impl ConnectivityOracle {
    /// Precomputes components for every fault set.
    pub fn new(g: &Graph, fault_sets: &[Vec<EdgeId>]) -> Self {
        let comps = fault_sets
            .iter()
            .map(|faults| {
                let mask = forbidden_mask(g, faults);
                connected_components(g, &mask).0
            })
            .collect();
        ConnectivityOracle { comps }
    }

    /// Whether `s` and `t` are connected in `G \ F` for fault set `set`.
    /// Out-of-range inputs answer `false`.
    pub fn connected(&self, set: usize, s: VertexId, t: VertexId) -> bool {
        let Some(comp) = self.comps.get(set) else {
            return false;
        };
        match (comp.get(s.index()), comp.get(t.index())) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

/// Loadgen shape knobs.
#[derive(Debug, Copy, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Queries per request.
    pub queries_per_request: usize,
    /// PRNG seed (per-client streams are derived from it).
    pub seed: u64,
    /// Most times one request is retried (through `ServerBusy`,
    /// `DeadlineExceeded`, or an I/O error + reconnect) before the client
    /// gives up and counts it unserved.
    pub max_busy_retries: usize,
    /// TTL stamped into every request envelope (milliseconds; 0 = none).
    pub ttl_ms: u32,
    /// Global wall-clock bound on the whole run (`ZERO` = unbounded).
    /// When it passes, workers stop between requests *and* mid-retry, and
    /// the report comes back with [`LoadgenReport::timed_out`] set.
    pub run_deadline: Duration,
    /// Bound on one request attempt (send + wait for the response).
    pub request_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 8,
            requests_per_client: 32,
            queries_per_request: 16,
            seed: 1,
            max_busy_retries: 10_000,
            ttl_ms: 0,
            run_deadline: Duration::ZERO,
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// What a loadgen run observed, aggregated over every client.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadgenReport {
    /// Requests answered `Ok`.
    pub requests_ok: u64,
    /// Queries answered across those requests.
    pub queries_ok: u64,
    /// Answers that disagreed with the BFS oracle (must be 0).
    pub mismatches: u64,
    /// `ServerBusy` responses observed (each retried).
    pub busy_rejects: u64,
    /// Requests dropped after exhausting busy retries, plus the requests
    /// a worker never sent because it stopped early (an I/O give-up,
    /// `ShuttingDown`, the run deadline, or a client thread that failed
    /// to start). So `requests_ok + unserved + engine_failures +
    /// shutdown_notices + io_errors` is `clients × requests_per_client`.
    pub unserved: u64,
    /// `EngineFailed` responses.
    pub engine_failures: u64,
    /// `ShuttingDown` responses.
    pub shutdown_notices: u64,
    /// Requests dropped after exhausting I/O retries (server unreachable
    /// or persistently desynced).
    pub io_errors: u64,
    /// Attempts beyond the first, any cause (busy, deadline, I/O).
    pub retries: u64,
    /// Fresh connections established after a worker's first.
    pub reconnects: u64,
    /// `DeadlineExceeded` answers observed (each retried).
    pub deadline_rejects: u64,
    /// Whether the global run deadline cut the run short.
    pub timed_out: bool,
    /// Wall-clock of the whole run, nanoseconds.
    pub wall_ns: u64,
    /// Nearest-rank median end-to-end request latency, milliseconds.
    pub p50_ms: f64,
    /// Nearest-rank p99 end-to-end request latency, milliseconds.
    pub p99_ms: f64,
    /// Answered queries per wall-clock second.
    pub queries_per_sec: f64,
}

#[derive(Debug, Default)]
struct ClientOutcome {
    requests_ok: u64,
    queries_ok: u64,
    mismatches: u64,
    busy_rejects: u64,
    unserved: u64,
    engine_failures: u64,
    shutdown_notices: u64,
    io_errors: u64,
    retries: u64,
    reconnects: u64,
    deadline_rejects: u64,
    timed_out: bool,
    latencies_ns: Vec<u64>,
}

impl ClientOutcome {
    /// Counts the requests this worker never sent as unserved, so its
    /// counters add up to the `requests` asked of it.
    fn account_unsent(mut self, requests: usize) -> Self {
        let accounted = self.requests_ok
            + self.unserved
            + self.engine_failures
            + self.shutdown_notices
            + self.io_errors;
        self.unserved += (requests as u64).saturating_sub(accounted);
        self
    }
}

/// Runs the full loadgen against `addr`, checking every answer against a
/// fresh BFS oracle over `(g, fault_sets)`.
pub fn run_loadgen(
    addr: SocketAddr,
    g: &Graph,
    fault_sets: &[Vec<EdgeId>],
    config: LoadgenConfig,
) -> LoadgenReport {
    let oracle = Arc::new(ConnectivityOracle::new(g, fault_sets));
    let sets: Arc<Vec<Vec<EdgeId>>> = Arc::new(fault_sets.to_vec());
    let n = g.num_vertices();
    let started = Instant::now();
    // The global run deadline: an instant every worker's retry loop
    // checks, so even a black-holed server can't hang the run.
    let give_up = (!config.run_deadline.is_zero()).then(|| started + config.run_deadline);
    let mut joins = Vec::with_capacity(config.clients);
    for c in 0..config.clients {
        let oracle = Arc::clone(&oracle);
        let sets = Arc::clone(&sets);
        let spawned = std::thread::Builder::new()
            .name(format!("ftl-load-{c}"))
            .spawn(move || run_client(c, addr, n, &oracle, &sets, config, give_up));
        joins.push(spawned);
    }
    let mut report = LoadgenReport::default();
    let mut latencies: Vec<f64> = Vec::new();
    for j in joins {
        let outcome = match j.map(|h| h.join()) {
            Ok(Ok(o)) => o,
            // A client thread failed to spawn or died: one client-side
            // error, and its requests were never sent.
            _ => ClientOutcome {
                io_errors: 1,
                ..ClientOutcome::default()
            }
            .account_unsent(config.requests_per_client),
        };
        report.requests_ok += outcome.requests_ok;
        report.queries_ok += outcome.queries_ok;
        report.mismatches += outcome.mismatches;
        report.busy_rejects += outcome.busy_rejects;
        report.unserved += outcome.unserved;
        report.engine_failures += outcome.engine_failures;
        report.shutdown_notices += outcome.shutdown_notices;
        report.io_errors += outcome.io_errors;
        report.retries += outcome.retries;
        report.reconnects += outcome.reconnects;
        report.deadline_rejects += outcome.deadline_rejects;
        report.timed_out |= outcome.timed_out;
        latencies.extend(outcome.latencies_ns.iter().map(|&ns| ns as f64));
    }
    report.wall_ns = started.elapsed().as_nanos() as u64;
    latencies.sort_by(f64::total_cmp);
    report.p50_ms = percentile_nearest_rank(&latencies, 0.5) / 1e6;
    report.p99_ms = percentile_nearest_rank(&latencies, 0.99) / 1e6;
    let secs = (report.wall_ns as f64 / 1e9).max(1e-9);
    report.queries_per_sec = report.queries_ok as f64 / secs;
    report
}

/// Scrapes the server's metrics exposition over the wire: one
/// `MetricsRequest 0x50` envelope out, one `MetricsResponse 0x51` back —
/// the same admin plane a monitoring agent would use. Works mid-load on
/// its own connection; the server answers it from the reader thread
/// without touching the batching pipeline.
///
/// # Errors
///
/// Fails on connect/socket errors, or (as `InvalidData`) when the
/// response frame is malformed or answers a different request id.
pub fn scrape_metrics(addr: SocketAddr) -> std::io::Result<String> {
    use std::io::{Error, ErrorKind};
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let request_id = 0x0B5E_55C4_A9E0_0001;
    write_frame(&mut stream, &MetricsRequestFrame { request_id }.to_wire())?;
    let never_stop = AtomicBool::new(false);
    let body = read_frame(&mut stream, MAX_FRAME_BYTES_DEFAULT, &never_stop)
        .map_err(|e| Error::new(ErrorKind::InvalidData, format!("scrape read: {e}")))?;
    let resp = MetricsResponseFrame::from_wire(&body)
        .map_err(|e| Error::new(ErrorKind::InvalidData, format!("scrape decode: {e}")))?;
    if resp.request_id != request_id {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "scrape response answered a different request id",
        ));
    }
    Ok(resp.text)
}

/// One row of the per-stage latency table parsed out of a scrape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageRow {
    /// Stage name as exposed (`frame_read`, `admission`, ...).
    pub stage: String,
    /// Samples recorded into the stage histogram.
    pub count: u64,
    /// Sum of all recorded values, nanoseconds.
    pub sum_ns: u64,
    /// Nearest-rank median, nanoseconds (bucket upper bound).
    pub p50_ns: u64,
    /// Nearest-rank p99, nanoseconds (bucket upper bound).
    pub p99_ns: u64,
}

/// Extracts the `ftl_stage_ns` family from a text exposition into table
/// rows, one per stage, in first-appearance order. Lines that are not
/// stage samples (other families, `# TYPE` headers, malformed input) are
/// skipped — a scrape of a server built with `no-obs` parses to rows with
/// every field zero.
pub fn parse_stage_table(text: &str) -> Vec<StageRow> {
    fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
        labels.split(',').find_map(|part| {
            let (k, v) = part.split_once('=')?;
            (k == key).then(|| v.trim_matches('"'))
        })
    }
    let mut rows: Vec<StageRow> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("ftl_stage_ns") else {
            continue;
        };
        let (Some(open), Some(close)) = (rest.find('{'), rest.find('}')) else {
            continue;
        };
        let (Some(field), Some(labels), Some(tail)) = (
            rest.get(..open),
            rest.get(open + 1..close),
            rest.get(close + 1..),
        ) else {
            continue;
        };
        let Some(stage) = label_value(labels, "stage") else {
            continue;
        };
        let Ok(value) = tail.trim().parse::<u64>() else {
            continue;
        };
        let idx = rows
            .iter()
            .position(|r| r.stage == stage)
            .unwrap_or_else(|| {
                rows.push(StageRow {
                    stage: stage.to_string(),
                    ..StageRow::default()
                });
                rows.len() - 1
            });
        let Some(row) = rows.get_mut(idx) else {
            continue;
        };
        match (field, label_value(labels, "quantile")) {
            ("", Some("0.5")) => row.p50_ns = value,
            ("", Some("0.99")) => row.p99_ns = value,
            ("_count", None) => row.count = value,
            ("_sum", None) => row.sum_ns = value,
            _ => {}
        }
    }
    rows
}

fn run_client(
    id: usize,
    addr: SocketAddr,
    num_vertices: usize,
    oracle: &ConnectivityOracle,
    sets: &[Vec<EdgeId>],
    config: LoadgenConfig,
    give_up: Option<Instant>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut client = ResilientClient::new(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: config.request_timeout,
            max_attempts: config
                .max_busy_retries
                .saturating_add(1)
                .min(u32::MAX as usize) as u32,
            backoff: BackoffConfig {
                base: Duration::from_micros(200),
                cap: Duration::from_millis(5),
                // Every worker jitters differently, deterministically.
                seed: config.seed ^ ((id as u64) << 32 | 0xBAC0_FF01),
            },
            ttl_ms: config.ttl_ms,
        },
    );
    let mut state = splitmix64(config.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    'requests: for _ in 0..config.requests_per_client {
        if give_up.is_some_and(|hard| Instant::now() >= hard) {
            out.timed_out = true;
            break 'requests;
        }
        state = splitmix64(state);
        let set_idx = if sets.is_empty() {
            0
        } else {
            (state % sets.len() as u64) as usize
        };
        let faults = sets.get(set_idx).cloned().unwrap_or_default();
        let mut queries = Vec::with_capacity(config.queries_per_request);
        for _ in 0..config.queries_per_request {
            state = splitmix64(state);
            let s = (state % num_vertices.max(1) as u64) as usize;
            state = splitmix64(state);
            let t = (state % num_vertices.max(1) as u64) as usize;
            queries.push((VertexId::new(s), VertexId::new(t)));
        }
        let sent_at = Instant::now();
        match client.query_before(id as u32, &faults, &queries, give_up) {
            Ok(reply) => {
                out.latencies_ns.push(sent_at.elapsed().as_nanos() as u64);
                out.requests_ok += 1;
                out.busy_rejects += reply.log.busy as u64;
                out.deadline_rejects += reply.log.deadline_exceeded as u64;
                out.retries += reply.log.attempts.saturating_sub(1) as u64;
                out.reconnects += reply.log.reconnects as u64;
                if reply.answers.len() != queries.len() {
                    out.mismatches += 1;
                    continue;
                }
                for (&(s, t), &got) in queries.iter().zip(&reply.answers) {
                    out.queries_ok += 1;
                    if got != oracle.connected(set_idx, s, t) {
                        out.mismatches += 1;
                    }
                }
            }
            Err(err) => {
                out.busy_rejects += err.log.busy as u64;
                out.deadline_rejects += err.log.deadline_exceeded as u64;
                out.retries += err.log.attempts.saturating_sub(1) as u64;
                out.reconnects += err.log.reconnects as u64;
                if give_up.is_some_and(|hard| Instant::now() >= hard) {
                    out.timed_out = true;
                    out.unserved += 1;
                    break 'requests;
                }
                match err.last {
                    AttemptError::Busy | AttemptError::DeadlineExceeded => {
                        out.unserved += 1;
                    }
                    AttemptError::EngineFailed => {
                        out.engine_failures += 1;
                    }
                    AttemptError::ShuttingDown => {
                        out.shutdown_notices += 1;
                        break 'requests;
                    }
                    AttemptError::Io(_) | AttemptError::Protocol(_) => {
                        // The client already retried and reconnected up to
                        // its attempt budget; a give-up here means the
                        // server is genuinely unreachable.
                        out.io_errors += 1;
                        break 'requests;
                    }
                }
            }
        }
    }
    out.account_unsent(config.requests_per_client)
}
