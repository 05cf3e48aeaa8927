//! The resilient client: per-request deadlines, capped exponential
//! backoff with seeded jitter, and reconnect-and-retry.
//!
//! Retrying is *safe* here by construction: queries are pure (connectivity
//! under `G \ F` — re-asking cannot change server state), and responses
//! are keyed by `request_id`, so a retry can never be double-applied and a
//! stale answer can never be mistaken for a fresh one. The client leans on
//! both properties:
//!
//! * every attempt gets a **fresh request id**, so a late response to a
//!   timed-out attempt is recognizable as stale;
//! * any attempt that ends in an I/O error, a timeout, or a response for
//!   the wrong id **drops the connection** — the stream may be
//!   desynchronized (a torn frame, a stale response in flight) and
//!   reconnecting is the only way back to a clean framing boundary;
//! * `ServerBusy` and `DeadlineExceeded` answers keep the connection (the
//!   server is healthy, just loaded) and retry after a backoff.
//!
//! The backoff schedule is exponential with a cap and **seeded jitter**:
//! `nominal(n) = min(cap, base · 2ⁿ)`, and the actual delay is drawn
//! deterministically from `[nominal/2, nominal]` by a splitmix64 stream
//! over `(seed, attempt)`. Determinism keeps chaos runs reproducible —
//! the same seed yields the same retry cadence — while jitter still
//! decorrelates real fleets (each client derives its own seed).
//!
//! Every attempt, reconnect, `ServerBusy` and `DeadlineExceeded` answer
//! is counted in the request's [`AttemptLog`] (summed per run by
//! `run_loadgen` into its `LoadgenReport`), so a chaos run can account
//! for every injected fault from the caller's side.

use crate::frame::{
    read_frame_deadline, write_frame, FrameError, QueryRequestFrame, QueryResponseFrame,
    ResponseStatus, MAX_FRAME_BYTES_DEFAULT,
};
use ftl_labels::wire::WireLabel;
use ftl_seeded::splitmix64;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Backoff shape: exponential from `base` to `cap`, jittered by `seed`.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First delay (attempt 0 nominal).
    pub base: Duration,
    /// Ceiling every nominal delay saturates at.
    pub cap: Duration,
    /// Jitter seed; the same seed reproduces the same delay sequence.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(50),
            seed: 1,
        }
    }
}

/// The deterministic backoff schedule; see the module docs for the shape.
#[derive(Debug, Copy, Clone)]
pub struct BackoffSchedule {
    config: BackoffConfig,
}

impl BackoffSchedule {
    /// A schedule with the given shape.
    pub fn new(config: BackoffConfig) -> Self {
        BackoffSchedule { config }
    }

    /// The un-jittered delay for `attempt`: `min(cap, base · 2^attempt)`.
    /// Monotone non-decreasing in `attempt` and saturating at the cap.
    pub fn nominal(&self, attempt: u32) -> Duration {
        let base = self.config.base.as_nanos();
        let cap = self.config.cap.as_nanos();
        // `saturating_mul`, not a shift: a checked shift only checks the
        // shift amount, silently wrapping the value out the top.
        let scaled = base.saturating_mul(1u128 << attempt.min(126));
        let ns = scaled.min(cap).min(u64::MAX as u128) as u64;
        Duration::from_nanos(ns)
    }

    /// The jittered delay for `attempt`, deterministically drawn from
    /// `[nominal/2, nominal]` by the schedule's seed.
    pub fn delay(&self, attempt: u32) -> Duration {
        let nominal = self.nominal(attempt).as_nanos() as u64;
        let half = nominal / 2;
        // One splitmix64 draw per (seed, attempt): a 32-bit fixed-point
        // fraction scales the jitterable half of the nominal delay.
        let draw = splitmix64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(attempt as u64),
        );
        let frac = draw >> 32;
        let jitter = ((half as u128 * frac as u128) >> 32) as u64;
        Duration::from_nanos(half + jitter)
    }
}

/// Client knobs. The defaults suit a loopback test; real deployments
/// raise the timeouts.
#[derive(Debug, Copy, Clone)]
pub struct ClientConfig {
    /// Bound on establishing one TCP connection.
    pub connect_timeout: Duration,
    /// Bound on one attempt: send plus wait-for-response. An attempt that
    /// overruns drops the connection (the response may be in flight; the
    /// stream is no longer trustworthy) and retries.
    pub request_timeout: Duration,
    /// Most attempts per logical request, including the first. At least 1.
    pub max_attempts: u32,
    /// Backoff shape between attempts.
    pub backoff: BackoffConfig,
    /// TTL stamped into every request envelope (milliseconds; 0 = none).
    /// Lets the server shed work the client has already given up on.
    pub ttl_ms: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(5),
            max_attempts: 8,
            backoff: BackoffConfig::default(),
            ttl_ms: 0,
        }
    }
}

/// What one logical request cost in attempts, by disposition. Carried on
/// both success and failure so callers can aggregate without scraping.
#[derive(Debug, Copy, Clone, Default, PartialEq, Eq)]
pub struct AttemptLog {
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// `ServerBusy` answers retried through.
    pub busy: u32,
    /// `DeadlineExceeded` answers retried through.
    pub deadline_exceeded: u32,
    /// Attempts that died on I/O (connect, send, read, timeout, desync).
    pub io: u32,
    /// Fresh connections established after the first.
    pub reconnects: u32,
}

/// A served request: the answers plus how hard they were to get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// One connectivity bit per query, in request order.
    pub answers: Vec<bool>,
    /// The label epoch that answered.
    pub epoch: u64,
    /// Attempt accounting for this request.
    pub log: AttemptLog,
}

/// The last thing that went wrong when a request ran out of attempts.
#[derive(Debug)]
pub enum AttemptError {
    /// Socket-level failure (connect, send, read, or timeout).
    Io(std::io::Error),
    /// The server kept answering `ServerBusy`.
    Busy,
    /// The server kept answering `DeadlineExceeded`.
    DeadlineExceeded,
    /// The server answered `EngineFailed` — not retryable (the same input
    /// will fail the same way).
    EngineFailed,
    /// The server answered `ShuttingDown` — not retryable here (a fleet
    /// client would re-resolve and try another backend).
    ShuttingDown,
    /// The response could not be decoded or answered the wrong id.
    Protocol(&'static str),
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptError::Io(e) => write!(f, "i/o: {e}"),
            AttemptError::Busy => write!(f, "server busy"),
            AttemptError::DeadlineExceeded => write!(f, "deadline exceeded"),
            AttemptError::EngineFailed => write!(f, "engine failed"),
            AttemptError::ShuttingDown => write!(f, "server shutting down"),
            AttemptError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

/// Why [`ResilientClient::query`] gave up.
#[derive(Debug)]
pub struct QueryError {
    /// The final attempt's failure.
    pub last: AttemptError,
    /// Attempt accounting up to the give-up.
    pub log: AttemptLog,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gave up after {} attempts: {}",
            self.log.attempts, self.last
        )
    }
}

impl std::error::Error for QueryError {}

/// A deadline-aware, reconnecting client for the query plane.
///
/// Connections are lazy: nothing touches the network until the first
/// [`query`](ResilientClient::query). Not `Sync` — one client per thread,
/// like a raw `TcpStream`.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    config: ClientConfig,
    backoff: BackoffSchedule,
    conn: Option<TcpStream>,
    ever_connected: bool,
    next_seq: u64,
    nonce: u64,
}

impl ResilientClient {
    /// A client for `addr`. Does not connect yet.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Self {
        ResilientClient {
            addr,
            config,
            backoff: BackoffSchedule::new(config.backoff),
            conn: None,
            ever_connected: false,
            next_seq: 0,
            // Request ids must not collide across reconnects or with other
            // clients talking to the same server; fold the jitter seed in.
            nonce: splitmix64(config.backoff.seed ^ 0xC11E_4700_0000_0001),
        }
    }

    /// The server address this client targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn ensure_connected(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
            let _ = stream.set_nodelay(true);
            // Short socket timeout so `read_frame_deadline` can observe
            // its wall-clock deadline promptly.
            stream.set_read_timeout(Some(Duration::from_millis(5)))?;
            self.ever_connected = true;
            self.conn = Some(stream);
        }
        self.conn
            .as_mut()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotConnected, "no connection"))
    }

    /// One attempt: send the request, wait for *its* response until
    /// `deadline`. Any error return means the connection was dropped.
    fn attempt(
        &mut self,
        faults: &[ftl_graph::EdgeId],
        queries: &[(ftl_graph::VertexId, ftl_graph::VertexId)],
        tenant_id: u32,
        deadline: Instant,
    ) -> Result<QueryResponseFrame, AttemptError> {
        self.next_seq = self.next_seq.wrapping_add(1);
        let request = QueryRequestFrame {
            request_id: self.nonce.wrapping_add(self.next_seq),
            tenant_id,
            faults: faults.to_vec(),
            queries: queries.to_vec(),
            ttl_ms: self.config.ttl_ms,
        };
        let record = request.to_wire();
        let stream = match self.ensure_connected() {
            Ok(s) => s,
            Err(e) => return Err(AttemptError::Io(e)),
        };
        if let Err(e) = write_frame(stream, &record) {
            self.conn = None;
            return Err(AttemptError::Io(e));
        }
        let body = match read_frame_deadline(stream, MAX_FRAME_BYTES_DEFAULT, deadline) {
            Ok(body) => body,
            Err(FrameError::TimedOut) => {
                self.conn = None;
                return Err(AttemptError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request timed out",
                )));
            }
            Err(e) => {
                self.conn = None;
                return Err(AttemptError::Io(std::io::Error::other(format!(
                    "read: {e}"
                ))));
            }
        };
        let resp = match QueryResponseFrame::from_wire(&body) {
            Ok(resp) => resp,
            Err(_) => {
                self.conn = None;
                return Err(AttemptError::Protocol("undecodable response"));
            }
        };
        if resp.request_id != request.request_id {
            // A late answer to an attempt this client already abandoned:
            // the stream's framing is fine but its *correlation* is stale.
            // Reconnect to flush it.
            self.conn = None;
            return Err(AttemptError::Protocol("response for a different request"));
        }
        Ok(resp)
    }

    /// Asks one connectivity request and retries it to completion:
    /// reconnecting through I/O errors, backing off through `ServerBusy`
    /// and `DeadlineExceeded`, and giving up (typed) after
    /// [`ClientConfig::max_attempts`].
    pub fn query(
        &mut self,
        tenant_id: u32,
        faults: &[ftl_graph::EdgeId],
        queries: &[(ftl_graph::VertexId, ftl_graph::VertexId)],
    ) -> Result<QueryReply, QueryError> {
        self.query_before(tenant_id, faults, queries, None)
    }

    /// [`query`](ResilientClient::query) with an additional wall-clock
    /// bound: no attempt reads past `give_up`, and no backoff sleep
    /// starts once it has passed — the loadgen's global run deadline
    /// plumbs through here so a stalled server can never hang a run.
    pub fn query_before(
        &mut self,
        tenant_id: u32,
        faults: &[ftl_graph::EdgeId],
        queries: &[(ftl_graph::VertexId, ftl_graph::VertexId)],
        give_up: Option<Instant>,
    ) -> Result<QueryReply, QueryError> {
        let mut log = AttemptLog::default();
        let max_attempts = self.config.max_attempts.max(1);
        loop {
            log.attempts += 1;
            if self.ever_connected && self.conn.is_none() {
                // This attempt will have to re-establish the connection a
                // previous attempt burned.
                log.reconnects += 1;
            }
            let mut deadline = Instant::now() + self.config.request_timeout;
            if let Some(hard) = give_up {
                deadline = deadline.min(hard);
            }
            let outcome = self.attempt(faults, queries, tenant_id, deadline);
            let last = match outcome {
                Ok(QueryResponseFrame {
                    epoch,
                    status: ResponseStatus::Ok(answers),
                    ..
                }) => {
                    return Ok(QueryReply {
                        answers,
                        epoch,
                        log,
                    });
                }
                Ok(QueryResponseFrame {
                    status: ResponseStatus::ServerBusy { .. },
                    ..
                }) => {
                    log.busy += 1;
                    AttemptError::Busy
                }
                Ok(QueryResponseFrame {
                    status: ResponseStatus::DeadlineExceeded,
                    ..
                }) => {
                    log.deadline_exceeded += 1;
                    AttemptError::DeadlineExceeded
                }
                Ok(QueryResponseFrame {
                    status: ResponseStatus::EngineFailed,
                    ..
                }) => {
                    return Err(QueryError {
                        last: AttemptError::EngineFailed,
                        log,
                    });
                }
                Ok(QueryResponseFrame {
                    status: ResponseStatus::ShuttingDown,
                    ..
                }) => {
                    return Err(QueryError {
                        last: AttemptError::ShuttingDown,
                        log,
                    });
                }
                Err(e) => {
                    log.io += 1;
                    e
                }
            };
            if log.attempts >= max_attempts {
                return Err(QueryError { last, log });
            }
            if give_up.is_some_and(|hard| Instant::now() >= hard) {
                // The caller's hard bound passed mid-request: stop here
                // rather than burn more attempts nobody is waiting for.
                return Err(QueryError { last, log });
            }
            std::thread::sleep(self.backoff.delay(log.attempts - 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_schedule_doubles_then_caps() {
        let s = BackoffSchedule::new(BackoffConfig {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 7,
        });
        assert_eq!(s.nominal(0), Duration::from_millis(1));
        assert_eq!(s.nominal(1), Duration::from_millis(2));
        assert_eq!(s.nominal(3), Duration::from_millis(8));
        assert_eq!(s.nominal(4), Duration::from_millis(10));
        assert_eq!(s.nominal(63), Duration::from_millis(10));
        assert_eq!(s.nominal(u32::MAX), Duration::from_millis(10));
    }

    #[test]
    fn jitter_stays_inside_the_half_open_band() {
        let s = BackoffSchedule::new(BackoffConfig {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(100),
            seed: 42,
        });
        for attempt in 0..32 {
            let d = s.delay(attempt);
            let nominal = s.nominal(attempt);
            assert!(d >= nominal / 2, "attempt {attempt}: {d:?} < half nominal");
            assert!(d <= nominal, "attempt {attempt}: {d:?} > nominal");
        }
    }

    #[test]
    fn same_seed_same_delays_different_seed_diverges() {
        let mk = |seed| {
            BackoffSchedule::new(BackoffConfig {
                base: Duration::from_micros(100),
                cap: Duration::from_millis(100),
                seed,
            })
        };
        let (a, b, c) = (mk(9), mk(9), mk(10));
        let delays = |s: &BackoffSchedule| (0..16).map(|n| s.delay(n)).collect::<Vec<_>>();
        assert_eq!(delays(&a), delays(&b));
        assert_ne!(delays(&a), delays(&c));
    }

    #[test]
    fn attempt_log_starts_empty() {
        assert_eq!(AttemptLog::default().attempts, 0);
    }
}
