//! The serving front end: accept loop, per-connection readers, and the
//! batch executors.
//!
//! Thread model (no async runtime — plain blocking I/O):
//!
//! ```text
//! acceptor ──spawns──▶ reader (1 per connection)
//!                         │ one read → decode every frame it delivered
//!                         │ → submit_all (one lock, per-request admission)
//!                         ▼
//!                      Batcher (accumulation window, bounded budget)
//!                         │ take window
//!                         ▼
//!                      executor (config.executors threads)
//!                         │ Engine::execute_grouped_into per request
//!                         │ (epoch-pinned; the engine's elimination
//!                         │ cache shares a fault set across requests)
//!                         │ → outbox: one run of frames per connection
//!                         ▼
//!                      each request's ConnWriter ──▶ one write per
//!                                   connection per window (more when the
//!                                   window's engine work outlasts the
//!                                   accumulation window)
//! ```
//!
//! Every request carries its connection's [`ConnWriter`], so an answer
//! is written through the handle of the connection that asked. The
//! acceptor polls a nonblocking listener so it can observe the stop
//! flag; readers use a short read timeout for the same reason (the frame
//! codec keeps partial fills across timeouts, so this never corrupts a
//! stream). Response
//! writes are bounded the same way: every write half carries
//! [`ServerConfig::write_timeout`], and a write that times out (a client
//! that stopped reading its responses) forfeits that connection — writer
//! closed, socket shut down — instead of parking the executor. Shutdown
//! is graceful by construction: stop flag → acceptor joins every reader
//! (no further submissions) → batcher closes → executors drain every
//! queued window on the epochs its engine calls pin → handle joins the
//! executors.

use crate::batcher::{Batcher, Pending, Refused, SubmitError};
use crate::conn::ConnWriter;
use crate::frame::{
    push_frame, FrameError, FrameReader, MetricsRequestFrame, MetricsResponseFrame,
    QueryRequestFrame, QueryResponseFrame, ResponseStatus, MAX_FRAME_BYTES_DEFAULT,
};
use crate::stats::{DropReason, ServerStats, StatsSnapshot};
use ftl_engine::{Engine, EngineConfig, EpochStore, FaultSetBatch, GroupedResponse};
use ftl_labels::wire::{LabelKind, WireError, WireLabel};
use ftl_obs::{Span, Stage};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Debug, Copy, Clone)]
pub struct ServerConfig {
    /// Batch-executor threads — the server's only engine parallelism. Each
    /// owns its own epoch-following engine over the shared store; more
    /// executors overlap window execution with window accumulation.
    pub executors: usize,
    /// How long an executor holds a non-empty window open for more
    /// connections to join.
    pub window: Duration,
    /// Admission-control budget: most queries that may be pending across
    /// all connections before submissions bounce with `ServerBusy`.
    pub pending_budget: usize,
    /// Per-frame byte ceiling; larger declared lengths close the
    /// connection before any allocation.
    pub max_frame_bytes: usize,
    /// Bound on any single response write. A client that stops reading
    /// its responses fills its TCP window; past this bound the write
    /// errors out and the connection is forfeited (writer closed, socket
    /// shut down), so a stalled reader costs its own connection — never
    /// an executor thread, never co-batched connections, never shutdown.
    /// Zero disables the bound (not recommended outside tests).
    pub write_timeout: Duration,
    /// Batcher-watchdog threshold: a queued request older than this is
    /// force-released and answered (`DeadlineExceeded` if it carried a
    /// TTL, `ServerBusy` otherwise) instead of waiting for an executor
    /// that may be parked on a slow client's write. It is a duration of
    /// its own, not a multiple of [`window`](ServerConfig::window), so a
    /// zero window does not make healthy traffic look stuck. Zero
    /// disables the watchdog.
    pub watchdog_after: Duration,
}

/// Socket read timeout — the granularity at which an idle reader notices
/// shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(5);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            executors: 2,
            window: Duration::from_micros(500),
            pending_budget: 1 << 16,
            max_frame_bytes: MAX_FRAME_BYTES_DEFAULT,
            write_timeout: Duration::from_secs(2),
            watchdog_after: Duration::ZERO,
        }
    }
}

/// Namespace for [`Server::spawn`].
pub struct Server;

/// A running server; dropping it signals the threads to stop, calling
/// [`shutdown`](ServerHandle::shutdown) stops them *gracefully* and
/// returns the final counters.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    batcher: Arc<Batcher>,
    stats: Arc<ServerStats>,
    acceptor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and spawns the acceptor plus the executor pool.
    pub fn spawn(
        epochs: Arc<EpochStore>,
        engine_config: EngineConfig,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let batcher = Arc::new(Batcher::new(config.pending_budget, config.window));
        let stats = Arc::new(ServerStats::new(Arc::clone(&epochs)));

        let mut executors = Vec::with_capacity(config.executors.max(1));
        for i in 0..config.executors.max(1) {
            let epochs = Arc::clone(&epochs);
            let batcher = Arc::clone(&batcher);
            let stats = Arc::clone(&stats);
            let handle = std::thread::Builder::new()
                .name(format!("ftl-exec-{i}"))
                .spawn(move || {
                    let mut engine = Engine::over_epochs(epochs, engine_config);
                    let mut batch = FaultSetBatch::default();
                    let mut resp = GroupedResponse::default();
                    let mut outbox = Outbox::default();
                    let sink = Sink {
                        batcher: &batcher,
                        stats: &stats,
                    };
                    while let Some(window) = batcher.next_window() {
                        execute_window(
                            &mut engine,
                            &mut batch,
                            &mut resp,
                            &mut outbox,
                            &window,
                            &sink,
                            config.window,
                        );
                        // Every request in the window is answered into the
                        // outbox; this write hands their charge back.
                        outbox.flush(&sink);
                    }
                })?;
            executors.push(handle);
        }

        let acceptor = {
            let stop = Arc::clone(&stop);
            let batcher = Arc::clone(&batcher);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("ftl-accept".to_string())
                .spawn(move || {
                    accept_loop(&listener, &stop, &batcher, &stats, config);
                })?
        };

        let watchdog = if !config.watchdog_after.is_zero() {
            let stop = Arc::clone(&stop);
            let batcher = Arc::clone(&batcher);
            let stats = Arc::clone(&stats);
            Some(
                std::thread::Builder::new()
                    .name("ftl-watchdog".to_string())
                    .spawn(move || {
                        watchdog_loop(&stop, &batcher, &stats, config);
                    })?,
            )
        } else {
            None
        };

        Ok(ServerHandle {
            addr: local,
            stop,
            batcher,
            stats,
            acceptor: Some(acceptor),
            executors,
            watchdog,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The full metrics exposition, exactly as a `MetricsRequest 0x50`
    /// scrape over the wire would serve it: this server's registry and the
    /// swap metrics of the epoch store it serves.
    pub fn metrics_text(&self) -> String {
        self.stats.render_text()
    }

    /// Graceful shutdown: stop accepting, join the readers, drain every
    /// window already admitted, join the executors, and return the final
    /// counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // All readers have exited: nothing can submit anymore. Close the
        // batcher so executors flush what was admitted and then exit.
        self.batcher.close();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Signal only — a dropped handle must not block, but its threads
        // must die promptly.
        self.stop.store(true, Ordering::Relaxed);
        self.batcher.close();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    batcher: &Arc<Batcher>,
    stats: &Arc<ServerStats>,
    config: ServerConfig,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    while !stop.load(Ordering::Relaxed) {
        // Sweep handles of readers that already exited, so a long-lived
        // server holds one handle per *live* connection, not one per
        // connection ever accepted.
        readers.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                stats.record_connection();
                next_id += 1;
                let id = next_id;
                let stop = Arc::clone(stop);
                let batcher = Arc::clone(batcher);
                let stats = Arc::clone(stats);
                let spawned = std::thread::Builder::new()
                    .name("ftl-conn".to_string())
                    .spawn(move || {
                        serve_connection(stream, id, &stop, &batcher, &stats, config);
                    });
                if let Ok(h) = spawned {
                    readers.push(h);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    for h in readers {
        let _ = h.join();
    }
}

/// One connection's read loop: read → decode every frame the read
/// delivered → admit them under one batcher lock → read again.
/// Every protocol violation (bad magic, wrong version, oversize length,
/// truncation, malformed payload) closes the connection — a client that
/// desynced once can only send garbage afterwards — but only after the
/// well-formed frames before it have been admitted.
///
/// When the loop ends the connection is over, and the reader closes its
/// writer so answers still due to it are dropped unsent — except on
/// shutdown (the stop flag): executors drain admitted windows *after*
/// readers exit, and the drained answers still go out on this writer.
fn serve_connection(
    mut stream: TcpStream,
    id: u64,
    stop: &AtomicBool,
    batcher: &Batcher,
    stats: &ServerStats,
    config: ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let write_timeout = (!config.write_timeout.is_zero()).then_some(config.write_timeout);
    let Ok(writer) = ConnWriter::new(id, &stream, write_timeout) else {
        return;
    };
    let writer = Arc::new(writer);
    let mut reader = FrameReader::new(config.max_frame_bytes);
    let mut admit = Admit {
        batch: Vec::new(),
        refused: Vec::new(),
        out: Vec::new(),
        batcher,
        writer: &writer,
        stats,
    };
    loop {
        // Every frame the last read delivered is decoded: admit them
        // before the next read can block.
        if !reader.has_buffered_frame() && !admit.flush(None) {
            break;
        }
        let frame = {
            // One sample per frame: a frame already buffered costs no
            // syscall; the one that needs a read includes the wait for
            // the client's next bytes — see docs/observability.md.
            let _span = Span::enter(&stats.stages, Stage::FrameRead);
            reader.next_frame(&mut stream, stop).map(decode_request)
        };
        match frame {
            Ok(Ok(Request::Query(req))) => {
                // The TTL is anchored here, at decode: the server's clock,
                // not the client's, measures the budget.
                let now = Instant::now();
                let deadline =
                    (req.ttl_ms > 0).then(|| now + Duration::from_millis(req.ttl_ms as u64));
                admit.batch.push(Pending {
                    conn: Arc::clone(&writer),
                    request_id: req.request_id,
                    tenant: req.tenant_id,
                    faults: req.faults,
                    queries: req.queries,
                    enqueued: now, // restamped at admission
                    deadline,
                });
            }
            // The admin plane: a metrics scrape is answered inline by the
            // reader thread, bypassing admission control and the batching
            // pipeline (it must work *because* the data plane is full) —
            // after the requests read before it, so inline answers keep
            // arrival order.
            Ok(Ok(Request::Metrics(req))) => {
                let frame = MetricsResponseFrame {
                    request_id: req.request_id,
                    text: stats.render_text(),
                };
                if !admit.flush(Some(&frame.to_wire())) {
                    break;
                }
            }
            Err(FrameError::Closed) => break,
            Err(FrameError::Stopped) => return,
            Ok(Err(_)) | Err(_) => {
                stats.record_frame_error();
                admit.flush(None);
                break;
            }
        }
    }
    writer.close();
}

/// A decoded request frame.
enum Request {
    Query(QueryRequestFrame),
    Metrics(MetricsRequestFrame),
}

fn decode_request(record: &[u8]) -> Result<Request, WireError> {
    if record.get(3) == Some(&(LabelKind::MetricsRequest as u8)) {
        MetricsRequestFrame::from_wire(record).map(Request::Metrics)
    } else {
        QueryRequestFrame::from_wire(record).map(Request::Query)
    }
}

/// A reader's decoded-but-not-yet-admitted requests, and where to answer
/// the ones admission refuses. The buffers are reused across reads.
struct Admit<'a> {
    batch: Vec<Pending>,
    refused: Vec<Refused>,
    /// The reader's own answers, framed back to back for one write.
    out: Vec<u8>,
    batcher: &'a Batcher,
    writer: &'a ConnWriter,
    stats: &'a ServerStats,
}

impl Admit<'_> {
    /// Admits the batch under one batcher lock, then answers each refused
    /// request and, if given, the `inline` record read after them (a
    /// metrics response), in arrival order and with one write. Returns
    /// whether the connection stays open: not after a failed write or
    /// once the server drains.
    fn flush(&mut self, inline: Option<&[u8]>) -> bool {
        if !self.batch.is_empty() {
            // Service latency starts at admission, as for a lone request.
            let t0 = Instant::now();
            for p in &mut self.batch {
                p.enqueued = t0;
            }
            let n = self.batch.len() as u64;
            self.batcher.submit_all(&mut self.batch, &mut self.refused);
            // Admission stage: one sample per request, the lock hold
            // amortized over the requests it admitted.
            let per_request = t0.elapsed().as_nanos() as u64 / n;
            self.stats.stages.record_n(Stage::Admission, per_request, n);
        }
        let mut draining = false;
        for r in self.refused.drain(..) {
            let status = match r.error {
                SubmitError::Busy { pending, budget } => {
                    self.stats.record_reject(r.tenant);
                    ResponseStatus::ServerBusy { pending, budget }
                }
                SubmitError::ShuttingDown => {
                    draining = true;
                    ResponseStatus::ShuttingDown
                }
            };
            let frame = QueryResponseFrame {
                request_id: r.request_id,
                epoch: 0,
                status,
            };
            push_frame(&mut self.out, &frame.to_wire());
        }
        if let Some(record) = inline {
            push_frame(&mut self.out, record);
        }
        let written = self.out.is_empty() || self.writer.send_framed(&self.out).is_ok();
        clear_and_trim(&mut self.out);
        written && !draining
    }
}

/// Executes one accumulation window: one engine call per request, over
/// the executor's `batch` refilled from the request and into its reused
/// response, and every answer into the executor's outbox, which the caller
/// flushes — one write per connection in the window. Requests naming the
/// same fault set share its elimination through the engine's cache.
///
/// An answer never waits behind more than `flush_after` (the accumulation
/// window) of further engine work: when the calls take longer than that
/// (cold fault sets, each a full elimination), the outbox is flushed
/// between calls. Clients then see their answers — and send their next
/// requests, which another executor can take — while this window is still
/// executing, instead of all at once at its end.
fn execute_window(
    engine: &mut Engine,
    batch: &mut FaultSetBatch,
    resp: &mut GroupedResponse,
    outbox: &mut Outbox,
    window: &[Pending],
    sink: &Sink<'_>,
    flush_after: Duration,
) {
    let stats = sink.stats;
    // Window-wait stage: admission to the executor picking the window up.
    for p in window {
        stats
            .stages
            .record(Stage::WindowWait, p.enqueued.elapsed().as_nanos() as u64);
    }
    // Expired requests are answered first: a request whose caller stopped
    // waiting must not cost an elimination.
    let now = Instant::now();
    for p in window.iter().filter(|p| p.expired_at(now)) {
        stats.record_deadline_drop();
        outbox.reply(p, 0, ResponseStatus::DeadlineExceeded);
    }
    // With every request expired there is nothing to execute, only the
    // expiries to send.
    if window.iter().all(|p| p.expired_at(now)) {
        return;
    }

    let mut last_flush = Instant::now();
    for p in window.iter().filter(|p| !p.expired_at(now)) {
        batch.faults.clone_from(&p.faults);
        batch.queries.clone_from(&p.queries);
        // One request per call: its answers come back on the epoch that
        // call pinned, stamped in its response, and a bad vertex id or a
        // contained panic fails this request alone.
        let call_t0 = Instant::now();
        engine.execute_grouped_into(std::slice::from_ref(batch), resp);
        stats.record_engine(&resp.stats, call_t0.elapsed().as_nanos() as u64);
        let status = match resp.groups.first() {
            Some(Ok(answers)) => ResponseStatus::Ok(answers.clone()),
            _ => {
                stats.record_engine_error();
                ResponseStatus::EngineFailed
            }
        };
        outbox.reply(p, resp.stats.epoch, status);
        if last_flush.elapsed() >= flush_after {
            outbox.flush(sink);
            last_flush = Instant::now();
        }
    }
    stats.record_batch();
}

/// Bytes of encoded responses a write buffer (an executor's outbox, a
/// reader's inline answers) keeps allocated between writes; a larger
/// buffer is released after its write.
const OUTBOX_KEEP_BYTES: usize = 256 << 10;

/// Where answered requests' charge returns to, and the counters.
struct Sink<'a> {
    batcher: &'a Batcher,
    stats: &'a ServerStats,
}

impl Sink<'_> {
    /// Forfeits a connection whose write failed: the write half carries
    /// [`ServerConfig::write_timeout`], so a client that stopped reading
    /// its responses (full TCP window) surfaces as a timeout after at most
    /// that bound, and a timed-out write may have left a partial frame on
    /// the stream. The writer is closed — answers still due to it in
    /// other executors' windows are dropped instantly instead of each
    /// eating another timeout — its queued backlog is purged with its
    /// charge, and the socket is shut down so the reader thread exits too.
    /// A connection is forfeited once, however many writes to it fail.
    fn forfeit(&self, writer: &ConnWriter) {
        if writer.close() {
            self.stats.record_slow_drop();
            writer.shutdown();
            self.batcher.purge(writer.id());
        }
    }
}

/// One executor's reused response buffers. A window's responses are
/// collected here, then each connection's run of frames goes out in one
/// [`ConnWriter::send_framed`] — one syscall per connection per window
/// instead of one per response.
#[derive(Default)]
struct Outbox {
    replies: Vec<Reply>,
    bytes: Vec<u8>,
    /// Budget charge of the requests in `replies`.
    charge: usize,
}

/// One encoded response waiting for its connection's write.
struct Reply {
    conn: Arc<ConnWriter>,
    record: Vec<u8>,
    /// `(tenant, queries, enqueued)` of a served request, for the latency
    /// recorded after the write.
    served: Option<(u32, usize, Instant)>,
}

impl Outbox {
    fn reply(&mut self, p: &Pending, epoch: u64, status: ResponseStatus) {
        let served = match &status {
            ResponseStatus::Ok(answers) => Some((p.tenant, answers.len(), p.enqueued)),
            _ => None,
        };
        let frame = QueryResponseFrame {
            request_id: p.request_id,
            epoch,
            status,
        };
        self.replies.push(Reply {
            conn: Arc::clone(&p.conn),
            record: frame.to_wire(),
            served,
        });
        self.charge += Batcher::charge(p);
    }

    /// Returns the answered requests' charge to the budget, then writes
    /// each connection's run with one send and records the served
    /// requests' latency (after the write, as seen by the client). The
    /// charge goes back first so a client holding an answer never finds
    /// that request still counted against the budget.
    ///
    /// A closed connection just drops its run — the client is gone, or
    /// already forfeited. A *failed* write forfeits the connection (see
    /// [`Sink::forfeit`]); the other connections in the window get their
    /// runs as usual. Only a written run's requests count as served; a
    /// dropped run is counted under its [`DropReason`].
    fn flush(&mut self, sink: &Sink<'_>) {
        let Outbox {
            replies,
            bytes,
            charge,
        } = self;
        sink.batcher.release(std::mem::take(charge));
        // A stable sort: each connection's run keeps reply order.
        replies.sort_by_key(|r| r.conn.id());
        for run in replies.chunk_by(|a, b| a.conn.id() == b.conn.id()) {
            let Some(writer) = run.first().map(|r| &r.conn) else {
                continue;
            };
            let dropped = if writer.is_closed() {
                Some(DropReason::Closed)
            } else {
                bytes.clear();
                for r in run {
                    push_frame(bytes, &r.record);
                }
                let sent = {
                    let _span = Span::enter(&sink.stats.stages, Stage::ResponseWrite);
                    writer.send_framed(bytes)
                };
                sent.is_err().then(|| {
                    sink.forfeit(writer);
                    DropReason::WriteFailed
                })
            };
            // Only a written answer counts as served.
            if let Some(reason) = dropped {
                sink.stats.record_dropped(reason, run.len() as u64);
                continue;
            }
            for &(tenant, queries, enqueued) in run.iter().filter_map(|r| r.served.as_ref()) {
                sink.stats
                    .record_ok(tenant, queries, enqueued.elapsed().as_nanos() as u64);
            }
        }
        replies.clear();
        clear_and_trim(bytes);
    }
}

/// Empties a reused write buffer, releasing what a large write grew it to
/// beyond [`OUTBOX_KEEP_BYTES`].
fn clear_and_trim(bytes: &mut Vec<u8>) {
    bytes.clear();
    bytes.shrink_to(OUTBOX_KEEP_BYTES);
}

/// The batcher watchdog: force-releases requests stuck in the queue
/// longer than [`ServerConfig::watchdog_after`].
///
/// Under healthy load an executor takes every window within about one
/// window duration, so a threshold well above it only trips when every
/// executor is parked — in practice on response writes against clients
/// that stopped reading (each bounded by [`ServerConfig::write_timeout`],
/// but a window's worth of them stack). Stuck requests are answered directly from this thread:
/// `DeadlineExceeded` when the request's TTL has expired, `ServerBusy`
/// otherwise (the honest signal that the server could not schedule it —
/// retryable, and both are retried by the resilient client). They go out
/// through an [`Outbox`], as an executor's answers do: the charge goes
/// back before the writes, each connection gets one write, and a failed
/// write forfeits its connection.
fn watchdog_loop(stop: &AtomicBool, batcher: &Batcher, stats: &ServerStats, config: ServerConfig) {
    let sink = Sink { batcher, stats };
    let max_age = config.watchdog_after;
    let poll = (max_age / 2).max(Duration::from_millis(1));
    let mut outbox = Outbox::default();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(poll);
        let stale = batcher.take_stale(max_age);
        if stale.is_empty() {
            continue;
        }
        let now = Instant::now();
        let pending = batcher.pending_queries() as u32;
        for p in &stale {
            stats.record_watchdog_fire();
            let status = if p.expired_at(now) {
                stats.record_deadline_drop();
                ResponseStatus::DeadlineExceeded
            } else {
                ResponseStatus::ServerBusy {
                    pending,
                    budget: config.pending_budget as u32,
                }
            };
            outbox.reply(p, 0, status);
        }
        outbox.flush(&sink);
    }
}
