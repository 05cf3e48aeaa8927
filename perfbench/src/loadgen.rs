//! The pipelined load generator: two threads, two connections.
//!
//! `ftl_server::run_loadgen` drives one blocking thread per client with one
//! request in flight, so offering real load from it takes dozens of
//! threads — on a 2-core box that measures the scheduler. This generator
//! instead keeps many requests in flight on each connection (the server
//! reads on while earlier requests wait in its window, and answers are
//! keyed by request id):
//!
//! * **Closed loop** — one thread per connection keeps `inflight` requests
//!   outstanding and sends a new one for every answer it reads; sends that
//!   one read triggers go out in a single write.
//! * **Open loop** — a sender thread writes each request at its due time,
//!   alternating connections, and a receiver thread polls both
//!   (non-blocking) sockets. Each request is timed from its *due* time, so
//!   a stalled sender still charges the delay to latency; how late the
//!   sender ran is reported separately.
//!
//! Nothing is audited here: each answer is stored (16 bits per request)
//! and checked against BFS after the run, off the timed path.

use crate::workload::{request_content, CONNECTIONS};
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::WireLabel;
use ftl_server::{QueryRequestFrame, QueryResponseFrame, ResponseStatus, MAX_FRAME_BYTES_DEFAULT};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Status of one request after the drain.
pub const ST_UNANSWERED: u8 = 0;
pub const ST_OK: u8 = 1;
/// `ServerBusy`, `DeadlineExceeded` or `ShuttingDown`.
pub const ST_REFUSED: u8 = 2;
/// `EngineFailed`, or an `Ok` with the wrong number of answers.
pub const ST_FAILED: u8 = 3;

// `Rec::answers` holds one bit per query.
const _: () = assert!(crate::workload::QUERIES_PER_REQUEST <= 16);

/// One request's outcome (16 bytes: closed runs store ~10^6 of them).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rec {
    /// When it was sent (open loop: when it was due), µs after `t0`.
    pub sent_us: u32,
    /// Round trip, ns (saturating).
    pub rtt_ns: u32,
    /// Epoch the answering batch pinned.
    pub epoch: u32,
    /// Answer bit `i` = query `i` reported connected.
    pub answers: u16,
    pub status: u8,
}

/// Client-side spans, summed over the traced slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub encode_ns: u64,
    pub encoded: u64,
    pub write_ns: u64,
    pub writes: u64,
    pub read_ns: u64,
    pub reads: u64,
    pub decode_ns: u64,
    pub decoded: u64,
}

impl Spans {
    pub fn add(&mut self, o: &Spans) {
        self.encode_ns += o.encode_ns;
        self.encoded += o.encoded;
        self.write_ns += o.write_ns;
        self.writes += o.writes;
        self.read_ns += o.read_ns;
        self.reads += o.reads;
        self.decode_ns += o.decode_ns;
        self.decoded += o.decoded;
    }
}

/// What one connection produced.
#[derive(Debug, Default)]
pub struct ConnOut {
    /// Indexed by request sequence number.
    pub recs: Vec<Rec>,
    pub spans: Spans,
    pub inflight_max: usize,
}

/// Everything the generator threads share.
pub struct Plan<'a> {
    pub addr: SocketAddr,
    pub t0: Instant,
    /// Start of the measured phase (end of warm-up).
    pub measure_from: Instant,
    /// No request is sent (or due) at or after this instant.
    pub send_until: Instant,
    /// Requests still unanswered at this instant count as failed.
    pub drain_until: Instant,
    /// When set, client spans are recorded in every odd-numbered slice of
    /// this length within the measured phase.
    pub trace_slice: Option<Duration>,
    pub seed: u64,
    pub sets: &'a [Vec<EdgeId>],
    pub num_vertices: usize,
}

impl Plan<'_> {
    fn traced(&self, now: Instant) -> bool {
        match (
            self.trace_slice,
            now.checked_duration_since(self.measure_from),
        ) {
            (Some(slice), Some(into)) if now < self.send_until => {
                (into.as_nanos() / slice.as_nanos().max(1)) % 2 == 1
            }
            _ => false,
        }
    }

    fn since_t0_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }
}

const SEQ_BITS: u32 = 40;

fn request_id(conn: usize, seq: u64) -> u64 {
    ((conn as u64) << SEQ_BITS) | seq
}

/// Appends request `seq`'s length-prefixed frame to `out`.
fn encode_request(
    plan: &Plan,
    conn: usize,
    seq: u64,
    queries: &mut Vec<(VertexId, VertexId)>,
    out: &mut Vec<u8>,
) {
    let set = request_content(
        plan.seed,
        conn,
        seq,
        plan.sets.len(),
        plan.num_vertices,
        queries,
    );
    let frame = QueryRequestFrame {
        request_id: request_id(conn, seq),
        tenant_id: conn as u32,
        faults: plan.sets[set].clone(),
        queries: std::mem::take(queries),
        ttl_ms: 0,
    };
    let wire = frame.to_wire();
    *queries = frame.queries;
    out.extend_from_slice(&(wire.len() as u32).to_le_bytes());
    out.extend_from_slice(&wire);
}

/// Decodes one response frame and records it into `recs[seq]`, which the
/// caller has created. `sent_ns` maps the answered sequence number (and
/// its record) to the instant the round trip is timed from.
fn record_response(
    body: &[u8],
    conn: usize,
    recv_ns: u64,
    recs: &mut Vec<Rec>,
    sent_ns: impl Fn(u64, &Rec) -> u64,
) -> Result<(), String> {
    let resp = QueryResponseFrame::from_wire(body).map_err(|e| format!("bad response: {e}"))?;
    if resp.request_id >> SEQ_BITS != conn as u64 {
        return Err(format!(
            "response {:#x} on connection {conn}",
            resp.request_id
        ));
    }
    let seq = resp.request_id & ((1 << SEQ_BITS) - 1);
    let idx = seq as usize;
    if recs.len() <= idx {
        recs.resize(idx + 1, Rec::default());
    }
    let rec = &mut recs[idx];
    if rec.status != ST_UNANSWERED {
        return Err(format!("request {seq} on connection {conn} answered twice"));
    }
    let sent = sent_ns(seq, rec);
    rec.sent_us = (sent / 1000) as u32;
    rec.rtt_ns = recv_ns.saturating_sub(sent).min(u32::MAX as u64) as u32;
    rec.epoch = resp.epoch.min(u32::MAX as u64) as u32;
    rec.status = match resp.status {
        ResponseStatus::Ok(bits) if bits.len() == crate::workload::QUERIES_PER_REQUEST => {
            rec.answers = bits
                .iter()
                .enumerate()
                .fold(0u16, |acc, (i, &b)| acc | (u16::from(b) << i));
            ST_OK
        }
        ResponseStatus::Ok(_) | ResponseStatus::EngineFailed => ST_FAILED,
        ResponseStatus::ServerBusy { .. }
        | ResponseStatus::DeadlineExceeded
        | ResponseStatus::ShuttingDown => ST_REFUSED,
    };
    Ok(())
}

/// A receive buffer that yields whole frames and keeps partial ones
/// across reads, so one `read` can deliver many responses.
struct FrameBuf {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf {
            buf: vec![0; 64 << 10],
            head: 0,
            tail: 0,
        }
    }

    fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        } else if self.tail == self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            if self.tail == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = r.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// The next complete frame body, as a range into `self.buf`.
    fn next_frame(&mut self) -> Result<Option<std::ops::Range<usize>>, String> {
        let avail = self.tail - self.head;
        if avail < 4 {
            return Ok(None);
        }
        let mut len = [0u8; 4];
        len.copy_from_slice(&self.buf[self.head..self.head + 4]);
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME_BYTES_DEFAULT {
            return Err(format!("response frame of {len} bytes"));
        }
        if avail < 4 + len {
            if self.buf.len() < 4 + len {
                self.buf.resize(4 + len, 0);
            }
            return Ok(None);
        }
        let start = self.head + 4;
        self.head = start + len;
        Ok(Some(start..start + len))
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    Ok(s)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// One closed-loop connection: keeps `inflight` requests outstanding until
/// `send_until`, then drains.
pub fn run_closed(plan: &Plan, conn: usize, inflight: usize) -> Result<ConnOut, String> {
    let mut stream = connect(plan.addr)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut out = ConnOut {
        recs: Vec::with_capacity(1 << 16),
        ..ConnOut::default()
    };
    let mut fb = FrameBuf::new();
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut queries = Vec::with_capacity(crate::workload::QUERIES_PER_REQUEST);
    let mut next_seq = 0u64;
    let mut outstanding = 0usize;
    let mut to_send = inflight;
    loop {
        let now = Instant::now();
        let traced = plan.traced(now);
        if to_send > 0 && now < plan.send_until {
            let sent_ns = plan.since_t0_ns(now);
            for _ in 0..to_send {
                out.recs.push(Rec {
                    sent_us: (sent_ns / 1000) as u32,
                    ..Rec::default()
                });
                encode_request(plan, conn, next_seq, &mut queries, &mut wbuf);
                next_seq += 1;
            }
            let encoded = Instant::now();
            stream.write_all(&wbuf).map_err(|e| format!("write: {e}"))?;
            if traced {
                let written = Instant::now();
                out.spans.encode_ns += (encoded - now).as_nanos() as u64;
                out.spans.encoded += to_send as u64;
                out.spans.write_ns += (written - encoded).as_nanos() as u64;
                out.spans.writes += to_send as u64;
            }
            wbuf.clear();
            outstanding += to_send;
            out.inflight_max = out.inflight_max.max(outstanding);
        }
        to_send = 0;
        if outstanding == 0 && now >= plan.send_until || now >= plan.drain_until {
            break;
        }
        let read_at = Instant::now();
        match fb.read_from(&mut stream) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(format!("read: {e}")),
        }
        let recv = Instant::now();
        let recv_ns = plan.since_t0_ns(recv);
        let mut frames = 0u64;
        while let Some(range) = fb.next_frame()? {
            // A closed-loop round trip runs from the request's actual send.
            record_response(&fb.buf[range], conn, recv_ns, &mut out.recs, |_, rec| {
                rec.sent_us as u64 * 1000
            })?;
            frames += 1;
        }
        if traced && frames > 0 {
            let decoded = Instant::now();
            out.spans.read_ns += (recv - read_at).as_nanos() as u64;
            out.spans.reads += frames;
            out.spans.decode_ns += (decoded - recv).as_nanos() as u64;
            out.spans.decoded += frames;
        }
        outstanding = outstanding.saturating_sub(frames as usize);
        to_send = frames as usize;
    }
    Ok(out)
}

/// State the open loop's sender and receiver share.
pub struct OpenShared {
    period_ns: u64,
    /// Requests written so far, per connection.
    sent: Vec<AtomicU64>,
    sender_done: AtomicBool,
}

impl OpenShared {
    /// Due time of request `seq` on connection `c`, ns after `t0`: the
    /// schedule alternates connections.
    fn due_ns(&self, c: usize, seq: u64) -> u64 {
        (seq * CONNECTIONS as u64 + c as u64) * self.period_ns
    }
}

/// Opens the open loop's connections: the shared schedule, the read
/// halves (for the receiver) and the write halves (for the sender).
pub fn open_connect(
    plan: &Plan,
    rate: f64,
) -> Result<(OpenShared, Vec<TcpStream>, Vec<TcpStream>), String> {
    let readers: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| connect(plan.addr))
        .collect::<Result<_, _>>()?;
    let mut writers = Vec::with_capacity(CONNECTIONS);
    for s in &readers {
        s.set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        writers.push(s.try_clone().map_err(|e| format!("clone: {e}"))?);
    }
    let shared = OpenShared {
        period_ns: (1e9 / rate) as u64,
        sent: (0..CONNECTIONS).map(|_| AtomicU64::new(0)).collect(),
        sender_done: AtomicBool::new(false),
    };
    Ok((shared, readers, writers))
}

/// Folds the sender's spans into the receiver's books and enters every
/// request that was sent but never answered.
pub fn open_finish(shared: &OpenShared, outs: &mut [ConnOut], send_spans: &Spans) {
    for (c, out) in outs.iter_mut().enumerate() {
        let n = shared.sent[c].load(Ordering::Acquire) as usize;
        if out.recs.len() < n {
            out.recs.resize(n, Rec::default());
        }
        for (seq, r) in out.recs.iter_mut().enumerate() {
            if r.status == ST_UNANSWERED {
                r.sent_us = (shared.due_ns(c, seq as u64) / 1000) as u32;
            }
        }
    }
    if let Some(first) = outs.first_mut() {
        first.spans.add(send_spans);
    }
}

/// The open-loop sender: writes each request at its due time. Returns how
/// late it ran (ns) for each request of the measured phase, and its spans.
pub fn open_send(
    plan: &Plan,
    shared: &OpenShared,
    writers: Vec<TcpStream>,
) -> Result<(Vec<u64>, Spans), String> {
    let result = send_open(plan, shared, writers);
    shared.sender_done.store(true, Ordering::Release);
    result
}

fn send_open(
    plan: &Plan,
    shared: &OpenShared,
    mut writers: Vec<TcpStream>,
) -> Result<(Vec<u64>, Spans), String> {
    let mut lag_ns = Vec::new();
    let mut spans = Spans::default();
    let mut queries = Vec::with_capacity(crate::workload::QUERIES_PER_REQUEST);
    let mut wbuf = Vec::with_capacity(1024);
    for j in 0u64.. {
        let due = plan.t0 + Duration::from_nanos(j * shared.period_ns);
        if due >= plan.send_until {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let traced = plan.traced(start);
        let (c, seq) = ((j % CONNECTIONS as u64) as usize, j / CONNECTIONS as u64);
        encode_request(plan, c, seq, &mut queries, &mut wbuf);
        let encoded = Instant::now();
        write_all_nonblocking(&mut writers[c], &wbuf, plan.drain_until)?;
        wbuf.clear();
        shared.sent[c].store(seq + 1, Ordering::Release);
        if start >= plan.measure_from {
            lag_ns.push((start - due).as_nanos() as u64);
        }
        if traced {
            spans.encode_ns += (encoded - start).as_nanos() as u64;
            spans.encoded += 1;
            spans.write_ns += encoded.elapsed().as_nanos() as u64;
            spans.writes += 1;
        }
    }
    Ok((lag_ns, spans))
}

fn write_all_nonblocking(
    w: &mut TcpStream,
    mut buf: &[u8],
    give_up: Instant,
) -> Result<(), String> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= give_up {
                    return Err("write stalled past the drain deadline".into());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// Poll interval of the open-loop receiver when both sockets are empty.
const POLL: Duration = Duration::from_micros(20);

/// The open-loop receiver: polls both connections and books every answer,
/// timed from its request's due time.
pub fn open_receive(
    plan: &Plan,
    shared: &OpenShared,
    mut streams: Vec<TcpStream>,
) -> Result<Vec<ConnOut>, String> {
    let mut outs: Vec<ConnOut> = (0..CONNECTIONS).map(|_| ConnOut::default()).collect();
    let mut bufs: Vec<FrameBuf> = (0..CONNECTIONS).map(|_| FrameBuf::new()).collect();
    let mut received = [0u64; CONNECTIONS];
    loop {
        let mut progress = false;
        for c in 0..CONNECTIONS {
            let outstanding = shared.sent[c]
                .load(Ordering::Acquire)
                .saturating_sub(received[c]);
            outs[c].inflight_max = outs[c].inflight_max.max(outstanding as usize);
            let read_at = Instant::now();
            match bufs[c].read_from(&mut streams[c]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => {}
                Err(e) if is_timeout(&e) => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
            progress = true;
            let recv = Instant::now();
            let traced = plan.traced(recv);
            let recv_ns = plan.since_t0_ns(recv);
            let mut frames = 0u64;
            while let Some(range) = bufs[c].next_frame()? {
                record_response(
                    &bufs[c].buf[range],
                    c,
                    recv_ns,
                    &mut outs[c].recs,
                    |seq, _| shared.due_ns(c, seq),
                )?;
                frames += 1;
            }
            received[c] += frames;
            if traced && frames > 0 {
                let spans = &mut outs[c].spans;
                spans.read_ns += (recv - read_at).as_nanos() as u64;
                spans.reads += frames;
                spans.decode_ns += recv.elapsed().as_nanos() as u64;
                spans.decoded += frames;
            }
        }
        if progress {
            continue;
        }
        let done = shared.sender_done.load(Ordering::Acquire)
            && (0..CONNECTIONS).all(|c| received[c] >= shared.sent[c].load(Ordering::Acquire));
        if done || Instant::now() >= plan.drain_until {
            return Ok(outs);
        }
        std::thread::sleep(POLL);
    }
}
