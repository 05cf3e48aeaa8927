//! The serving envelope: length-prefixed wire records on a TCP stream.
//!
//! Byte layout of one message (full spec in `docs/serving.md`):
//!
//! ```text
//! byte 0..4   frame length N in bytes, u32 little-endian
//! byte 4..4+N one ftl wire record (see ftl_labels::wire):
//!             magic 0xF7 0x4C · version · kind 0x40/0x41 · bit length ·
//!             bit-packed payload
//! ```
//!
//! Reusing the wire record as the frame body means the envelope inherits
//! the label format's guarantees for free: versioning (a future protocol
//! bump is a `WIRE_VERSION` bump), magic/kind checks, exact bit-length
//! accounting, and zero-padding enforcement. A corrupted frame decodes to
//! a typed [`WireError`] — never a panic, never a silent misparse.
//!
//! One framing implementation, [`FrameReader`], reads every stream: the
//! server's readers keep one per connection and take every frame a single
//! `read` delivered, while [`read_frame`] and [`read_frame_deadline`] are
//! one-shot wrappers that read no byte past their frame. Reads are
//! *interruptible*: they tolerate read timeouts (polling the caller's stop
//! flag or deadline between attempts) and keep partial fills, so a socket
//! configured with a short read timeout can observe server shutdown
//! without ever desynchronizing mid-frame.

use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::{LabelKind, WireError, WireLabel, WireReader, WireWriter};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Default ceiling on a single frame's byte length. A request of
/// [`MAX_FAULTS_PER_REQUEST`] faults and [`MAX_QUERIES_PER_REQUEST`]
/// queries fits comfortably; anything larger is a protocol violation (or
/// an attack) and closes the connection before any allocation happens.
pub const MAX_FRAME_BYTES_DEFAULT: usize = 1 << 20;

/// Most faults one request may name.
pub const MAX_FAULTS_PER_REQUEST: usize = 4096;

/// Most queries one request may carry.
pub const MAX_QUERIES_PER_REQUEST: usize = u16::MAX as usize;

/// Why a frame could not be read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the stream cleanly (EOF at a frame boundary).
    Closed,
    /// The caller's stop flag was raised while waiting for bytes.
    Stopped,
    /// The caller's deadline passed while waiting for bytes
    /// ([`read_frame_deadline`]). The stream may hold a partial frame and
    /// must not be reused for framing.
    TimedOut,
    /// The stream ended mid-frame.
    Truncated,
    /// The declared frame length exceeds the configured ceiling.
    Oversized {
        /// Declared length.
        len: u32,
        /// Configured ceiling.
        max: u32,
    },
    /// A socket error other than a timeout.
    Io(ErrorKind),
    /// The frame body is not a valid wire record of the expected kind.
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the stream"),
            FrameError::Stopped => write!(f, "stopped while waiting for a frame"),
            FrameError::TimedOut => write!(f, "deadline passed while waiting for a frame"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "declared frame length {len} exceeds the ceiling {max}")
            }
            FrameError::Io(kind) => write!(f, "socket error: {kind:?}"),
            FrameError::Wire(e) => write!(f, "bad frame body: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Writes one length-prefixed frame with a single `write_all` of prefix
/// and body, so it leaves as one send (one TCP segment under
/// `TCP_NODELAY`), not two.
pub fn write_frame(w: &mut impl Write, record: &[u8]) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(4 + record.len());
    push_frame(&mut framed, record);
    w.write_all(&framed)?;
    w.flush()
}

/// Appends one length-prefixed frame to `out` — how a run of responses
/// for one connection is built before its single write.
pub fn push_frame(out: &mut Vec<u8>, record: &[u8]) {
    out.extend_from_slice(&(record.len() as u32).to_le_bytes());
    out.extend_from_slice(record);
}

/// Reads one length-prefixed frame body (the wire record bytes).
///
/// Timeouts (`WouldBlock` / `TimedOut`) are retried after checking
/// `stop`; partial fills are kept across retries, so a frame split over
/// many reads still assembles correctly. EOF exactly at a frame boundary
/// is a clean [`FrameError::Closed`]; EOF anywhere inside a frame is
/// [`FrameError::Truncated`].
///
/// A one-shot [`FrameReader`]: it reads no byte past the frame, so the
/// stream stays positioned at the next frame for the next call.
pub fn read_frame(
    r: &mut impl Read,
    max_bytes: usize,
    stop: &AtomicBool,
) -> Result<Vec<u8>, FrameError> {
    FrameReader::new(max_bytes).into_one_frame(r, &mut || {
        stop.load(Ordering::Relaxed).then_some(FrameError::Stopped)
    })
}

/// Reads one frame like [`read_frame`], but gives up at a wall-clock
/// `deadline` instead of on a stop flag — the client-side shape of a
/// per-request timeout. The socket still needs a short read timeout for
/// the deadline to be observed promptly.
///
/// A [`FrameError::TimedOut`] return means the stream may hold a partial
/// frame: the caller must drop the connection, not retry the read.
pub fn read_frame_deadline(
    r: &mut impl Read,
    max_bytes: usize,
    deadline: std::time::Instant,
) -> Result<Vec<u8>, FrameError> {
    FrameReader::new(max_bytes).into_one_frame(r, &mut || {
        (std::time::Instant::now() >= deadline).then_some(FrameError::TimedOut)
    })
}

/// Bytes one buffered read may pull at once; the buffer grows past this
/// only to hold a single frame larger than it.
const READ_CHUNK: usize = 64 << 10;

/// The one framing implementation: a buffered reader that yields frames
/// as slices of its own buffer.
///
/// [`next_frame`](FrameReader::next_frame) returns a frame already
/// buffered without a syscall; otherwise one `read` pulls as many bytes as
/// the stream holds, so a client that pipelines requests costs one read
/// per burst, not two per request. The buffer is reused for the
/// connection's life and bounded at `max(64 KiB, max_frame_bytes + 4)`:
/// a declared length over `max_frame_bytes` is refused as soon as its
/// prefix is buffered, before the buffer grows for it.
///
/// Timeouts keep partial fills, exactly like [`read_frame`]; EOF at a frame
/// boundary is [`FrameError::Closed`], inside one [`FrameError::Truncated`].
/// The stop flag is checked only before a read, never while a complete
/// frame is buffered.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    start: usize,
    /// End of the filled bytes.
    end: usize,
    max_frame: usize,
}

impl FrameReader {
    /// An empty reader refusing frames longer than `max_frame_bytes`.
    pub fn new(max_frame_bytes: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame: max_frame_bytes,
        }
    }

    /// The next frame body: from the buffer if one is complete there,
    /// otherwise after as many reads as it takes, each pulling whatever
    /// the stream holds.
    pub fn next_frame(
        &mut self,
        r: &mut impl Read,
        stop: &AtomicBool,
    ) -> Result<&[u8], FrameError> {
        let body = self.frame_with(r, true, &mut || {
            stop.load(Ordering::Relaxed).then_some(FrameError::Stopped)
        })?;
        Ok(self.buf.get(body).unwrap_or_default())
    }

    /// Whether [`next_frame`](FrameReader::next_frame) would return
    /// without touching the stream: a complete frame, or a prefix it will
    /// refuse, is buffered.
    pub fn has_buffered_frame(&self) -> bool {
        !matches!(self.buffered(), Ok(None))
    }

    /// The head frame's declared length, once its prefix is buffered.
    fn head_len(&self) -> Option<u32> {
        let filled = self.buf.get(self.start..self.end)?;
        let prefix = <[u8; 4]>::try_from(filled.get(..4)?).ok()?;
        Some(u32::from_le_bytes(prefix))
    }

    /// The head frame's body range in `buf`, if the frame is complete. A
    /// declared length over the ceiling is an error as soon as the prefix
    /// is buffered.
    fn buffered(&self) -> Result<Option<std::ops::Range<usize>>, FrameError> {
        let Some(len) = self.head_len() else {
            return Ok(None);
        };
        if len as usize > self.max_frame {
            return Err(FrameError::Oversized {
                len,
                max: self.max_frame as u32,
            });
        }
        let body = self.start + 4..self.start + 4 + len as usize;
        Ok((body.end <= self.end).then_some(body))
    }

    /// Returns the next frame's body range, reading until one is complete.
    /// `greedy` reads as much as the stream holds; otherwise no byte past
    /// the head frame is read.
    fn frame_with(
        &mut self,
        r: &mut impl Read,
        greedy: bool,
        give_up: &mut impl FnMut() -> Option<FrameError>,
    ) -> Result<std::ops::Range<usize>, FrameError> {
        loop {
            if let Some(body) = self.buffered()? {
                self.start = body.end;
                return Ok(body);
            }
            if let Some(e) = give_up() {
                return Err(e);
            }
            // Move the partial head frame to the front, then make room for
            // all of it (≤ max_frame + 4, checked above) and, when greedy,
            // for a full read chunk.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            // Within the ceiling: `buffered` refused anything longer.
            let need = 4 + self.head_len().map_or(0, |len| len as usize);
            let want = if greedy { need.max(READ_CHUNK) } else { need };
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            let Some(room) = self.buf.get_mut(self.end..want) else {
                return Err(FrameError::Io(ErrorKind::InvalidInput));
            };
            match r.read(room) {
                Ok(0) if self.end == 0 => return Err(FrameError::Closed),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(FrameError::Io(e.kind())),
            }
        }
    }

    /// Reads exactly one frame and returns its body in the reader's own
    /// buffer, reading no byte past it.
    fn into_one_frame(
        mut self,
        r: &mut impl Read,
        give_up: &mut impl FnMut() -> Option<FrameError>,
    ) -> Result<Vec<u8>, FrameError> {
        let body = self.frame_with(r, false, give_up)?;
        self.buf.truncate(body.end);
        self.buf.drain(..body.start);
        Ok(self.buf)
    }
}

/// One connectivity request: a fault set and a list of `(s, t)` queries,
/// answered together under `G \ F`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryRequestFrame {
    /// Client-chosen id echoed verbatim in the response; the demux key
    /// when responses come back out of submission order.
    pub request_id: u64,
    /// Accounting principal for per-tenant stats.
    pub tenant_id: u32,
    /// The fault set `F`, as edge ids (may be empty: fault-free
    /// connectivity).
    pub faults: Vec<EdgeId>,
    /// Connectivity queries `(s, t)` under `G \ F`. Must be non-empty on
    /// the wire: the decoder rejects zero-query requests as malformed, so
    /// admission control always has something to charge.
    pub queries: Vec<(VertexId, VertexId)>,
    /// Time-to-live in milliseconds, measured from the server decoding the
    /// frame. `0` means "no deadline" and encodes exactly as the original
    /// envelope (no trailing extension), so old decoders keep working; a
    /// non-zero TTL rides in a versioned trailing extension (see
    /// `docs/serving.md`). A request still queued when its TTL expires is
    /// answered with [`ResponseStatus::DeadlineExceeded`] instead of
    /// burning an elimination.
    pub ttl_ms: u32,
}

/// The envelope-extension version byte introducing the TTL field. The
/// base request payload is unversioned (it predates extensions); any
/// trailing bytes must start with a known extension version.
const REQUEST_EXT_TTL: u64 = 2;

impl WireLabel for QueryRequestFrame {
    const KIND: LabelKind = LabelKind::QueryRequest;

    fn encode_payload(&self, w: &mut WireWriter) {
        w.write_word(self.request_id, 64);
        w.write_word(self.tenant_id as u64, 32);
        w.write_word(self.faults.len() as u64, 32);
        for e in &self.faults {
            w.write_word(e.index() as u64, 32);
        }
        w.write_word(self.queries.len() as u64, 32);
        for (s, t) in &self.queries {
            w.write_word(s.index() as u64, 32);
            w.write_word(t.index() as u64, 32);
        }
        // TTL rides in a trailing extension only when set: the common
        // no-deadline encoding stays bit-identical to the v1 envelope.
        if self.ttl_ms != 0 {
            w.write_word(REQUEST_EXT_TTL, 8);
            w.write_word(self.ttl_ms as u64, 32);
        }
    }

    fn decode_payload(r: &mut WireReader) -> Result<Self, WireError> {
        let request_id = r.read_word(64)?;
        let tenant_id = r.read_word(32)? as u32;
        let num_faults = r.read_word(32)? as usize;
        if num_faults > MAX_FAULTS_PER_REQUEST {
            return Err(WireError::Malformed("fault count over limit"));
        }
        if num_faults * 32 > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut faults = Vec::with_capacity(num_faults);
        for _ in 0..num_faults {
            faults.push(EdgeId::new(r.read_word(32)? as usize));
        }
        let num_queries = r.read_word(32)? as usize;
        if num_queries == 0 {
            // A request that asks nothing has no well-defined response and
            // would otherwise ride through admission control for free
            // while still carrying up to MAX_FAULTS_PER_REQUEST faults
            // (a full elimination's worth of work): malformed.
            return Err(WireError::Malformed("request carries no queries"));
        }
        if num_queries > MAX_QUERIES_PER_REQUEST {
            return Err(WireError::Malformed("query count over limit"));
        }
        if num_queries * 64 > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut queries = Vec::with_capacity(num_queries);
        for _ in 0..num_queries {
            let s = VertexId::new(r.read_word(32)? as usize);
            let t = VertexId::new(r.read_word(32)? as usize);
            queries.push((s, t));
        }
        // Version-compat: a v1 encoder stops here (remaining() == 0 —
        // the wire header's exact bit length makes this check sound). A
        // TTL-aware encoder appends the extension-version byte and the
        // TTL; anything else trailing is a framing error, not padding.
        let ttl_ms = if r.remaining() == 0 {
            0
        } else {
            match r.read_word(8)? {
                REQUEST_EXT_TTL => r.read_word(32)? as u32,
                _ => return Err(WireError::Malformed("unknown request envelope extension")),
            }
        };
        Ok(QueryRequestFrame {
            request_id,
            tenant_id,
            faults,
            queries,
            ttl_ms,
        })
    }
}

/// The outcome carried by a [`QueryResponseFrame`]. Status codes on the
/// wire: 0 = Ok, 1 = ServerBusy, 2 = EngineFailed, 3 = ShuttingDown,
/// 4 = DeadlineExceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseStatus {
    /// All queries answered; one connectivity bit per query, in request
    /// order.
    Ok(Vec<bool>),
    /// Admission control rejected the request: the pending-query budget
    /// was full. Retry after a backoff; nothing was executed.
    ServerBusy {
        /// Queries already pending when the request arrived.
        pending: u32,
        /// The configured budget.
        budget: u32,
    },
    /// The engine could not serve the request (a bad fault set, a bad
    /// vertex id or a contained worker panic). Nothing partial is
    /// returned.
    EngineFailed,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The request's TTL expired before execution (either caught at the
    /// window boundary or force-released by the batcher watchdog). No
    /// elimination was spent; the caller may retry with a fresh deadline.
    DeadlineExceeded,
}

/// One response, demuxed back to its connection by `request_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponseFrame {
    /// Echo of the request's id.
    pub request_id: u64,
    /// The epoch the answering batch pinned (0 for rejects, which never
    /// reach an engine).
    pub epoch: u64,
    /// The outcome.
    pub status: ResponseStatus,
}

impl WireLabel for QueryResponseFrame {
    const KIND: LabelKind = LabelKind::QueryResponse;

    fn encode_payload(&self, w: &mut WireWriter) {
        w.write_word(self.request_id, 64);
        w.write_word(self.epoch, 64);
        match &self.status {
            ResponseStatus::Ok(answers) => {
                w.write_word(0, 8);
                w.write_word(answers.len() as u64, 32);
                for &a in answers {
                    w.write_bit(a);
                }
            }
            ResponseStatus::ServerBusy { pending, budget } => {
                w.write_word(1, 8);
                w.write_word(*pending as u64, 32);
                w.write_word(*budget as u64, 32);
            }
            ResponseStatus::EngineFailed => w.write_word(2, 8),
            ResponseStatus::ShuttingDown => w.write_word(3, 8),
            ResponseStatus::DeadlineExceeded => w.write_word(4, 8),
        }
    }

    fn decode_payload(r: &mut WireReader) -> Result<Self, WireError> {
        let request_id = r.read_word(64)?;
        let epoch = r.read_word(64)?;
        let status = match r.read_word(8)? {
            0 => {
                let n = r.read_word(32)? as usize;
                if n > MAX_QUERIES_PER_REQUEST {
                    return Err(WireError::Malformed("answer count over limit"));
                }
                if n > r.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut answers = Vec::with_capacity(n);
                for _ in 0..n {
                    answers.push(r.read_bit()?);
                }
                ResponseStatus::Ok(answers)
            }
            1 => ResponseStatus::ServerBusy {
                pending: r.read_word(32)? as u32,
                budget: r.read_word(32)? as u32,
            },
            2 => ResponseStatus::EngineFailed,
            3 => ResponseStatus::ShuttingDown,
            4 => ResponseStatus::DeadlineExceeded,
            _ => return Err(WireError::Malformed("unknown response status")),
        };
        Ok(QueryResponseFrame {
            request_id,
            epoch,
            status,
        })
    }
}

/// Most bytes a metrics exposition may carry on the wire. Generously
/// above any real catalog (a scrape is a few KiB plus under 1 KiB per
/// tracked tenant, and a server tracks at most
/// [`MAX_TENANTS`](crate::stats::MAX_TENANTS)) yet within the default
/// frame ceiling, so a scrape never needs a bespoke `max_frame_bytes`.
pub const MAX_METRICS_BYTES: usize = 1 << 19;

/// An admin-plane metrics scrape (kind `0x50`). Carries only a
/// correlation id: the server answers with its full text exposition,
/// bypassing admission control and the batching pipeline entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRequestFrame {
    /// Client-chosen id echoed verbatim in the response.
    pub request_id: u64,
}

impl WireLabel for MetricsRequestFrame {
    const KIND: LabelKind = LabelKind::MetricsRequest;

    fn encode_payload(&self, w: &mut WireWriter) {
        w.write_word(self.request_id, 64);
    }

    fn decode_payload(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(MetricsRequestFrame {
            request_id: r.read_word(64)?,
        })
    }
}

/// The scrape answer (kind `0x51`): a Prometheus-style text exposition
/// (see `docs/observability.md` for the series catalog).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsResponseFrame {
    /// Echo of the request's id.
    pub request_id: u64,
    /// The exposition text (UTF-8; in practice ASCII).
    pub text: String,
}

impl WireLabel for MetricsResponseFrame {
    const KIND: LabelKind = LabelKind::MetricsResponse;

    fn encode_payload(&self, w: &mut WireWriter) {
        w.write_word(self.request_id, 64);
        let bytes = self.text.as_bytes();
        w.write_word(bytes.len().min(MAX_METRICS_BYTES) as u64, 32);
        for &b in bytes.iter().take(MAX_METRICS_BYTES) {
            w.write_word(b as u64, 8);
        }
    }

    fn decode_payload(r: &mut WireReader) -> Result<Self, WireError> {
        let request_id = r.read_word(64)?;
        let len = r.read_word(32)? as usize;
        if len > MAX_METRICS_BYTES {
            return Err(WireError::Malformed("metrics text over limit"));
        }
        if len * 8 > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            bytes.push(r.read_word(8)? as u8);
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("metrics text is not UTF-8"))?;
        Ok(MetricsResponseFrame { request_id, text })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req() -> QueryRequestFrame {
        QueryRequestFrame {
            request_id: 42,
            tenant_id: 7,
            faults: vec![EdgeId::new(3), EdgeId::new(11)],
            queries: vec![
                (VertexId::new(0), VertexId::new(9)),
                (VertexId::new(4), VertexId::new(4)),
            ],
            ttl_ms: 0,
        }
    }

    /// Encodes `r`'s payload exactly as a v1 (pre-TTL) encoder did:
    /// no trailing extension, whatever `ttl_ms` says.
    fn encode_v1(r: &QueryRequestFrame) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.write_word(r.request_id, 64);
        w.write_word(r.tenant_id as u64, 32);
        w.write_word(r.faults.len() as u64, 32);
        for e in &r.faults {
            w.write_word(e.index() as u64, 32);
        }
        w.write_word(r.queries.len() as u64, 32);
        for (s, t) in &r.queries {
            w.write_word(s.index() as u64, 32);
            w.write_word(t.index() as u64, 32);
        }
        w.finish(LabelKind::QueryRequest)
    }

    #[test]
    fn request_roundtrip() {
        let r = req();
        assert_eq!(QueryRequestFrame::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn ttl_roundtrips_and_zero_ttl_stays_v1_compatible() {
        let with_ttl = QueryRequestFrame {
            ttl_ms: 1500,
            ..req()
        };
        assert_eq!(
            QueryRequestFrame::from_wire(&with_ttl.to_wire()).unwrap(),
            with_ttl
        );
        // ttl_ms == 0 encodes bit-identically to a v1 encoder: an old
        // decoder never sees the extension unless a deadline is set.
        assert_eq!(req().to_wire(), encode_v1(&req()));
    }

    #[test]
    fn v1_encoding_decodes_with_no_deadline() {
        // The version-compat path: frames from encoders that predate the
        // TTL extension decode as ttl_ms = 0 ("no deadline").
        let decoded = QueryRequestFrame::from_wire(&encode_v1(&req())).unwrap();
        assert_eq!(decoded, req());
        assert_eq!(decoded.ttl_ms, 0);
    }

    #[test]
    fn unknown_envelope_extension_rejected() {
        // Trailing bytes that don't start with a known extension version
        // are a framing error, not ignorable padding: silently skipping
        // them would let a desynced stream masquerade as valid requests.
        let mut w = WireWriter::new();
        let r = req();
        w.write_word(r.request_id, 64);
        w.write_word(r.tenant_id as u64, 32);
        w.write_word(r.faults.len() as u64, 32);
        for e in &r.faults {
            w.write_word(e.index() as u64, 32);
        }
        w.write_word(r.queries.len() as u64, 32);
        for (s, t) in &r.queries {
            w.write_word(s.index() as u64, 32);
            w.write_word(t.index() as u64, 32);
        }
        w.write_word(9, 8); // not a known extension version
        w.write_word(1500, 32);
        assert_eq!(
            QueryRequestFrame::from_wire(&w.finish(LabelKind::QueryRequest)),
            Err(WireError::Malformed("unknown request envelope extension"))
        );
    }

    #[test]
    fn response_roundtrips_all_statuses() {
        for status in [
            ResponseStatus::Ok(vec![true, false, true]),
            ResponseStatus::Ok(Vec::new()),
            ResponseStatus::ServerBusy {
                pending: 100,
                budget: 64,
            },
            ResponseStatus::EngineFailed,
            ResponseStatus::ShuttingDown,
            ResponseStatus::DeadlineExceeded,
        ] {
            let f = QueryResponseFrame {
                request_id: 9,
                epoch: 3,
                status,
            };
            assert_eq!(QueryResponseFrame::from_wire(&f.to_wire()).unwrap(), f);
        }
    }

    #[test]
    fn oversized_counts_rejected_without_allocation() {
        // A request whose header claims 2^31 faults in an 8-byte payload
        // must fail on the count check, not attempt the allocation.
        let mut w = WireWriter::new();
        w.write_word(1, 64);
        w.write_word(0, 32);
        w.write_word(1 << 31, 32);
        let bytes = w.finish(LabelKind::QueryRequest);
        assert_eq!(
            QueryRequestFrame::from_wire(&bytes),
            Err(WireError::Malformed("fault count over limit"))
        );
    }

    #[test]
    fn zero_query_request_rejected_as_malformed() {
        // Zero queries would be admitted for free (nothing to charge the
        // pending budget) while still costing an elimination per distinct
        // fault set — the decoder refuses the shape outright.
        let zero = QueryRequestFrame {
            request_id: 1,
            tenant_id: 0,
            faults: vec![EdgeId::new(2)],
            queries: Vec::new(),
            ttl_ms: 0,
        };
        assert_eq!(
            QueryRequestFrame::from_wire(&zero.to_wire()),
            Err(WireError::Malformed("request carries no queries"))
        );
    }

    #[test]
    fn metrics_frames_roundtrip() {
        let req = MetricsRequestFrame { request_id: 77 };
        assert_eq!(MetricsRequestFrame::from_wire(&req.to_wire()).unwrap(), req);
        let resp = MetricsResponseFrame {
            request_id: 77,
            text: "# TYPE ftl_stage_ns summary\nftl_stage_ns_count{stage=\"answer\"} 3\n"
                .to_string(),
        };
        assert_eq!(
            MetricsResponseFrame::from_wire(&resp.to_wire()).unwrap(),
            resp
        );
        // Kinds are distinct: a response never decodes as a request.
        assert!(matches!(
            MetricsRequestFrame::from_wire(&resp.to_wire()),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn oversized_metrics_text_rejected_on_decode() {
        // A lying length over the cap fails before any allocation.
        let mut w = WireWriter::new();
        w.write_word(1, 64);
        w.write_word((MAX_METRICS_BYTES + 1) as u64, 32);
        let bytes = w.finish(LabelKind::MetricsResponse);
        assert_eq!(
            MetricsResponseFrame::from_wire(&bytes),
            Err(WireError::Malformed("metrics text over limit"))
        );
    }

    #[test]
    fn framed_write_read_roundtrip() {
        let record = req().to_wire();
        let mut buf = Vec::new();
        write_frame(&mut buf, &record).unwrap();
        let stop = AtomicBool::new(false);
        let mut cur = Cursor::new(buf);
        let body = read_frame(&mut cur, MAX_FRAME_BYTES_DEFAULT, &stop).unwrap();
        assert_eq!(body, record);
        // The next read sees EOF at a boundary: a clean close.
        assert_eq!(
            read_frame(&mut cur, MAX_FRAME_BYTES_DEFAULT, &stop),
            Err(FrameError::Closed)
        );
    }

    #[test]
    fn oversized_frame_rejected_before_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let stop = AtomicBool::new(false);
        assert_eq!(
            read_frame(&mut Cursor::new(buf), 1024, &stop),
            Err(FrameError::Oversized {
                len: u32::MAX,
                max: 1024,
            })
        );
    }

    #[test]
    fn truncated_frame_detected() {
        let record = req().to_wire();
        let mut buf = Vec::new();
        write_frame(&mut buf, &record).unwrap();
        buf.truncate(buf.len() - 3);
        let stop = AtomicBool::new(false);
        assert_eq!(
            read_frame(&mut Cursor::new(buf), MAX_FRAME_BYTES_DEFAULT, &stop),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn stop_flag_interrupts_a_blocked_read() {
        struct AlwaysTimeout;
        impl Read for AlwaysTimeout {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(ErrorKind::WouldBlock))
            }
        }
        let stop = AtomicBool::new(true);
        assert_eq!(
            read_frame(&mut AlwaysTimeout, 1024, &stop),
            Err(FrameError::Stopped)
        );
    }
}
