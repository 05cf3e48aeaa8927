//! Property tests for the serving envelope: round-trips, and the
//! guarantee that corrupted or truncated frames decode to typed errors —
//! never a panic, never a silent misparse, never a hang.

// Test code: panicking asserts are the point.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::WireLabel;
use ftl_server::{
    frame, QueryRequestFrame, QueryResponseFrame, ResponseStatus, MAX_FRAME_BYTES_DEFAULT,
};
use proptest::prelude::*;
use std::io::{Cursor, ErrorKind, Read};
use std::sync::atomic::AtomicBool;

fn request(
    request_id: u64,
    tenant: u32,
    faults: &[u32],
    queries: &[(u32, u32)],
) -> QueryRequestFrame {
    QueryRequestFrame {
        request_id,
        tenant_id: tenant,
        faults: faults.iter().map(|&e| EdgeId::new(e as usize)).collect(),
        queries: queries
            .iter()
            .map(|&(s, t)| (VertexId::new(s as usize), VertexId::new(t as usize)))
            .collect(),
        ttl_ms: 0,
    }
}

/// Encodes a request exactly as a v1 (pre-TTL) encoder did: the base
/// payload with no trailing extension.
fn encode_v1(r: &QueryRequestFrame) -> Vec<u8> {
    use ftl_labels::wire::{LabelKind, WireWriter};
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

/// A stream that hands out its bytes in the given chunk sizes (cycling),
/// with a read timeout between chunks — how a socket delivers a pipelined
/// burst split at arbitrary points.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next: usize,
    stalled: bool,
}

impl Chunked {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        Chunked {
            data,
            pos: 0,
            chunks,
            next: 0,
            stalled: false,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.stalled {
            self.stalled = true;
            return Err(ErrorKind::WouldBlock.into());
        }
        self.stalled = false;
        let chunk = self.chunks[self.next % self.chunks.len()].max(1);
        self.next += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn framed(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for b in bodies {
        frame::push_frame(&mut out, b);
    }
    out
}

/// Drains a [`frame::FrameReader`]: every frame it yields, then the error
/// that ended the stream.
fn drain(r: &mut impl Read, max: usize) -> (Vec<Vec<u8>>, frame::FrameError) {
    let stop = AtomicBool::new(false);
    let mut reader = frame::FrameReader::new(max);
    let mut got = Vec::new();
    loop {
        match reader.next_frame(r, &stop) {
            Ok(body) => got.push(body.to_vec()),
            Err(e) => return (got, e),
        }
    }
}

/// Splitting a pipelined burst at every single byte boundary still yields
/// exactly its frames, then a clean close.
#[test]
fn frame_reader_survives_every_split_point() {
    let bodies: Vec<Vec<u8>> = vec![
        request(1, 2, &[3], &[(4, 5)]).to_wire(),
        Vec::new(),
        (0u8..=255).collect(),
        request(6, 7, &[], &[(8, 9), (10, 11)]).to_wire(),
    ];
    let data = framed(&bodies);
    for split in 0..=data.len() {
        let mut stream = Chunked::new(data.clone(), vec![split, data.len()]);
        assert_eq!(
            drain(&mut stream, MAX_FRAME_BYTES_DEFAULT),
            (bodies.clone(), frame::FrameError::Closed),
            "split at byte {split}"
        );
    }
}

proptest! {
    /// K valid frames delivered in any chunking, with read timeouts in
    /// between, yield exactly the K bodies and then `Closed` (EOF at a
    /// boundary). The one-shot `read_frame` reads the same stream frame by
    /// frame, never past one.
    #[test]
    fn frame_reader_yields_every_frame_whatever_the_chunking(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        chunks in proptest::collection::vec(1usize..50, 1..20),
    ) {
        let data = framed(&bodies);
        let mut stream = Chunked::new(data.clone(), chunks.clone());
        prop_assert_eq!(
            drain(&mut stream, MAX_FRAME_BYTES_DEFAULT),
            (bodies.clone(), frame::FrameError::Closed)
        );

        let stop = AtomicBool::new(false);
        let mut stream = Chunked::new(data, chunks);
        for body in &bodies {
            let one = frame::read_frame(&mut stream, MAX_FRAME_BYTES_DEFAULT, &stop);
            prop_assert_eq!(one.as_ref(), Ok(body));
        }
        prop_assert_eq!(
            frame::read_frame(&mut stream, MAX_FRAME_BYTES_DEFAULT, &stop),
            Err(frame::FrameError::Closed)
        );
    }

    /// A stream cut inside its last frame yields the complete frames
    /// before it, then `Truncated`.
    #[test]
    fn frame_reader_truncated_tail_is_typed(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..6),
        tail in proptest::collection::vec(any::<u8>(), 0..40),
        cut_permille in 0usize..1000,
        chunks in proptest::collection::vec(1usize..50, 1..20),
    ) {
        let mut data = framed(&bodies);
        let last = framed(&[tail]);
        // 1..last.len(): at least one byte of the tail frame, never all.
        let cut = 1 + (last.len() - 2) * cut_permille / 1000;
        data.extend_from_slice(&last[..cut]);
        let mut stream = Chunked::new(data, chunks);
        prop_assert_eq!(
            drain(&mut stream, MAX_FRAME_BYTES_DEFAULT),
            (bodies, frame::FrameError::Truncated)
        );
    }

    /// An oversize prefix after good frames: those frames, then
    /// `Oversized` — refused on the prefix alone, whatever follows.
    #[test]
    fn frame_reader_oversize_after_good_frames(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..6),
        extra in 1u32..=1 << 16,
        chunks in proptest::collection::vec(1usize..50, 1..20),
    ) {
        let max = 64u32;
        let bodies: Vec<Vec<u8>> = bodies.into_iter().filter(|b| b.len() <= max as usize).collect();
        let mut data = framed(&bodies);
        let len = max + extra;
        data.extend_from_slice(&len.to_le_bytes());
        data.extend_from_slice(&[0xAB; 16]);
        let mut stream = Chunked::new(data, chunks);
        prop_assert_eq!(
            drain(&mut stream, max as usize),
            (bodies, frame::FrameError::Oversized { len, max })
        );
    }

    /// Requests of any valid shape (at least one query) round-trip
    /// exactly.
    #[test]
    fn request_roundtrip(
        request_id in any::<u64>(),
        tenant in any::<u32>(),
        faults in proptest::collection::vec(any::<u32>(), 0..40),
        queries in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..40),
    ) {
        let r = request(request_id, tenant, &faults, &queries);
        prop_assert_eq!(QueryRequestFrame::from_wire(&r.to_wire()).unwrap(), r);
    }

    /// The TTL envelope extension round-trips for every TTL, and the
    /// zero-TTL encoding is bit-identical to the v1 envelope.
    #[test]
    fn ttl_envelope_roundtrip(
        request_id in any::<u64>(),
        ttl_ms in any::<u32>(),
        queries in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..40),
    ) {
        let r = QueryRequestFrame { ttl_ms, ..request(request_id, 3, &[5], &queries) };
        prop_assert_eq!(QueryRequestFrame::from_wire(&r.to_wire()).unwrap(), r.clone());
        if ttl_ms == 0 {
            prop_assert_eq!(r.to_wire(), encode_v1(&r));
        } else {
            // The extension costs exactly 40 bits: version byte + TTL.
            prop_assert!(r.to_wire().len() > encode_v1(&r).len());
        }
    }

    /// Version compat: any frame produced by a pre-TTL encoder decodes
    /// with `ttl_ms = 0` — old clients keep working unchanged.
    #[test]
    fn v1_encoders_decode_with_no_deadline(
        request_id in any::<u64>(),
        tenant in any::<u32>(),
        faults in proptest::collection::vec(any::<u32>(), 0..40),
        queries in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..40),
    ) {
        let r = request(request_id, tenant, &faults, &queries);
        let decoded = QueryRequestFrame::from_wire(&encode_v1(&r)).unwrap();
        prop_assert_eq!(decoded.ttl_ms, 0);
        prop_assert_eq!(decoded, r);
    }

    /// Zero-query requests are malformed whatever else they carry — a
    /// flood of them cannot slip past admission control (which charges by
    /// query count) while still paying for fault-set eliminations.
    #[test]
    fn zero_query_request_always_rejected(
        request_id in any::<u64>(),
        tenant in any::<u32>(),
        faults in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let r = request(request_id, tenant, &faults, &[]);
        prop_assert!(QueryRequestFrame::from_wire(&r.to_wire()).is_err());
    }

    /// Responses of every status round-trip exactly.
    #[test]
    fn response_roundtrip(
        request_id in any::<u64>(),
        epoch in any::<u64>(),
        pick in 0u8..5,
        answers in proptest::collection::vec(any::<bool>(), 0..80),
        pending in any::<u32>(),
        budget in any::<u32>(),
    ) {
        let status = match pick {
            0 => ResponseStatus::Ok(answers),
            1 => ResponseStatus::ServerBusy { pending, budget },
            2 => ResponseStatus::EngineFailed,
            3 => ResponseStatus::ShuttingDown,
            _ => ResponseStatus::DeadlineExceeded,
        };
        let f = QueryResponseFrame { request_id, epoch, status };
        prop_assert_eq!(QueryResponseFrame::from_wire(&f.to_wire()).unwrap(), f);
    }

    /// Any single-byte smear of the 8-byte record header is rejected with
    /// a typed error — magic, version, kind, and bit-length corruption
    /// are all caught before any payload is interpreted.
    #[test]
    fn smeared_header_always_rejected(
        byte in 0usize..8,
        mask in 1u8..=255,
        faults in proptest::collection::vec(any::<u32>(), 0..10),
        queries in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..10),
    ) {
        let mut bytes = request(1, 2, &faults, &queries).to_wire();
        bytes[byte] ^= mask;
        prop_assert!(QueryRequestFrame::from_wire(&bytes).is_err());

        let mut bytes = QueryResponseFrame {
            request_id: 1,
            epoch: 2,
            status: ResponseStatus::Ok(vec![true; queries.len()]),
        }
        .to_wire();
        bytes[byte] ^= mask;
        prop_assert!(QueryResponseFrame::from_wire(&bytes).is_err());
    }

    /// Every strict prefix of a record fails to decode (typed error, no
    /// panic) — a cut-off stream can never yield a phantom frame.
    #[test]
    fn truncated_record_always_rejected(
        cut_permille in 0usize..1000,
        faults in proptest::collection::vec(any::<u32>(), 0..10),
        queries in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..10),
    ) {
        let bytes = request(1, 2, &faults, &queries).to_wire();
        let cut = (bytes.len() - 1) * cut_permille / 1000;
        prop_assert!(QueryRequestFrame::from_wire(&bytes[..cut]).is_err());
    }

    /// Arbitrary byte soup never decodes (or panics): without the magic
    /// pair it cannot even open.
    #[test]
    fn byte_soup_never_decodes(mut soup in proptest::collection::vec(any::<u8>(), 0..64)) {
        if let Some(first) = soup.first_mut() {
            if *first == 0xF7 {
                *first = 0;
            }
        }
        prop_assert!(QueryRequestFrame::from_wire(&soup).is_err());
        prop_assert!(QueryResponseFrame::from_wire(&soup).is_err());
    }

    /// A framed message cut at any point reads back as a typed error —
    /// `Closed` exactly at a frame boundary, `Truncated` anywhere inside.
    #[test]
    fn truncated_frame_stream_is_typed(
        cut_permille in 0usize..1000,
        queries in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..10),
    ) {
        let record = request(9, 9, &[1, 2], &queries).to_wire();
        let mut framed = Vec::new();
        frame::write_frame(&mut framed, &record).unwrap();
        let cut = (framed.len() - 1) * cut_permille / 1000;
        framed.truncate(cut);
        let stop = AtomicBool::new(false);
        let got = frame::read_frame(&mut Cursor::new(framed), MAX_FRAME_BYTES_DEFAULT, &stop);
        if cut == 0 {
            prop_assert_eq!(got, Err(frame::FrameError::Closed));
        } else {
            prop_assert_eq!(got, Err(frame::FrameError::Truncated));
        }
    }

    /// Declared lengths over the ceiling are rejected before the body is
    /// read or allocated, whatever the declared value.
    #[test]
    fn oversized_length_rejected(extra in 1u32..=1 << 16, max in 16u32..4096) {
        let len = max + extra;
        let mut framed = Vec::from(len.to_le_bytes());
        framed.resize(framed.len() + 32, 0xAB);
        let stop = AtomicBool::new(false);
        let got = frame::read_frame(&mut Cursor::new(framed), max as usize, &stop);
        prop_assert_eq!(got, Err(frame::FrameError::Oversized { len, max }));
    }
}
