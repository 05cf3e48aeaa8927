//! The `ftl` wire format: a versioned header plus a bit-packed payload.
//!
//! Every label type that can be held in an off-struct store (the
//! `ftl-engine` label store, files, sockets) implements [`WireLabel`]:
//!
//! ```text
//! byte 0..2   magic  0xF7 0x4C            ("FTL")
//! byte 2      format version              (WIRE_VERSION)
//! byte 3      label kind                  (LabelKind as u8)
//! byte 4..8   payload length in bits, u32 little-endian
//! byte 8..    payload, bit-packed little-endian, zero-padded to a byte
//! ```
//!
//! Payloads are written through [`WireWriter`] (bit-granular, so a `b`-bit
//! `φ(e)` costs exactly `b` bits on the wire) and read back through
//! [`WireReader`], which bounds-checks every read against the header's bit
//! length and rejects trailing garbage — a decoder either reproduces the
//! encoded label exactly or fails with a [`WireError`].

use ftl_gf2::BitVec;
use std::fmt;

/// Magic bytes opening every wire label.
pub const WIRE_MAGIC: [u8; 2] = [0xF7, 0x4C];

/// Current wire-format version. Decoders reject anything newer or older;
/// bump on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Size of the fixed header preceding every payload.
pub const HEADER_BYTES: usize = 8;

/// Discriminates the label type carried by a wire record.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LabelKind {
    /// [`crate::AncestryLabel`].
    Ancestry = 0x01,
    /// A cycle-space vertex label.
    CycleSpaceVertex = 0x10,
    /// A cycle-space edge label.
    CycleSpaceEdge = 0x11,
    /// A sketch-scheme vertex label.
    SketchVertex = 0x20,
    /// A sketch-scheme edge label.
    SketchEdge = 0x21,
    /// A fault-tolerant routing label.
    Route = 0x30,
    /// A serving-envelope request frame (`ftl-server`; see
    /// `docs/serving.md`). Not a label: the serving front end frames its
    /// request/response bodies as wire records so they inherit this
    /// module's header versioning and corruption rejection.
    QueryRequest = 0x40,
    /// A serving-envelope response frame (`ftl-server`).
    QueryResponse = 0x41,
    /// An admin-envelope metrics scrape request (`ftl-server`; see
    /// `docs/observability.md`). Answered out of band — it never enters
    /// the batching pipeline.
    MetricsRequest = 0x50,
    /// An admin-envelope metrics scrape response: a Prometheus-style
    /// text exposition.
    MetricsResponse = 0x51,
}

impl LabelKind {
    /// Parses a kind byte.
    pub fn from_u8(b: u8) -> Option<LabelKind> {
        match b {
            0x01 => Some(LabelKind::Ancestry),
            0x10 => Some(LabelKind::CycleSpaceVertex),
            0x11 => Some(LabelKind::CycleSpaceEdge),
            0x20 => Some(LabelKind::SketchVertex),
            0x21 => Some(LabelKind::SketchEdge),
            0x30 => Some(LabelKind::Route),
            0x40 => Some(LabelKind::QueryRequest),
            0x41 => Some(LabelKind::QueryResponse),
            0x50 => Some(LabelKind::MetricsRequest),
            0x51 => Some(LabelKind::MetricsResponse),
            _ => None,
        }
    }
}

/// Why a wire record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The record is shorter than the fixed header.
    TooShort,
    /// The magic bytes are wrong — this is not a wire label at all.
    BadMagic,
    /// The version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte does not name any known label type.
    UnknownKind(u8),
    /// The record carries a different label type than the caller asked for.
    WrongKind {
        /// The kind the caller tried to decode.
        expected: LabelKind,
        /// The kind named in the header.
        got: LabelKind,
    },
    /// The byte length does not match the header's payload bit length.
    LengthMismatch,
    /// Padding bits after the payload are non-zero.
    DirtyPadding,
    /// A read ran past the end of the payload.
    Truncated,
    /// The payload decoded but with bits left over.
    TrailingBits,
    /// A field held a value the decoder cannot represent.
    Malformed(&'static str),
    /// A single read asked for more than 64 bits.
    ReadTooWide(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort => write!(f, "record shorter than the wire header"),
            WireError::BadMagic => write!(f, "bad magic bytes"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown label kind byte {k:#04x}"),
            WireError::WrongKind { expected, got } => {
                write!(f, "expected {expected:?} label, found {got:?}")
            }
            WireError::LengthMismatch => write!(f, "byte length inconsistent with header"),
            WireError::DirtyPadding => write!(f, "non-zero padding after payload"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBits => write!(f, "payload has trailing bits"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::ReadTooWide(n) => write!(f, "read of {n} bits exceeds one 64-bit word"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bit-granular payload writer. Bits are packed little-endian within
/// little-endian `u64` words, matching [`BitVec`]'s layout, so whole bit
/// vectors serialize as word copies.
#[derive(Debug, Default)]
pub struct WireWriter {
    words: Vec<u64>,
    bits: usize,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Number of payload bits written so far.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Appends the low `n` bits of `word` (`n <= 64`).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or if `word` has bits above `n` set.
    pub fn write_word(&mut self, word: u64, n: usize) {
        assert!(n <= 64, "at most 64 bits per write");
        if n < 64 {
            assert!(word >> n == 0, "value {word} does not fit in {n} bits");
        }
        if n == 0 {
            return;
        }
        let offset = self.bits % 64;
        // `offset > 0` implies a last word exists; spelled as if-let so the
        // serving path stays panic-free by construction, with a push
        // fallback that keeps the written bits correct regardless.
        match self.words.last_mut() {
            Some(last) if offset != 0 => {
                *last |= word << offset;
                if offset + n > 64 {
                    self.words.push(word >> (64 - offset));
                }
            }
            _ => self.words.push(word),
        }
        self.bits += n;
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, b: bool) {
        self.write_word(b as u64, 1);
    }

    /// Appends the raw bits of `v` (exactly `v.len()` bits; the caller's
    /// decoder must know the length from context).
    pub fn write_bits(&mut self, v: &BitVec) {
        let mut remaining = v.len();
        for &w in v.words() {
            let n = remaining.min(64);
            self.write_word(w & mask(n), n);
            remaining -= n;
        }
    }

    /// Appends `v` with a 32-bit length prefix, for fields whose width the
    /// decoder cannot derive.
    pub fn write_len_bits(&mut self, v: &BitVec) {
        self.write_word(v.len() as u64, 32);
        self.write_bits(v);
    }

    /// Seals the payload into a complete wire record of the given kind.
    pub fn finish(self, kind: LabelKind) -> Vec<u8> {
        let payload_bytes = self.bits.div_ceil(8);
        let mut out = Vec::with_capacity(HEADER_BYTES + payload_bytes);
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(kind as u8);
        out.extend_from_slice(&(self.bits as u32).to_le_bytes());
        let bytes = self.words.iter().flat_map(|w| w.to_le_bytes());
        out.extend(bytes.take(payload_bytes));
        out
    }
}

#[inline]
fn mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Bounds-checked bit-granular payload reader; the inverse of
/// [`WireWriter`].
#[derive(Debug)]
pub struct WireReader {
    words: Vec<u64>,
    bits: usize,
    pos: usize,
}

impl WireReader {
    /// Parses the header of a wire record, checks magic/version/byte-length
    /// consistency, and returns the named kind plus a reader positioned at
    /// the start of the payload.
    pub fn open(bytes: &[u8]) -> Result<(LabelKind, WireReader), WireError> {
        let Some((header, payload)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
            return Err(WireError::TooShort);
        };
        let [m0, m1, version, kind, l0, l1, l2, l3] = *header;
        if [m0, m1] != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let kind = LabelKind::from_u8(kind).ok_or(WireError::UnknownKind(kind))?;
        let bits = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if payload.len() != bits.div_ceil(8) {
            return Err(WireError::LengthMismatch);
        }
        if let Some(&last) = payload.last() {
            if !bits.is_multiple_of(8) && last >> (bits % 8) != 0 {
                return Err(WireError::DirtyPadding);
            }
        }
        let words = payload
            .chunks(8)
            .map(|chunk| {
                let mut le = [0u8; 8];
                le.iter_mut().zip(chunk).for_each(|(d, &b)| *d = b);
                u64::from_le_bytes(le)
            })
            .collect();
        Ok((
            kind,
            WireReader {
                words,
                bits,
                pos: 0,
            },
        ))
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits - self.pos
    }

    /// Reads `n` bits (`n <= 64`) as a word. A wider read is a typed
    /// [`WireError::ReadTooWide`]; a failed read leaves the position
    /// unchanged.
    pub fn read_word(&mut self, n: usize) -> Result<u64, WireError> {
        if n > 64 {
            return Err(WireError::ReadTooWide(n));
        }
        if self.pos + n > self.bits {
            return Err(WireError::Truncated);
        }
        if n == 0 {
            return Ok(0);
        }
        let word = self.pos / 64;
        let offset = self.pos % 64;
        // `pos + n <= bits` and `words` covers `bits`, so every word the
        // read spans exists; a missing one would read as zero bits.
        let at = |i: usize| self.words.get(i).copied().unwrap_or(0);
        let mut w = at(word) >> offset;
        if offset + n > 64 {
            w |= at(word + 1) << (64 - offset);
        }
        self.pos += n;
        Ok(w & mask(n))
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Result<bool, WireError> {
        Ok(self.read_word(1)? == 1)
    }

    /// Reads exactly `len` raw bits into a [`BitVec`].
    pub fn read_bits(&mut self, len: usize) -> Result<BitVec, WireError> {
        if self.pos + len > self.bits {
            return Err(WireError::Truncated);
        }
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, w) in words.iter_mut().enumerate() {
            let n = (len - i * 64).min(64);
            *w = self.read_word(n)?;
        }
        Ok(BitVec::from_words(&words, len))
    }

    /// Reads a 32-bit length prefix then that many bits; the inverse of
    /// [`WireWriter::write_len_bits`].
    pub fn read_len_bits(&mut self) -> Result<BitVec, WireError> {
        let len = self.read_word(32)? as usize;
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        self.read_bits(len)
    }

    /// Asserts the payload was consumed exactly.
    pub fn close(self) -> Result<(), WireError> {
        if self.pos == self.bits {
            Ok(())
        } else {
            Err(WireError::TrailingBits)
        }
    }
}

/// A label with a wire representation.
///
/// Implementors provide the payload codec; the provided [`to_wire`] /
/// [`from_wire`] wrap it in the versioned header and enforce the
/// kind/version/length checks.
///
/// [`to_wire`]: WireLabel::to_wire
/// [`from_wire`]: WireLabel::from_wire
pub trait WireLabel: Sized {
    /// The kind byte identifying this label type on the wire.
    const KIND: LabelKind;

    /// Writes the payload bits.
    fn encode_payload(&self, w: &mut WireWriter);

    /// Reads the payload bits; must consume exactly what
    /// [`WireLabel::encode_payload`] wrote.
    fn decode_payload(r: &mut WireReader) -> Result<Self, WireError>;

    /// Serializes to a complete wire record (header + payload).
    fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_payload(&mut w);
        w.finish(Self::KIND)
    }

    /// Deserializes a wire record, checking header integrity and that the
    /// record carries this label type.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut r) = WireReader::open(bytes)?;
        if kind != Self::KIND {
            return Err(WireError::WrongKind {
                expected: Self::KIND,
                got: kind,
            });
        }
        let label = Self::decode_payload(&mut r)?;
        r.close()?;
        Ok(label)
    }
}

impl WireLabel for crate::AncestryLabel {
    const KIND: LabelKind = LabelKind::Ancestry;

    fn encode_payload(&self, w: &mut WireWriter) {
        w.write_word(self.pre as u64, 32);
        w.write_word(self.post as u64, 32);
    }

    fn decode_payload(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(crate::AncestryLabel {
            pre: r.read_word(32)? as u32,
            post: r.read_word(32)? as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AncestryLabel;

    #[test]
    fn writer_reader_roundtrip_mixed_widths() {
        let mut w = WireWriter::new();
        w.write_word(0b101, 3);
        w.write_bit(true);
        w.write_word(u64::MAX, 64);
        w.write_word(0xABCD, 16);
        let mut v = BitVec::zeros(77);
        v.set(0, true);
        v.set(76, true);
        w.write_len_bits(&v);
        let bytes = w.finish(LabelKind::Ancestry);
        let (kind, mut r) = WireReader::open(&bytes).unwrap();
        assert_eq!(kind, LabelKind::Ancestry);
        assert_eq!(r.read_word(3).unwrap(), 0b101);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_word(64).unwrap(), u64::MAX);
        assert_eq!(r.read_word(16).unwrap(), 0xABCD);
        assert_eq!(r.read_len_bits().unwrap(), v);
        r.close().unwrap();
    }

    #[test]
    fn ancestry_roundtrip() {
        let l = AncestryLabel {
            pre: 42,
            post: u32::MAX,
        };
        let bytes = l.to_wire();
        assert_eq!(AncestryLabel::from_wire(&bytes).unwrap(), l);
    }

    #[test]
    fn header_corruptions_rejected() {
        let l = AncestryLabel { pre: 1, post: 2 };
        let good = l.to_wire();
        assert!(AncestryLabel::from_wire(&good).is_ok());

        // Too short for a header at all.
        assert_eq!(
            AncestryLabel::from_wire(&good[..4]),
            Err(WireError::TooShort)
        );
        // Flipped magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(AncestryLabel::from_wire(&bad), Err(WireError::BadMagic));
        // Future version.
        let mut bad = good.clone();
        bad[2] = WIRE_VERSION + 1;
        assert_eq!(
            AncestryLabel::from_wire(&bad),
            Err(WireError::UnsupportedVersion(WIRE_VERSION + 1))
        );
        // Unknown kind byte.
        let mut bad = good.clone();
        bad[3] = 0xEE;
        assert_eq!(
            AncestryLabel::from_wire(&bad),
            Err(WireError::UnknownKind(0xEE))
        );
        // Truncated payload.
        assert_eq!(
            AncestryLabel::from_wire(&good[..good.len() - 1]),
            Err(WireError::LengthMismatch)
        );
        // Header bit length inflated past the actual bytes.
        let mut bad = good.clone();
        bad[4] = bad[4].wrapping_add(8);
        assert_eq!(
            AncestryLabel::from_wire(&bad),
            Err(WireError::LengthMismatch)
        );
    }

    #[test]
    fn wrong_kind_rejected() {
        struct Other(u32);
        impl WireLabel for Other {
            const KIND: LabelKind = LabelKind::Route;
            fn encode_payload(&self, w: &mut WireWriter) {
                w.write_word(self.0 as u64, 32);
            }
            fn decode_payload(r: &mut WireReader) -> Result<Self, WireError> {
                Ok(Other(r.read_word(32)? as u32))
            }
        }
        let bytes = Other(9).to_wire();
        assert_eq!(
            AncestryLabel::from_wire(&bytes),
            Err(WireError::WrongKind {
                expected: LabelKind::Ancestry,
                got: LabelKind::Route,
            })
        );
    }

    #[test]
    fn envelope_kinds_roundtrip_through_from_u8() {
        for kind in [
            LabelKind::QueryRequest,
            LabelKind::QueryResponse,
            LabelKind::MetricsRequest,
            LabelKind::MetricsResponse,
        ] {
            assert_eq!(LabelKind::from_u8(kind as u8), Some(kind));
        }
        // The gaps between the label kinds and the envelope kinds stay
        // unassigned.
        assert_eq!(LabelKind::from_u8(0x31), None);
        assert_eq!(LabelKind::from_u8(0x42), None);
        assert_eq!(LabelKind::from_u8(0x52), None);
    }

    #[test]
    fn dirty_padding_rejected() {
        let mut w = WireWriter::new();
        w.write_word(0b1, 3); // 3 payload bits -> 5 padding bits in the byte
        let mut bytes = w.finish(LabelKind::Ancestry);
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        assert!(matches!(
            WireReader::open(&bytes),
            Err(WireError::DirtyPadding)
        ));
    }

    #[test]
    fn trailing_bits_rejected() {
        // A payload longer than AncestryLabel's 64 bits decodes the label
        // but fails the exact-consumption check.
        let mut w = WireWriter::new();
        w.write_word(1, 32);
        w.write_word(2, 32);
        w.write_word(0, 7);
        let bytes = w.finish(LabelKind::Ancestry);
        assert_eq!(
            AncestryLabel::from_wire(&bytes),
            Err(WireError::TrailingBits)
        );
    }

    #[test]
    fn reads_past_end_rejected() {
        let mut w = WireWriter::new();
        w.write_word(7, 3);
        let bytes = w.finish(LabelKind::Ancestry);
        let (_, mut r) = WireReader::open(&bytes).unwrap();
        assert_eq!(r.read_word(4), Err(WireError::Truncated));
        assert_eq!(r.read_word(3).unwrap(), 7);
        assert_eq!(r.read_word(1), Err(WireError::Truncated));
    }

    #[test]
    fn read_wider_than_a_word_is_a_typed_error_that_consumes_nothing() {
        let mut w = WireWriter::new();
        w.write_word(u64::MAX, 64);
        w.write_word(0b1011, 4);
        let bytes = w.finish(LabelKind::Ancestry);
        let (_, mut r) = WireReader::open(&bytes).unwrap();
        assert_eq!(r.read_word(65), Err(WireError::ReadTooWide(65)));
        assert_eq!(r.remaining(), 68, "a rejected read leaves the position");
        assert_eq!(r.read_word(64).unwrap(), u64::MAX);
        assert_eq!(r.read_word(4).unwrap(), 0b1011);
        r.close().unwrap();
    }
}
