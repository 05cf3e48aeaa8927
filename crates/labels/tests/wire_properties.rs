//! Property tests for the wire-format primitives: writer/reader round-trips
//! at arbitrary bit granularities, and header-corruption rejection.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::print_stdout
)]
use ftl_gf2::BitVec;
use ftl_labels::wire::{WireReader, WireWriter, HEADER_BYTES};
use ftl_labels::{AncestryLabel, LabelKind, WireLabel};
use proptest::prelude::*;

proptest! {
    /// Any sequence of (value, width) writes reads back exactly.
    #[test]
    fn writes_read_back(fields in proptest::collection::vec((any::<u64>(), 1usize..=64), 0..40)) {
        let mut w = WireWriter::new();
        let mut expected = Vec::new();
        for &(raw, width) in &fields {
            let value = if width == 64 { raw } else { raw & ((1u64 << width) - 1) };
            w.write_word(value, width);
            expected.push((value, width));
        }
        let bytes = w.finish(LabelKind::Ancestry);
        let (kind, mut r) = WireReader::open(&bytes).unwrap();
        prop_assert_eq!(kind, LabelKind::Ancestry);
        for &(value, width) in &expected {
            prop_assert_eq!(r.read_word(width).unwrap(), value);
        }
        r.close().unwrap();
    }

    /// Length-prefixed bit vectors round-trip at any length and offset.
    #[test]
    fn len_bits_roundtrip(offset in 0usize..70, bits in proptest::collection::vec(any::<bool>(), 0..200)) {
        let v = BitVec::from_bits(&bits);
        let mut w = WireWriter::new();
        w.write_word(0, offset.min(64));
        w.write_len_bits(&v);
        let bytes = w.finish(LabelKind::CycleSpaceEdge);
        let (_, mut r) = WireReader::open(&bytes).unwrap();
        r.read_word(offset.min(64)).unwrap();
        prop_assert_eq!(r.read_len_bits().unwrap(), v);
        r.close().unwrap();
    }

    /// Ancestry labels round-trip for all field values.
    #[test]
    fn ancestry_roundtrip(pre in any::<u32>(), post in any::<u32>()) {
        let l = AncestryLabel { pre, post };
        prop_assert_eq!(AncestryLabel::from_wire(&l.to_wire()).unwrap(), l);
    }

    /// Flipping any single bit of the header makes decoding fail — no
    /// corrupted header is ever accepted.
    #[test]
    fn corrupted_header_always_rejected(pre in any::<u32>(), post in any::<u32>(), bit in 0usize..(HEADER_BYTES * 8)) {
        let l = AncestryLabel { pre, post };
        let mut bytes = l.to_wire();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(AncestryLabel::from_wire(&bytes).is_err());
    }

    /// Truncating a record anywhere makes decoding fail.
    #[test]
    fn truncation_always_rejected(pre in any::<u32>(), post in any::<u32>(), cut in 0usize..16) {
        let l = AncestryLabel { pre, post };
        let bytes = l.to_wire();
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(AncestryLabel::from_wire(&bytes[..cut]).is_err());
    }

    /// A header that declares more payload bits than the buffer carries
    /// ("the length field lies") is rejected with an error, never a panic
    /// or an out-of-bounds read.
    #[test]
    fn oversized_declared_bits_rejected(pre in any::<u32>(), post in any::<u32>(), extra in 1u32..100_000) {
        let mut bytes = AncestryLabel { pre, post }.to_wire();
        inflate_declared_bits(&mut bytes, extra);
        prop_assert!(AncestryLabel::from_wire(&bytes).is_err());
    }

    /// Arbitrary multi-byte corruption anywhere in a record never panics:
    /// decoding either cleanly fails or returns some label.
    #[test]
    fn random_corruption_never_panics(
        pre in any::<u32>(),
        post in any::<u32>(),
        hits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..12),
    ) {
        let mut bytes = AncestryLabel { pre, post }.to_wire();
        for &(pos, val) in &hits {
            let i = pos as usize % bytes.len();
            bytes[i] = val;
        }
        let _ = AncestryLabel::from_wire(&bytes);
    }
}

/// Patches the declared payload bit-length (LE u32 at bytes 4..8) upward
/// without growing the buffer.
fn inflate_declared_bits(bytes: &mut [u8], extra: u32) {
    assert!(bytes.len() >= HEADER_BYTES);
    let declared = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    bytes[4..8].copy_from_slice(&declared.saturating_add(extra).to_le_bytes());
}
