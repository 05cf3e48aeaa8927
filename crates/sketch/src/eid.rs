//! Extended edge identifiers (Eq. (1), routing-augmented Eq. (5)).
//!
//! An `Eid` is the unit of information carried by sketch cells. It is
//! serialized to a fixed-width bit string so that the XOR of several
//! identifiers is well-defined field-wise; the distinguishing `UID`
//! (Lemma 3.8) lets a decoder test whether a cell's content is a *single*
//! edge identifier (Lemma 3.10).
//!
//! Layout (bit offsets within a cell of width `Eid::bits(aux_bits)`):
//!
//! | field      | bits            | content                                      |
//! |------------|-----------------|----------------------------------------------|
//! | `uid`      | 64              | PRF of the endpoint pair under `S_ID`        |
//! | `lo`, `hi` | 32 + 32         | endpoint ids, `lo <= hi`                     |
//! | `anc_lo`   | 64              | ancestry label of `lo` (packed)              |
//! | `anc_hi`   | 64              | ancestry label of `hi` (packed)              |
//! | `port_lo`  | 32              | port of the edge at `lo`                     |
//! | `port_hi`  | 32              | port of the edge at `hi`                     |
//! | `aux_lo`   | `aux_bits`      | caller payload for `lo` (tree routing label) |
//! | `aux_hi`   | `aux_bits`      | caller payload for `hi`                      |

use ftl_gf2::BitVec;
use ftl_labels::AncestryLabel;
use ftl_seeded::{EdgeUid, UidSpace};

const UID_BITS: usize = 64;
const ID_BITS: usize = 32;
const ANC_BITS: usize = 64;
const PORT_BITS: usize = 32;
/// Bits of the fixed (non-aux) part of an identifier.
pub const FIXED_BITS: usize = UID_BITS + 2 * ID_BITS + 2 * ANC_BITS + 2 * PORT_BITS;

/// An extended edge identifier `EID_T(e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eid {
    /// Distinguishing identifier `UID(e)` under `S_ID`.
    pub uid: EdgeUid,
    /// Lower endpoint id.
    pub lo: u32,
    /// Higher endpoint id.
    pub hi: u32,
    /// Ancestry label of `lo` in the spanning tree.
    pub anc_lo: AncestryLabel,
    /// Ancestry label of `hi`.
    pub anc_hi: AncestryLabel,
    /// Port number of this edge at `lo` (Eq. (5); 0 when unused).
    pub port_lo: u32,
    /// Port number of this edge at `hi`.
    pub port_hi: u32,
    /// Auxiliary per-endpoint payload for `lo` (tree-routing label bits in
    /// the routing schemes; empty otherwise).
    pub aux_lo: BitVec,
    /// Auxiliary payload for `hi`.
    pub aux_hi: BitVec,
}

impl Eid {
    /// Total serialized width for a given aux payload width.
    pub fn bits(aux_bits: usize) -> usize {
        FIXED_BITS + 2 * aux_bits
    }

    /// Serializes to the fixed-width cell representation.
    ///
    /// The fixed fields are word-aligned (see the module-level layout
    /// table), so the serializer writes five whole words instead of 320
    /// individual bits — this runs once per edge inside the labeling sweep
    /// and used to dominate it.
    pub fn to_bits(&self) -> BitVec {
        let mut v = BitVec::zeros(Eid::bits(self.aux_lo.len()));
        self.write_words(v.words_mut());
        v
    }

    /// [`Eid::to_bits`] into a caller-owned **zeroed** word slice of
    /// exactly `Eid::bits(aux_bits).div_ceil(64)` words — how the labeling
    /// sweep serializes straight into its contiguous identifier bank
    /// without a per-edge allocation.
    ///
    /// # Panics
    ///
    /// Panics if `out` is too short.
    pub fn write_words(&self, out: &mut [u64]) {
        let aux_bits = self.aux_lo.len();
        debug_assert_eq!(self.aux_hi.len(), aux_bits);
        debug_assert!(out.iter().all(|&w| w == 0), "output not zeroed");
        out[0] = self.uid.0;
        out[1] = self.lo as u64 | ((self.hi as u64) << 32);
        out[2] = self.anc_lo.pack();
        out[3] = self.anc_hi.pack();
        out[4] = self.port_lo as u64 | ((self.port_hi as u64) << 32);
        // FIXED_BITS = 320 is a word boundary; the aux payloads are the only
        // unaligned fields and go through the word-shifting OR.
        or_shifted_words(out, self.aux_lo.words(), FIXED_BITS);
        or_shifted_words(out, self.aux_hi.words(), FIXED_BITS + aux_bits);
    }

    /// Deserializes a cell; the inverse of [`Eid::to_bits`].
    ///
    /// # Panics
    ///
    /// Panics if the cell width is inconsistent with an aux payload.
    pub fn from_bits(cell: &BitVec) -> Eid {
        assert!(cell.len() >= FIXED_BITS, "cell too small for an Eid");
        let aux_bits = (cell.len() - FIXED_BITS) / 2;
        assert_eq!(FIXED_BITS + 2 * aux_bits, cell.len(), "odd aux width");
        let w = cell.words();
        Eid {
            uid: EdgeUid(w[0]),
            lo: w[1] as u32,
            hi: (w[1] >> 32) as u32,
            anc_lo: AncestryLabel::unpack(w[2]),
            anc_hi: AncestryLabel::unpack(w[3]),
            port_lo: w[4] as u32,
            port_hi: (w[4] >> 32) as u32,
            aux_lo: cell.slice(FIXED_BITS, FIXED_BITS + aux_bits),
            aux_hi: cell.slice(FIXED_BITS + aux_bits, cell.len()),
        }
    }

    /// Lemma 3.10: whether this (possibly XOR-mangled) identifier is the
    /// valid identifier of a single edge — verified by recomputing the UID of
    /// the claimed endpoint pair under `S_ID`. Parallel edges carry distinct
    /// copy discriminators, so validation scans `0..max_copies`.
    pub fn validate(&self, sid: &UidSpace, max_copies: u32) -> bool {
        self.lo <= self.hi
            && (0..max_copies.max(1)).any(|c| sid.verify(self.lo, self.hi, c, self.uid))
    }

    /// The 64-bit key used to hash this edge into sketch sampling levels.
    pub fn sampling_key(&self) -> u64 {
        self.uid.0
    }
}

/// ORs `src`'s bits into `out` starting at bit `offset`, for serializing
/// into arena windows.
/// `src`'s tail bits (past its logical length) must be zero, which
/// `BitVec::words` guarantees.
fn or_shifted_words(out: &mut [u64], src: &[u64], offset: usize) {
    let base = offset / 64;
    let shift = offset % 64;
    for (i, &w) in src.iter().enumerate() {
        if shift == 0 {
            out[base + i] |= w;
        } else {
            out[base + i] |= w << shift;
            if base + i + 1 < out.len() {
                out[base + i + 1] |= w >> (64 - shift);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_seeded::Seed;

    fn sample_eid(aux_bits: usize) -> (Eid, UidSpace) {
        let sid = UidSpace::new(Seed::new(5));
        let mut aux_lo = BitVec::zeros(aux_bits);
        let mut aux_hi = BitVec::zeros(aux_bits);
        if aux_bits > 2 {
            aux_lo.set(1, true);
            aux_hi.set(2, true);
        }
        (
            Eid {
                uid: sid.uid(3, 9, 0),
                lo: 3,
                hi: 9,
                anc_lo: AncestryLabel { pre: 4, post: 11 },
                anc_hi: AncestryLabel { pre: 5, post: 6 },
                port_lo: 2,
                port_hi: 0,
                aux_lo,
                aux_hi,
            },
            sid,
        )
    }

    #[test]
    fn roundtrip_no_aux() {
        let (eid, _) = sample_eid(0);
        let bits = eid.to_bits();
        assert_eq!(bits.len(), FIXED_BITS);
        assert_eq!(Eid::from_bits(&bits), eid);
    }

    #[test]
    fn roundtrip_with_aux() {
        let (eid, _) = sample_eid(17);
        let bits = eid.to_bits();
        assert_eq!(bits.len(), FIXED_BITS + 34);
        assert_eq!(Eid::from_bits(&bits), eid);
    }

    #[test]
    fn validation_accepts_genuine() {
        let (eid, sid) = sample_eid(4);
        assert!(eid.validate(&sid, 1));
    }

    #[test]
    fn validation_rejects_xor_of_two() {
        let sid = UidSpace::new(Seed::new(5));
        let mk = |lo: u32, hi: u32| Eid {
            uid: sid.uid(lo, hi, 0),
            lo,
            hi,
            anc_lo: AncestryLabel { pre: 1, post: 2 },
            anc_hi: AncestryLabel { pre: 3, post: 4 },
            port_lo: 0,
            port_hi: 0,
            aux_lo: BitVec::zeros(0),
            aux_hi: BitVec::zeros(0),
        };
        let a = mk(1, 2).to_bits();
        let b = mk(3, 4).to_bits();
        let x = &a ^ &b;
        assert!(!Eid::from_bits(&x).validate(&sid, 1));
        // XOR of three is also invalid.
        let c = mk(5, 6).to_bits();
        let y = &x ^ &c;
        assert!(!Eid::from_bits(&y).validate(&sid, 1));
    }

    #[test]
    fn zero_cell_is_invalid() {
        let sid = UidSpace::new(Seed::new(1));
        let zero = BitVec::zeros(FIXED_BITS);
        assert!(!Eid::from_bits(&zero).validate(&sid, 1));
    }

    #[test]
    fn sampling_key_is_uid() {
        let (eid, _) = sample_eid(0);
        assert_eq!(eid.sampling_key(), eid.uid.0);
    }

    #[test]
    #[should_panic]
    fn undersized_cell_rejected() {
        Eid::from_bits(&BitVec::zeros(10));
    }
}
