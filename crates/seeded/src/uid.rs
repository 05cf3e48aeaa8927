//! Unique edge identifiers (Lemma 3.8) and the XOR-validity test
//! (Lemma 3.10).
//!
//! The paper draws `O(log n)`-bit identifiers from an ε-bias space so that
//! the XOR of two or more identifiers is almost never itself a valid
//! identifier. We substitute a keyed 64-bit PRF (substitution S1 in the
//! README's "Substitutions"): the verification interface is identical —
//! given the seed `S_ID` and the claimed endpoint ids, recompute `UID(e)`
//! and compare — and the failure probability (2⁻⁶⁴ per check) dominates
//! the paper's `1/n^{10}` target.

use crate::prf::Seed;

/// A unique edge identifier: 64 pseudorandom bits determined by the seed and
/// the (unordered) endpoint pair.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct EdgeUid(pub u64);

/// The identifier space `I` of Lemma 3.8, determined by the seed `S_ID`.
///
/// ```
/// use ftl_seeded::{Seed, UidSpace};
/// let space = UidSpace::new(Seed::new(1));
/// let uid = space.uid(3, 7, 0);
/// assert_eq!(uid, space.uid(7, 3, 0)); // endpoint order does not matter
/// assert!(space.verify(3, 7, 0, uid));
/// assert!(!space.verify(3, 8, 0, uid));
/// ```
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct UidSpace {
    seed: Seed,
}

impl UidSpace {
    /// Creates the space from the seed `S_ID`.
    pub fn new(seed: Seed) -> Self {
        UidSpace { seed }
    }

    /// The seed, for storage inside labels.
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// `UID(e)` for the edge with endpoint ids `(u, v)` and multi-edge
    /// discriminator `copy` (0 for simple graphs; parallel edges get
    /// distinct copies so their UIDs differ).
    pub fn uid(&self, u: u32, v: u32, copy: u32) -> EdgeUid {
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        EdgeUid(self.seed.prf2(((lo as u64) << 32) | hi as u64, copy as u64))
    }

    /// Lemma 3.10's validity test: does `claimed` equal the UID of the edge
    /// `(u, v, copy)` under this seed?
    pub fn verify(&self, u: u32, v: u32, copy: u32, claimed: EdgeUid) -> bool {
        self.uid(u, v, copy) == claimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetHashSet;

    #[test]
    fn symmetric_in_endpoints() {
        let s = UidSpace::new(Seed::new(11));
        assert_eq!(s.uid(1, 2, 0), s.uid(2, 1, 0));
        assert_ne!(s.uid(1, 2, 0), s.uid(1, 2, 1));
        assert_ne!(s.uid(1, 2, 0), s.uid(1, 3, 0));
    }

    #[test]
    fn verify_accepts_only_the_right_edge() {
        let s = UidSpace::new(Seed::new(5));
        let uid = s.uid(10, 20, 0);
        assert!(s.verify(10, 20, 0, uid));
        assert!(s.verify(20, 10, 0, uid));
        assert!(!s.verify(10, 21, 0, uid));
        assert!(!s.verify(10, 20, 1, uid));
    }

    #[test]
    fn xor_of_two_uids_is_invalid() {
        // The core property of Lemma 3.8: XORs of >= 2 identifiers do not
        // verify as any edge's identifier.
        let s = UidSpace::new(Seed::new(123));
        let n = 40u32;
        let uids: Vec<((u32, u32), EdgeUid)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| ((u, v), ())))
            .map(|((u, v), _)| ((u, v), s.uid(u, v, 0)))
            .collect();
        for i in 0..50 {
            for j in (i + 1)..50 {
                let x = EdgeUid(uids[i].1 .0 ^ uids[j].1 .0);
                // The XOR should not verify as ANY edge of the graph.
                for &((u, v), _) in uids.iter().take(80) {
                    assert!(!s.verify(u, v, 0, x));
                }
            }
        }
    }

    #[test]
    fn uids_are_distinct_at_scale() {
        let s = UidSpace::new(Seed::new(7));
        let mut seen = DetHashSet::default();
        for u in 0..200u32 {
            for v in (u + 1)..200u32 {
                assert!(seen.insert(s.uid(u, v, 0)), "collision at ({u},{v})");
            }
        }
    }

    #[test]
    fn different_seeds_different_spaces() {
        let a = UidSpace::new(Seed::new(1));
        let b = UidSpace::new(Seed::new(2));
        assert_ne!(a.uid(1, 2, 0), b.uid(1, 2, 0));
    }
}
