//! Splittable seeds and a SplitMix64-based keyed PRF.

/// A 64-bit random seed.
///
/// Seeds are value types that can be `derive`d into independent-looking
/// sub-seeds: the labeling schemes hand one master seed to a labeling run
/// and derive per-purpose seeds (`S_ID`, `S_h`, one per sketch copy, ...)
/// with domain-separation tags.
///
/// ```
/// use ftl_seeded::Seed;
/// let s = Seed::new(42);
/// assert_ne!(s.derive(0), s.derive(1));
/// assert_eq!(s.derive(7), s.derive(7)); // deterministic
/// ```
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Seed(u64);

impl Seed {
    /// Wraps a raw 64-bit seed value.
    pub fn new(value: u64) -> Self {
        Seed(value)
    }

    /// Raw value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Derives a sub-seed for the given domain-separation tag.
    pub fn derive(self, tag: u64) -> Seed {
        Seed(mix2(self.0, tag ^ 0xA076_1D64_78BD_642F))
    }

    /// PRF evaluation on one word.
    pub fn prf1(self, x: u64) -> u64 {
        mix2(self.0, x)
    }

    /// PRF evaluation on two words.
    pub fn prf2(self, x: u64, y: u64) -> u64 {
        mix2(mix2(self.0, x), y)
    }

    /// An infinite word stream keyed by this seed (counter mode); handy for
    /// filling random bit vectors deterministically.
    pub fn stream(self) -> impl FnMut() -> u64 {
        let key = self.0;
        let mut counter = 0u64;
        move || {
            counter += 1;
            mix2(key, counter)
        }
    }
}

/// SplitMix64 finalizer — the workspace's one canonical mixing primitive
/// (the engine's shard router and fault-set hashing reuse it rather than
/// carrying their own constants).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a key and one input word through two SplitMix rounds.
#[inline]
fn mix2(key: u64, x: u64) -> u64 {
    splitmix64(splitmix64(key ^ x.rotate_left(32)).wrapping_add(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetHashSet;

    #[test]
    fn deterministic() {
        let s = Seed::new(99);
        assert_eq!(s.prf1(5), s.prf1(5));
        assert_eq!(s.prf2(1, 2), s.prf2(1, 2));
        assert_eq!(s.derive(3), s.derive(3));
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        let s = Seed::new(1);
        let outs: DetHashSet<u64> = (0..10_000).map(|i| s.prf1(i)).collect();
        assert_eq!(outs.len(), 10_000, "no collisions expected at this scale");
    }

    #[test]
    fn prf2_is_order_sensitive() {
        let s = Seed::new(7);
        assert_ne!(s.prf2(1, 2), s.prf2(2, 1));
    }

    #[test]
    fn derive_separates_domains() {
        let s = Seed::new(0);
        let tags: DetHashSet<u64> = (0..1000).map(|t| s.derive(t).value()).collect();
        assert_eq!(tags.len(), 1000);
        // derived seeds give different streams
        assert_ne!(s.derive(0).prf1(1), s.derive(1).prf1(1));
    }

    #[test]
    fn stream_produces_spread_words() {
        let mut st = Seed::new(5).stream();
        let words: Vec<u64> = (0..64).map(|_| st()).collect();
        let total_ones: u32 = words.iter().map(|w| w.count_ones()).sum();
        // Expect roughly half the bits set: 64*64/2 = 2048, allow wide slack.
        assert!(total_ones > 1500 && total_ones < 2600, "{total_ones}");
    }

    #[test]
    fn different_keys_different_streams() {
        let mut a = Seed::new(1).stream();
        let mut b = Seed::new(2).stream();
        assert_ne!(a(), b());
    }
}
