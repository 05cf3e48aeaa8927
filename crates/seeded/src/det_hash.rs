//! Deterministic hashing for label and store collections.
//!
//! `std`'s default `HashMap`/`HashSet` hasher is randomly keyed per
//! process, so iteration order — and therefore anything derived from it
//! (build order, cache eviction order, debug dumps) — varies run to run.
//! Label and store code is required to be reproducible end to end
//! (the whole construction re-derives randomness from explicit [`Seed`]s),
//! so collections there use [`DetHashMap`]/[`DetHashSet`] instead: the
//! same SplitMix64 mixing fault-set hashing already relies on, with a
//! fixed key.
//!
//! `clippy.toml` enforces this: it disallows `std::collections::HashMap`,
//! `HashSet` and `RandomState` workspace-wide, and this module carries
//! the one `allow`.
//!
//! [`DetHashMap`] is also the serving path's panic-free lookup: it is a
//! newtype without `Index`, so `map[&k]` (which panics on a missing key)
//! does not compile and every lookup is a `get`. `DetHashSet` stays a
//! plain alias, since `HashSet` has no `Index`. `BTreeMap`, the only other
//! std map with `Index<&Q>`, is used nowhere in the workspace.
//!
//! Determinism, not DoS resistance: keys here are internal ids, never
//! attacker-controlled strings, so a keyed-but-fixed hasher is the right
//! trade.
//!
//! [`Seed`]: crate::Seed

// The one blessed spelling of std's hash collections in the workspace:
// this module wraps them behind a deterministic hasher.
#![allow(clippy::disallowed_types)]

use crate::splitmix64;
use std::borrow::Borrow;
use std::collections::hash_map::{self, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

/// A `HashMap` with the deterministic SplitMix64 hasher, and no `Index`.
///
/// It forwards only the lookups that cannot panic. It implements neither
/// `Index` nor `Deref` (indexing auto-derefs, so `Deref` would bring
/// `map[&k]` back):
///
/// ```compile_fail,E0608
/// let mut m = ftl_seeded::DetHashMap::default();
/// m.insert(1u64, 2u32);
/// let v = m[&1];
/// ```
#[derive(Debug, Clone)]
pub struct DetHashMap<K, V>(HashMap<K, V, DetBuildHasher>);

impl<K, V> Default for DetHashMap<K, V> {
    #[inline]
    fn default() -> Self {
        DetHashMap(HashMap::default())
    }
}

impl<K, V> DetHashMap<K, V> {
    /// An empty map with room for `capacity` entries.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        DetHashMap(HashMap::with_capacity_and_hasher(capacity, DetBuildHasher))
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The entries, in the hasher's (run-independent) order.
    #[inline]
    pub fn iter(&self) -> hash_map::Iter<'_, K, V> {
        self.0.iter()
    }

    /// The keys, in [`iter`](DetHashMap::iter) order.
    #[inline]
    pub fn keys(&self) -> hash_map::Keys<'_, K, V> {
        self.0.keys()
    }

    /// The values, in [`iter`](DetHashMap::iter) order.
    #[inline]
    pub fn values(&self) -> hash_map::Values<'_, K, V> {
        self.0.values()
    }
}

impl<K: Eq + Hash, V> DetHashMap<K, V> {
    /// The value under `k`, if any.
    #[inline]
    pub fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.get(k)
    }

    /// Whether `k` has a value.
    #[inline]
    pub fn contains_key<Q>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.contains_key(k)
    }

    /// Sets `k` to `v`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Removes `k`, returning its value.
    #[inline]
    pub fn remove<Q>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.remove(k)
    }

    /// The entry of `k`, for in-place insert-or-update.
    #[inline]
    pub fn entry(&mut self, k: K) -> Entry<'_, K, V> {
        self.0.entry(k)
    }
}

impl<K, V> IntoIterator for DetHashMap<K, V> {
    type Item = (K, V);
    type IntoIter = hash_map::IntoIter<K, V>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// A `HashSet` with the deterministic SplitMix64 hasher.
pub type DetHashSet<T> = HashSet<T, DetBuildHasher>;

/// `BuildHasher` producing [`DetHasher`]s with a fixed key — every process,
/// every run, the same hash function.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DetBuildHasher;

impl BuildHasher for DetBuildHasher {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        // An arbitrary non-zero key (π's fractional bits) so the all-zero
        // input does not hash to the SplitMix64 fixed trajectory of 0.
        DetHasher {
            state: 0x243F_6A88_85A3_08D3,
        }
    }
}

/// A streaming SplitMix64 absorber: each written word is mixed into the
/// running state, matching the canonical-fault-hash construction.
#[derive(Debug, Clone, Copy)]
pub struct DetHasher {
    state: u64,
}

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Absorb 8 bytes at a time, then the (length-tagged) tail, so
        // distinct byte strings with shared prefixes stay distinct.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.state = splitmix64(self.state ^ u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            let tagged = u64::from_le_bytes(w) ^ ((rem.len() as u64) << 56);
            self.state = splitmix64(self.state ^ tagged);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.state = splitmix64(self.state ^ i);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        DetBuildHasher.hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"label"), hash_of(&"label"));
        let a = DetBuildHasher.build_hasher().finish();
        let b = <DetBuildHasher as Default>::default()
            .build_hasher()
            .finish();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_inputs_spread() {
        let outs: DetHashSet<u64> = (0..10_000u64).map(|i| hash_of(&i)).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn shared_prefixes_stay_distinct() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
        assert_ne!(hash_of(&[0u8; 7][..]), hash_of(&[0u8; 8][..]));
    }

    #[test]
    fn map_iteration_order_is_stable() {
        let build = |n: u64| {
            let mut m = DetHashMap::default();
            for i in 0..n {
                m.insert(i * 0x9E37_79B9, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(500), build(500));
    }
}
