//! A compact LRU cache for eliminated fault-set bases.
//!
//! Keys are 64-bit canonical fault-set hashes; values are whatever the
//! caller caches (the engine stores `Arc<EliminatedFaultSet>`). Entries
//! live in a `Vec`-backed intrusive doubly-linked list — no per-entry
//! allocation, O(1) hit/insert/evict — and the cache tracks hit/miss
//! counters for the engine's batch statistics.

use ftl_seeded::DetHashMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map from `u64` keys to `V`.
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    // Deterministically hashed: eviction order must not vary with std's
    // per-process hasher key.
    map: DetHashMap<u64, usize>,
    nodes: Vec<Node<V>>,
    head: usize,
    tail: usize,
    hits: u64,
    misses: u64,
}

impl<V> LruCache<V> {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: DetHashMap::with_capacity_and_hasher(capacity, ftl_seeded::DetBuildHasher),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found their key.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that did not.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    // Slot indices come from `map` and the list links, so every lookup
    // below finds its node; `NIL` (usize::MAX) is never a valid index, so
    // `nodes.get(NIL)` is the list's end.
    fn unlink(&mut self, i: usize) {
        let Some(node) = self.nodes.get(i) else {
            return;
        };
        let (prev, next) = (node.prev, node.next);
        match self.nodes.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.nodes.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let head = self.head;
        let Some(node) = self.nodes.get_mut(i) else {
            return;
        };
        node.prev = NIL;
        node.next = head;
        if let Some(h) = self.nodes.get_mut(head) {
            h.prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Moves slot `i` to the most-recently-used end.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Fetches `key`, marking it most-recently used.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        match self.map.get(&key).copied() {
            None => {
                self.misses += 1;
                None
            }
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                self.nodes.get(i).map(|n| &n.value)
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// if the cache is full. The new entry is most-recently used.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            if let Some(node) = self.nodes.get_mut(i) {
                node.value = value;
            }
            self.touch(i);
            return;
        }
        let slot = if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let Some(node) = self.nodes.get_mut(victim) else {
                return;
            };
            self.map.remove(&node.key);
            node.key = key;
            node.value = value;
            victim
        } else {
            self.nodes.push(Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Keys from most- to least-recently used, by walking the list.
    fn order<V>(c: &LruCache<V>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = c.head;
        while i != NIL {
            out.push(c.nodes[i].key);
            i = c.nodes[i].next;
        }
        out
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(order(&c), vec![3, 2, 1]);
        // Touch 1: now 2 is the LRU.
        assert_eq!(c.get(1), Some(&"a"));
        c.insert(4, "d");
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2), None, "2 must have been evicted");
        assert_eq!(c.get(1), Some(&"a"));
        assert_eq!(c.get(3), Some(&"c"));
        assert_eq!(c.get(4), Some(&"d"));
    }

    #[test]
    fn replace_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(order(&c), vec![1, 2]);
        assert_eq!(c.get(1), Some(&11));
        c.insert(3, 30);
        assert_eq!(c.get(2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = LruCache::new(2);
        assert_eq!(c.get(9), None);
        c.insert(9, ());
        assert!(c.get(9).is_some());
        assert!(c.get(9).is_some());
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        c.insert(1, 1);
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn single_slot_cache() {
        let mut c = LruCache::new(1);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(&"b"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000u64 {
            c.insert(i % 13, i);
            let _ = c.get((i * 7) % 13);
            assert!(c.len() <= 8);
        }
        // Every cached key must resolve to the latest value written to it.
        let keys = order(&c);
        assert_eq!(keys.len(), c.len());
        for &k in &keys {
            let v = *c.get(k).unwrap();
            assert_eq!(v % 13, k);
        }
    }

    /// The obviously-correct reference: a `Vec` of `(key, value)` pairs
    /// ordered from most- to least-recently used.
    struct ModelLru {
        capacity: usize,
        entries: Vec<(u64, u32)>,
        hits: u64,
        misses: u64,
    }

    impl ModelLru {
        fn get(&mut self, key: u64) -> Option<u32> {
            match self.entries.iter().position(|&(k, _)| k == key) {
                None => {
                    self.misses += 1;
                    None
                }
                Some(i) => {
                    self.hits += 1;
                    let entry = self.entries.remove(i);
                    self.entries.insert(0, entry);
                    Some(entry.1)
                }
            }
        }

        /// Returns the evicted key, if any.
        fn insert(&mut self, key: u64, value: u32) -> Option<u64> {
            if self.capacity == 0 {
                return None;
            }
            if let Some(i) = self.entries.iter().position(|&(k, _)| k == key) {
                self.entries.remove(i);
                self.entries.insert(0, (key, value));
                return None;
            }
            let evicted = (self.entries.len() == self.capacity)
                .then(|| self.entries.pop().map(|(k, _)| k))
                .flatten();
            self.entries.insert(0, (key, value));
            evicted
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random `get`/`insert` sequences over a small key space (so hits,
        /// replacements and evictions all occur) agree with the model on
        /// every returned value, `len`, the counters and the eviction
        /// order, at capacities 0, 1, 2 and 64.
        #[test]
        fn matches_a_naive_vec_lru(
            cap_pick in 0usize..4,
            ops in proptest::collection::vec((any::<bool>(), 0u64..80, any::<u32>()), 0usize..400),
        ) {
            let capacity = [0, 1, 2, 64][cap_pick];
            let mut lru = LruCache::new(capacity);
            let mut model = ModelLru { capacity, entries: Vec::new(), hits: 0, misses: 0 };
            for (is_get, key, value) in ops {
                if is_get {
                    prop_assert_eq!(lru.get(key).copied(), model.get(key));
                } else {
                    let before = order(&lru);
                    let evicted = model.insert(key, value);
                    lru.insert(key, value);
                    let after = order(&lru);
                    let gone: Vec<u64> = before.into_iter().filter(|k| !after.contains(k)).collect();
                    prop_assert_eq!(gone, evicted.into_iter().collect::<Vec<_>>());
                }
                let model_order: Vec<u64> = model.entries.iter().map(|&(k, _)| k).collect();
                prop_assert_eq!(order(&lru), model_order);
                prop_assert_eq!(lru.len(), model.entries.len());
                prop_assert_eq!(lru.hits(), model.hits);
                prop_assert_eq!(lru.misses(), model.misses);
            }
        }
    }
}
