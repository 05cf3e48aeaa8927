//! The sharded label store: wire-encoded labels held off-struct, hash-
//! sharded by id, with a lock-free read path.
//!
//! The store follows a build-then-freeze lifecycle: a
//! [`LabelStoreBuilder`] routes encoded records to shards (any thread
//! layout — the builder is plain owned data), and [`freeze`] seals them
//! into an immutable [`LabelStore`]. After the freeze every read is a pure
//! `&self` lookup into that shard's index — no locks, no atomics, so
//! arbitrarily many query threads can share one store behind an `Arc`.
//!
//! Records live in one contiguous byte arena per shard (id → offset range),
//! keeping the resident footprint at the wire-format size rather than the
//! in-memory struct size.
//!
//! [`freeze`]: LabelStoreBuilder::freeze

use ftl_cycle_space::{CycleSpaceEdgeLabel, CycleSpaceVertexLabel};
use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::{WireError, WireLabel};
use ftl_labels::AncestryLabel;
use ftl_seeded::DetHashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic source of store identities. Every freeze — full or delta —
/// mints a fresh uid, so two stores with equal content but
/// different provenance (and possibly different `φ` banks) never compare
/// equal by identity. The engine's elimination cache keys on this to stay
/// epoch-correct.
static NEXT_STORE_UID: AtomicU64 = AtomicU64::new(1);

fn fresh_store_uid() -> u64 {
    NEXT_STORE_UID.fetch_add(1, Ordering::Relaxed)
}

/// Which id space a record belongs to.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum Namespace {
    /// Vertex labels, keyed by vertex id.
    Vertex,
    /// Edge labels, keyed by edge id.
    Edge,
}

/// A store key: namespace plus 32-bit id.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// The id space.
    pub ns: Namespace,
    /// The id within it.
    pub id: u32,
}

impl StoreKey {
    /// The key of a vertex record.
    pub fn vertex(v: VertexId) -> Self {
        StoreKey {
            ns: Namespace::Vertex,
            id: v.raw(),
        }
    }

    /// The key of an edge record.
    pub fn edge(e: EdgeId) -> Self {
        StoreKey {
            ns: Namespace::Edge,
            id: e.index() as u32,
        }
    }

    /// SplitMix64 finalizer over the packed key — the shard router.
    fn hash(self) -> u64 {
        let ns_bit = match self.ns {
            Namespace::Vertex => 0u64,
            Namespace::Edge => 1u64 << 32,
        };
        ftl_seeded::splitmix64(self.id as u64 | ns_bit)
    }
}

/// Why a typed store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No record under that key.
    Missing(StoreKey),
    /// The stored bytes failed wire decoding.
    Wire(WireError),
    /// Writing this record would push its shard's byte arena past the
    /// `u32` offset space of the index. The store is unchanged; callers
    /// should rebuild with more shards.
    ArenaOverflow {
        /// The key whose record did not fit.
        key: StoreKey,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing(k) => write!(f, "no record for {k:?}"),
            StoreError::Wire(e) => write!(f, "stored record corrupt: {e}"),
            StoreError::ArenaOverflow { key } => write!(
                f,
                "record for {key:?} would overflow its shard's u32 arena offsets; \
                 raise num_shards"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

#[derive(Debug, Default, Clone)]
struct Shard {
    /// Key → byte range into `bytes`. Deterministic hasher: iteration
    /// order feeds the sidecar build, which must be reproducible run to
    /// run (FTL004).
    index: DetHashMap<StoreKey, (u32, u32)>,
    /// All records of this shard, back to back.
    bytes: Vec<u8>,
}

impl Shard {
    fn put(&mut self, key: StoreKey, record: &[u8]) -> Result<(), StoreError> {
        // Offsets are u32 to keep the index small; surface a typed error
        // rather than wrap once a shard's arena outgrows that (add shards
        // instead). The *end* offset must fit too, or the record would be
        // stored but unreadable.
        let start = u32::try_from(self.bytes.len())
            .ok()
            .filter(|_| u32::try_from(self.bytes.len() + record.len()).is_ok())
            .ok_or(StoreError::ArenaOverflow { key })?;
        self.bytes.extend_from_slice(record);
        self.index.insert(key, (start, record.len() as u32));
        Ok(())
    }

    fn get(&self, key: StoreKey) -> Option<&[u8]> {
        let &(start, len) = self.index.get(&key)?;
        Some(&self.bytes[start as usize..start as usize + len as usize])
    }
}

/// Mutable staging area for a [`LabelStore`].
#[derive(Debug)]
pub struct LabelStoreBuilder {
    shards: Vec<Shard>,
}

impl LabelStoreBuilder {
    /// A builder with `num_shards` shards (minimum 1).
    pub fn new(num_shards: usize) -> Self {
        let n = num_shards.max(1);
        LabelStoreBuilder {
            shards: (0..n).map(|_| Shard::default()).collect(),
        }
    }

    fn shard_of(&self, key: StoreKey) -> usize {
        (key.hash() % self.shards.len() as u64) as usize
    }

    /// Stores raw wire bytes under a key (overwrites an earlier record for
    /// the same key; its bytes are retained in the arena but unreachable).
    ///
    /// # Errors
    ///
    /// [`StoreError::ArenaOverflow`] if the record would push its shard's
    /// arena past `u32` offsets; the builder is unchanged.
    pub fn put_bytes(&mut self, key: StoreKey, record: &[u8]) -> Result<(), StoreError> {
        let s = self.shard_of(key);
        self.shards[s].put(key, record)
    }

    /// Encodes and stores a vertex label.
    ///
    /// # Errors
    ///
    /// Same failure mode as [`LabelStoreBuilder::put_bytes`].
    pub fn put_vertex_label<L: WireLabel>(
        &mut self,
        v: VertexId,
        label: &L,
    ) -> Result<(), StoreError> {
        self.put_bytes(StoreKey::vertex(v), &label.to_wire())
    }

    /// Encodes and stores an edge label.
    ///
    /// # Errors
    ///
    /// Same failure mode as [`LabelStoreBuilder::put_bytes`].
    pub fn put_edge_label<L: WireLabel>(&mut self, e: EdgeId, label: &L) -> Result<(), StoreError> {
        self.put_bytes(StoreKey::edge(e), &label.to_wire())
    }

    /// Seals the shards into an immutable, lock-free-readable store and
    /// materializes the [`DecodedSidecar`]: every record the sidecar
    /// understands is decoded **once, here**, so the serving hot path never
    /// touches a `WireReader` again.
    pub fn freeze(self) -> LabelStore {
        let shards: Vec<Arc<Shard>> = self.shards.into_iter().map(Arc::new).collect();
        let sidecar = DecodedSidecar::build(&shards);
        LabelStore {
            shards: shards.into_boxed_slice(),
            sidecar,
            uid: fresh_store_uid(),
        }
    }
}

/// The frozen, shareable label store. See the module docs for the
/// concurrency story.
#[derive(Debug)]
pub struct LabelStore {
    /// Shards are individually reference-counted so a delta-freeze can
    /// splice the untouched ones from the previous epoch at zero copy
    /// cost.
    shards: Box<[Arc<Shard>]>,
    sidecar: DecodedSidecar,
    /// Process-unique identity of this frozen snapshot (see
    /// [`LabelStore::uid`]).
    uid: u64,
}

impl LabelStore {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Process-unique identity of this frozen snapshot. Two stores never
    /// share a uid, even across delta-freezes of the same lineage —
    /// anything derived from label *contents* (e.g. a cached elimination
    /// basis) must be keyed or guarded by it.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Freezes a **successor snapshot**: applies `removals` then `upserts`
    /// on top of this store, deep-copying only the shards that one of the
    /// touched keys routes to and splicing every other shard from `self`
    /// by reference. The sidecar is patched in place when every upsert is
    /// placeable (dense cycle-space records of matching `φ` width) and
    /// rebuilt from the new shards otherwise.
    ///
    /// The successor has a fresh [`uid`](LabelStore::uid); `self` is
    /// untouched and keeps serving readers.
    ///
    /// # Errors
    ///
    /// [`StoreError::ArenaOverflow`] if an upsert would push its shard's
    /// arena past `u32` offsets; `self` keeps serving unchanged.
    pub fn delta_freeze(
        &self,
        upserts: &[(StoreKey, Vec<u8>)],
        removals: &[StoreKey],
    ) -> Result<Self, StoreError> {
        let n = self.shards.len() as u64;
        let mut touched = vec![false; self.shards.len()];
        for key in removals {
            touched[(key.hash() % n) as usize] = true;
        }
        for (key, _) in upserts {
            touched[(key.hash() % n) as usize] = true;
        }
        let mut shards: Vec<Arc<Shard>> = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            if !touched[i] {
                shards.push(Arc::clone(shard));
                continue;
            }
            let mut fresh = Shard::clone(shard);
            for key in removals {
                if (key.hash() % n) as usize == i {
                    // Bytes stay in the arena, dead; only the index entry
                    // goes. Churn-heavy lineages should rebuild
                    // periodically to reclaim them.
                    fresh.index.remove(key);
                }
            }
            for (key, record) in upserts {
                if (key.hash() % n) as usize == i {
                    fresh.put(*key, record)?;
                }
            }
            shards.push(Arc::new(fresh));
        }
        let sidecar = DecodedSidecar::delta(&self.sidecar, upserts, removals)
            .unwrap_or_else(|| DecodedSidecar::build(&shards));
        Ok(LabelStore {
            shards: shards.into_boxed_slice(),
            sidecar,
            uid: fresh_store_uid(),
        })
    }

    /// Whether shard `i` is physically shared (same allocation) with the
    /// given other store — true for shards a delta-freeze spliced.
    pub fn shares_shard_with(&self, other: &LabelStore, i: usize) -> bool {
        Arc::ptr_eq(&self.shards[i], &other.shards[i])
    }

    /// Total number of stored records.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total wire bytes held across shards.
    pub fn bytes_total(&self) -> usize {
        self.shards.iter().map(|s| s.bytes.len()).sum()
    }

    /// Number of records in shard `i` (for balance diagnostics).
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards[i].index.len()
    }

    /// The raw wire bytes stored under `key`, if any.
    pub fn get_bytes(&self, key: StoreKey) -> Option<&[u8]> {
        let s = (key.hash() % self.shards.len() as u64) as usize;
        self.shards[s].get(key)
    }

    /// Decodes the record under `key` as an `L`.
    pub fn get_label<L: WireLabel>(&self, key: StoreKey) -> Result<L, StoreError> {
        let bytes = self.get_bytes(key).ok_or(StoreError::Missing(key))?;
        Ok(L::from_wire(bytes)?)
    }

    /// Decodes the vertex record of `v` as an `L`.
    pub fn vertex_label<L: WireLabel>(&self, v: VertexId) -> Result<L, StoreError> {
        self.get_label(StoreKey::vertex(v))
    }

    /// Decodes the edge record of `e` as an `L`.
    pub fn edge_label<L: WireLabel>(&self, e: EdgeId) -> Result<L, StoreError> {
        self.get_label(StoreKey::edge(e))
    }

    /// The decoded-label sidecar materialized at freeze time — the
    /// zero-decode serving surface. Like the shards it is immutable, so it
    /// shares the store's lock-free `&self` read story.
    pub fn sidecar(&self) -> &DecodedSidecar {
        &self.sidecar
    }
}

/// Per-vertex / per-edge label artifacts decoded **once at freeze time**
/// into contiguous arena-backed arrays, so the serving hot path is index
/// lookups + ancestry compares + parity tests with no `WireReader` in
/// sight:
///
/// * **ancestry intervals** — `anc(v)` for every cycle-space or bare
///   ancestry vertex record;
/// * **`φ` column bank** — one [`BitMatrix`] row per edge id for
///   cycle-space edge labels, plus the precomputed child interval of every
///   tree edge (what the per-query `D(s, t)` sweep needs).
///
/// Records the sidecar cannot place (other kinds — sketch-scheme labels
/// included — decode failures, wildly sparse id spaces, mixed `φ` widths)
/// simply stay wire-only: every accessor returns `Option`/`bool` and the
/// engine falls back to the store's decoding read path for them, which
/// fails with a typed error for any record that is not a cycle-space
/// label.
#[derive(Debug, Default, Clone)]
pub struct DecodedSidecar {
    /// Ancestry interval per vertex id; aligned with `vertex_present`.
    vertex_anc: Vec<AncestryLabel>,
    vertex_present: Vec<bool>,
    /// `φ(e)` columns, one row per edge id (zero rows where absent).
    phi: BitMatrix,
    /// Child ancestry interval per tree edge; `(1, 0)` (an impossible
    /// interval) where the edge is absent or non-tree.
    edge_child: Vec<(u32, u32)>,
    edge_present: Vec<bool>,
}

/// Decodes a record as `L` if its kind byte says so; `None` on any
/// mismatch or decode failure (the record stays wire-only).
fn decode_as<L: WireLabel>(bytes: &[u8]) -> Option<L> {
    if bytes.len() < ftl_labels::wire::HEADER_BYTES || bytes[3] != L::KIND as u8 {
        return None;
    }
    L::from_wire(bytes).ok()
}

/// The ancestry interval of a cycle-space or bare ancestry vertex record.
fn decode_vertex_anc(bytes: &[u8]) -> Option<AncestryLabel> {
    decode_as::<CycleSpaceVertexLabel>(bytes)
        .map(|l| l.anc)
        .or_else(|| decode_as::<AncestryLabel>(bytes))
}

/// Dense-array guard: materializing by id only pays off when the id space
/// is reasonably dense; a store keyed by sparse huge ids keeps its records
/// wire-only rather than allocating gigabytes of absent slots.
fn dense_enough(max_id: usize, count: usize) -> bool {
    max_id < 4 * count + 1024
}

impl DecodedSidecar {
    /// Decodes everything it can out of the frozen shards. Called from
    /// [`LabelStoreBuilder::freeze`].
    fn build(shards: &[Arc<Shard>]) -> DecodedSidecar {
        let mut vertices: Vec<(u32, AncestryLabel)> = Vec::new();
        let mut cyc_edges: Vec<(u32, CycleSpaceEdgeLabel)> = Vec::new();
        for shard in shards {
            for (&key, &(start, len)) in &shard.index {
                let bytes = &shard.bytes[start as usize..(start + len) as usize];
                match key.ns {
                    Namespace::Vertex => {
                        if let Some(anc) = decode_vertex_anc(bytes) {
                            vertices.push((key.id, anc));
                        }
                    }
                    Namespace::Edge => {
                        if let Some(l) = decode_as::<CycleSpaceEdgeLabel>(bytes) {
                            cyc_edges.push((key.id, l));
                        }
                    }
                }
            }
        }
        let mut sidecar = DecodedSidecar::default();
        sidecar.place_vertices(vertices);
        sidecar.place_cycle_edges(cyc_edges);
        sidecar
    }

    /// Patches a copy of `prev` with the given removals and upserts, in
    /// id-stable arrays. Returns `None` — meaning "rebuild from shards
    /// instead" — whenever an upsert cannot be placed structurally: an id
    /// beyond the existing arrays (including the empty arrays of a store
    /// that never placed anything) or a `φ` width differing from the bank's.
    ///
    /// An upsert whose bytes *decode* to nothing placeable (corrupt or
    /// unknown kind) is not an error: the id is evicted from the sidecar
    /// and the record serves through the wire path — graceful degradation
    /// rather than a failed freeze.
    fn delta(
        prev: &DecodedSidecar,
        upserts: &[(StoreKey, Vec<u8>)],
        removals: &[StoreKey],
    ) -> Option<DecodedSidecar> {
        let mut next = prev.clone();
        let mut scratch = BitVec::zeros(0);
        fn zero_phi_row(phi: &mut BitMatrix, id: usize, scratch: &mut BitVec) {
            phi.read_row_into(id, scratch);
            phi.xor_bitvec_into_row(id, scratch);
        }
        fn evict(next: &mut DecodedSidecar, key: StoreKey, scratch: &mut BitVec) {
            let id = key.id as usize;
            match key.ns {
                Namespace::Vertex => {
                    if let Some(p) = next.vertex_present.get_mut(id) {
                        *p = false;
                    }
                }
                Namespace::Edge => {
                    if next.edge_present.get(id).copied().unwrap_or(false) {
                        zero_phi_row(&mut next.phi, id, scratch);
                    }
                    if let Some(p) = next.edge_present.get_mut(id) {
                        *p = false;
                    }
                    if let Some(c) = next.edge_child.get_mut(id) {
                        *c = (1, 0);
                    }
                }
            }
        }

        for &key in removals {
            evict(&mut next, key, &mut scratch);
        }
        for (key, bytes) in upserts {
            let id = key.id as usize;
            match key.ns {
                Namespace::Vertex => {
                    if id >= next.vertex_present.len() {
                        return None;
                    }
                    match decode_vertex_anc(bytes) {
                        Some(anc) => {
                            next.vertex_anc[id] = anc;
                            next.vertex_present[id] = true;
                        }
                        None => evict(&mut next, *key, &mut scratch),
                    }
                }
                Namespace::Edge => {
                    if id >= next.edge_present.len() {
                        return None;
                    }
                    match decode_as::<CycleSpaceEdgeLabel>(bytes) {
                        Some(l) => {
                            if l.phi.len() != next.phi.num_cols() {
                                return None;
                            }
                            if next.edge_present[id] {
                                zero_phi_row(&mut next.phi, id, &mut scratch);
                            }
                            next.phi.xor_bitvec_into_row(id, &l.phi);
                            next.edge_child[id] = tree_child_interval_of(&l).unwrap_or((1, 0));
                            next.edge_present[id] = true;
                        }
                        None => evict(&mut next, *key, &mut scratch),
                    }
                }
            }
        }
        Some(next)
    }

    fn place_vertices(&mut self, vertices: Vec<(u32, AncestryLabel)>) {
        let Some(max_id) = vertices.iter().map(|&(id, _)| id as usize).max() else {
            return;
        };
        if !dense_enough(max_id, vertices.len()) {
            return;
        }
        self.vertex_anc = vec![AncestryLabel { pre: 0, post: 0 }; max_id + 1];
        self.vertex_present = vec![false; max_id + 1];
        for (id, anc) in vertices {
            self.vertex_anc[id as usize] = anc;
            self.vertex_present[id as usize] = true;
        }
    }

    fn place_cycle_edges(&mut self, edges: Vec<(u32, CycleSpaceEdgeLabel)>) {
        let Some(max_id) = edges.iter().map(|&(id, _)| id as usize).max() else {
            return;
        };
        if !dense_enough(max_id, edges.len()) {
            return;
        }
        let b = edges[0].1.phi.len();
        if edges.iter().any(|(_, l)| l.phi.len() != b) {
            // Mixed φ widths cannot share one column bank; leave these
            // records wire-only rather than serve a partial bank.
            return;
        }
        self.phi = BitMatrix::with_rows(max_id + 1, b);
        self.edge_child = vec![(1, 0); max_id + 1];
        self.edge_present = vec![false; max_id + 1];
        for (id, l) in edges {
            self.phi.xor_bitvec_into_row(id as usize, &l.phi);
            if let Some(interval) = tree_child_interval_of(&l) {
                self.edge_child[id as usize] = interval;
            }
            self.edge_present[id as usize] = true;
        }
    }

    /// The decoded ancestry interval of vertex `v`, if its record made it
    /// into the sidecar.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn vertex_anc(&self, v: VertexId) -> Option<AncestryLabel> {
        let i = v.index();
        if *self.vertex_present.get(i)? {
            Some(self.vertex_anc[i])
        } else {
            None
        }
    }

    /// Width of the `φ` column bank in bits (0 when the bank is empty).
    pub fn phi_width(&self) -> usize {
        self.phi.num_cols()
    }

    /// Whether edge `e` has a decoded cycle-space record.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn has_edge(&self, e: EdgeId) -> bool {
        self.edge_present.get(e.index()).copied().unwrap_or(false)
    }

    /// Whether **every** id in `ids` has a decoded cycle-space record —
    /// the gate for the zero-decode elimination path.
    pub fn covers_edges(&self, ids: &[EdgeId]) -> bool {
        ids.iter().all(|&e| self.has_edge(e))
    }

    /// Copies `φ(e)` out of the column bank into `out` (reusing its
    /// allocation). Returns `false` when `e` has no decoded record.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn read_phi_into(&self, e: EdgeId, out: &mut BitVec) -> bool {
        if !self.has_edge(e) {
            return false;
        }
        self.phi.read_row_into(e.index(), out);
        true
    }

    /// The precomputed child ancestry interval of `e` when it is a decoded
    /// **tree** edge (see `EliminatedFaultSet`'s per-query sweep).
    // ftl-analyzer: hot-path
    #[inline]
    pub fn tree_child_interval(&self, e: EdgeId) -> Option<(u32, u32)> {
        let &(pre, post) = self.edge_child.get(e.index())?;
        (pre <= post && self.has_edge(e)).then_some((pre, post))
    }

    /// Materializes a decode-equivalent [`CycleSpaceEdgeLabel`] from the
    /// banks: `φ` is bit-exact; the endpoint ancestry pair is collapsed to
    /// the child interval (both endpoints set to it), which preserves
    /// `on_root_path_of` for every query — the only thing decoders consult
    /// — without storing both endpoint intervals. Not wire-identical;
    /// strictly for serving paths.
    pub fn materialize_edge_label(&self, e: EdgeId) -> Option<CycleSpaceEdgeLabel> {
        if !self.has_edge(e) {
            return None;
        }
        let (is_tree, anc) = match self.tree_child_interval(e) {
            Some((pre, post)) => (true, AncestryLabel { pre, post }),
            None => (false, AncestryLabel { pre: 0, post: 0 }),
        };
        Some(CycleSpaceEdgeLabel {
            phi: self.phi.row_to_bitvec(e.index()),
            anc_u: anc,
            anc_v: anc,
            is_tree,
        })
    }

    /// Number of vertices with decoded records.
    pub fn decoded_vertices(&self) -> usize {
        self.vertex_present.iter().filter(|&&p| p).count()
    }

    /// Number of edges with decoded cycle-space records.
    pub fn decoded_edges(&self) -> usize {
        self.edge_present.iter().filter(|&&p| p).count()
    }
}

/// The ancestry interval of the *deeper* endpoint of a tree edge — all the
/// per-query material a fault contributes. A tree edge lies on the
/// root–`x` path iff **both** endpoints are ancestors of `x`, and the
/// endpoint intervals of a tree edge nest, so that collapses to one
/// containment test against the child's interval. Non-tree edges (and the
/// impossible case of disjoint endpoint intervals, which no genuine tree
/// edge produces) yield `None`, matching `on_root_path_of` returning
/// `false` everywhere.
pub(crate) fn tree_child_interval_of(l: &CycleSpaceEdgeLabel) -> Option<(u32, u32)> {
    if !l.is_tree {
        return None;
    }
    if l.anc_u.is_ancestor_of(&l.anc_v) {
        Some((l.anc_v.pre, l.anc_v.post))
    } else if l.anc_v.is_ancestor_of(&l.anc_u) {
        Some((l.anc_u.pre, l.anc_u.post))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_labels::AncestryLabel;

    fn anc(pre: u32, post: u32) -> AncestryLabel {
        AncestryLabel { pre, post }
    }

    #[test]
    fn put_freeze_get_roundtrip() {
        let mut b = LabelStoreBuilder::new(4);
        for i in 0..50u32 {
            b.put_vertex_label(VertexId::new(i as usize), &anc(i, i + 1))
                .unwrap();
            b.put_edge_label(EdgeId::new(i as usize), &anc(1000 + i, 1000 + i + 1))
                .unwrap();
        }
        let store = b.freeze();
        assert_eq!(store.len(), 100);
        assert!(!store.is_empty());
        assert!(store.bytes_total() >= 100 * 16);
        for i in 0..50u32 {
            let v: AncestryLabel = store.vertex_label(VertexId::new(i as usize)).unwrap();
            assert_eq!(v, anc(i, i + 1));
            let e: AncestryLabel = store.edge_label(EdgeId::new(i as usize)).unwrap();
            assert_eq!(e, anc(1000 + i, 1000 + i + 1));
        }
    }

    #[test]
    fn vertex_and_edge_namespaces_are_disjoint() {
        let mut b = LabelStoreBuilder::new(2);
        b.put_vertex_label(VertexId::new(7), &anc(1, 2)).unwrap();
        let store = b.freeze();
        assert!(store
            .vertex_label::<AncestryLabel>(VertexId::new(7))
            .is_ok());
        assert_eq!(
            store.edge_label::<AncestryLabel>(EdgeId::new(7)),
            Err(StoreError::Missing(StoreKey::edge(EdgeId::new(7))))
        );
    }

    #[test]
    fn overwrite_takes_effect() {
        let mut b = LabelStoreBuilder::new(1);
        b.put_vertex_label(VertexId::new(0), &anc(1, 1)).unwrap();
        b.put_vertex_label(VertexId::new(0), &anc(9, 9)).unwrap();
        let store = b.freeze();
        assert_eq!(
            store
                .vertex_label::<AncestryLabel>(VertexId::new(0))
                .unwrap(),
            anc(9, 9)
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn shards_spread_keys() {
        let mut b = LabelStoreBuilder::new(8);
        for i in 0..800 {
            b.put_vertex_label(VertexId::new(i), &anc(i as u32, i as u32))
                .unwrap();
        }
        let store = b.freeze();
        assert_eq!(store.num_shards(), 8);
        for s in 0..8 {
            let len = store.shard_len(s);
            assert!((40..=160).contains(&len), "shard {s} holds {len} of 800");
        }
    }

    #[test]
    fn corrupt_stored_bytes_surface_as_wire_error() {
        let mut b = LabelStoreBuilder::new(1);
        let mut bytes = anc(3, 4).to_wire();
        bytes[0] ^= 0xFF;
        b.put_bytes(StoreKey::vertex(VertexId::new(0)), &bytes)
            .unwrap();
        let store = b.freeze();
        assert!(matches!(
            store.vertex_label::<AncestryLabel>(VertexId::new(0)),
            Err(StoreError::Wire(WireError::BadMagic))
        ));
        // The corrupt record also stays out of the sidecar: wire-only, and
        // the error above is what readers see.
        assert_eq!(store.sidecar().decoded_vertices(), 0);
        assert!(store.sidecar().vertex_anc(VertexId::new(0)).is_none());
    }

    #[test]
    fn sidecar_matches_wire_decoding_for_cycle_space_store() {
        use ftl_cycle_space::{CycleSpaceScheme, CycleSpaceVertexLabel};
        use ftl_seeded::Seed;
        let g = ftl_graph::generators::grid(4, 4);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(5)).unwrap();
        let store = crate::engine::store_from_cycle_space(&scheme, 4).unwrap();
        let sidecar = store.sidecar();
        assert_eq!(sidecar.decoded_vertices(), g.num_vertices());
        assert_eq!(sidecar.decoded_edges(), g.num_edges());
        let mut phi = BitVec::zeros(0);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            let wire: CycleSpaceVertexLabel = store.vertex_label(v).unwrap();
            assert_eq!(sidecar.vertex_anc(v), Some(wire.anc), "vertex {i}");
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            let wire = scheme.edge_label(e);
            assert!(sidecar.has_edge(e));
            assert!(sidecar.read_phi_into(e, &mut phi));
            assert_eq!(phi, wire.phi, "phi of edge {i}");
            // The child interval reproduces on_root_path_of for every
            // vertex in the graph.
            for x in 0..g.num_vertices() {
                let anc = scheme.vertex_label(VertexId::new(x)).anc;
                let by_interval = sidecar
                    .tree_child_interval(e)
                    .is_some_and(|(pre, post)| pre <= anc.pre && anc.post <= post);
                assert_eq!(by_interval, wire.on_root_path_of(&anc), "edge {i} vs {x}");
            }
            // And so does the materialized decode-equivalent label.
            let mat = sidecar.materialize_edge_label(e).unwrap();
            assert_eq!(mat.phi, wire.phi);
            assert_eq!(mat.is_tree, wire.is_tree);
            for x in 0..g.num_vertices() {
                let anc = scheme.vertex_label(VertexId::new(x)).anc;
                assert_eq!(mat.on_root_path_of(&anc), wire.on_root_path_of(&anc));
            }
        }
    }

    #[test]
    fn foreign_kind_store_stays_wire_only_and_fails_typed() {
        use crate::engine::{Engine, EngineConfig, EngineError, FaultSetBatch};
        use ftl_seeded::Seed;
        use ftl_sketch::{SketchParams, SketchScheme};
        // A whole store of sketch-scheme records: a valid wire format, but
        // not the cycle-space kind the engine eliminates.
        let g = ftl_graph::generators::grid(3, 3);
        let params = SketchParams::for_graph(&g);
        let scheme = SketchScheme::label(&g, &params, Seed::new(9)).unwrap();
        let mut b = LabelStoreBuilder::new(2);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            b.put_vertex_label(v, &scheme.vertex_label(v)).unwrap();
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            b.put_edge_label(e, &scheme.edge_label(e)).unwrap();
        }
        let store = b.freeze();
        assert_eq!(store.len(), g.num_vertices() + g.num_edges());
        assert_eq!(store.sidecar().decoded_edges(), 0);
        assert_eq!(store.sidecar().decoded_vertices(), 0);

        let (s, t) = (VertexId::new(0), VertexId::new(8));
        let groups = [
            FaultSetBatch {
                faults: vec![EdgeId::new(0), EdgeId::new(3)],
                queries: vec![(s, t)],
            },
            FaultSetBatch {
                faults: Vec::new(),
                queries: vec![(s, t)],
            },
        ];
        let resp = Engine::new(store, EngineConfig::default()).execute_grouped(&groups);
        assert_eq!(resp.groups.len(), 2);
        // The fault set's edge records fail the wire fallback: the group
        // fails as a unit, with a typed store error.
        assert!(
            matches!(resp.groups[0], Err(EngineError::Store(_))),
            "{:?}",
            resp.groups[0]
        );
        // An empty fault set resolves, so the failure moves to the query:
        // its endpoints' records are foreign too. No answer, no panic.
        let answers = resp.groups[1].as_ref().expect("empty fault set resolves");
        assert_eq!(answers.len(), 1);
        assert!(
            matches!(answers[0], Err(EngineError::Store(_))),
            "{:?}",
            answers[0]
        );
        assert_eq!(resp.stats.queries, 1);
    }

    #[test]
    fn sparse_id_space_stays_wire_only() {
        let mut b = LabelStoreBuilder::new(1);
        // Two vertices, ids 3 and 900_000: far too sparse for dense arrays.
        b.put_vertex_label(VertexId::new(3), &anc(1, 2)).unwrap();
        b.put_vertex_label(VertexId::new(900_000), &anc(3, 4))
            .unwrap();
        let store = b.freeze();
        assert_eq!(store.sidecar().decoded_vertices(), 0);
        // Reads still work through the wire path.
        assert!(store
            .vertex_label::<AncestryLabel>(VertexId::new(900_000))
            .is_ok());
    }

    #[test]
    fn delta_freeze_splices_untouched_shards_and_mints_fresh_uid() {
        let mut b = LabelStoreBuilder::new(8);
        for i in 0..400 {
            b.put_vertex_label(VertexId::new(i), &anc(i as u32, i as u32 + 1))
                .unwrap();
        }
        let store = b.freeze();
        let key = StoreKey::vertex(VertexId::new(3));
        let touched = (key.hash() % 8) as usize;
        let next = store
            .delta_freeze(&[(key, anc(99, 100).to_wire())], &[])
            .unwrap();
        assert_ne!(next.uid(), store.uid());
        for s in 0..8 {
            assert_eq!(next.shares_shard_with(&store, s), s != touched, "shard {s}");
        }
        // The old snapshot is untouched; the new one sees the upsert.
        assert_eq!(
            store
                .vertex_label::<AncestryLabel>(VertexId::new(3))
                .unwrap(),
            anc(3, 4)
        );
        assert_eq!(
            next.vertex_label::<AncestryLabel>(VertexId::new(3))
                .unwrap(),
            anc(99, 100)
        );
        assert_eq!(
            next.sidecar().vertex_anc(VertexId::new(3)),
            Some(anc(99, 100))
        );
    }

    #[test]
    fn delta_freeze_matches_from_scratch_build() {
        use ftl_cycle_space::CycleSpaceScheme;
        use ftl_seeded::Seed;
        let g = ftl_graph::generators::grid(4, 4);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(5)).unwrap();
        let store = crate::engine::store_from_cycle_space(&scheme, 4).unwrap();

        // Remove two edges and move one vertex label.
        let removals = [
            StoreKey::edge(EdgeId::new(1)),
            StoreKey::edge(EdgeId::new(7)),
        ];
        let mut moved = scheme.vertex_label(VertexId::new(2));
        moved.anc.pre += 1;
        let upserts = [(StoreKey::vertex(VertexId::new(2)), moved.to_wire())];
        let next = store.delta_freeze(&upserts, &removals).unwrap();

        // From-scratch reference with the same final content.
        let mut b = LabelStoreBuilder::new(4);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            if i == 2 {
                b.put_vertex_label(v, &moved).unwrap();
            } else {
                b.put_vertex_label(v, &scheme.vertex_label(v)).unwrap();
            }
        }
        for i in 0..g.num_edges() {
            if i == 1 || i == 7 {
                continue;
            }
            let e = EdgeId::new(i);
            b.put_edge_label(e, &scheme.edge_label(e)).unwrap();
        }
        let reference = b.freeze();

        assert_eq!(next.len(), reference.len());
        let mut a_phi = BitVec::zeros(0);
        let mut b_phi = BitVec::zeros(0);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            assert_eq!(
                next.get_bytes(StoreKey::vertex(v)),
                reference.get_bytes(StoreKey::vertex(v))
            );
            assert_eq!(
                next.sidecar().vertex_anc(v),
                reference.sidecar().vertex_anc(v)
            );
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            assert_eq!(
                next.get_bytes(StoreKey::edge(e)),
                reference.get_bytes(StoreKey::edge(e)),
                "edge {i}"
            );
            assert_eq!(next.sidecar().has_edge(e), reference.sidecar().has_edge(e));
            assert_eq!(
                next.sidecar().tree_child_interval(e),
                reference.sidecar().tree_child_interval(e)
            );
            if next.sidecar().has_edge(e) {
                assert!(next.sidecar().read_phi_into(e, &mut a_phi));
                assert!(reference.sidecar().read_phi_into(e, &mut b_phi));
                assert_eq!(a_phi, b_phi, "phi of edge {i}");
            }
        }
    }

    #[test]
    fn delta_freeze_evicts_undecodable_upsert_but_serves_wire() {
        use ftl_cycle_space::CycleSpaceScheme;
        use ftl_seeded::Seed;
        let g = ftl_graph::generators::cycle(6);
        let scheme = CycleSpaceScheme::label(&g, 2, Seed::new(3)).unwrap();
        let store = crate::engine::store_from_cycle_space(&scheme, 2).unwrap();
        assert!(store.sidecar().has_edge(EdgeId::new(0)));

        // Upsert bytes that fail to decode: sidecar eviction, not a panic,
        // and the wire path serves (and surfaces) the corrupt record.
        let mut bad = scheme.edge_label(EdgeId::new(0)).to_wire();
        bad[0] ^= 0xFF;
        let next = store
            .delta_freeze(&[(StoreKey::edge(EdgeId::new(0)), bad.clone())], &[])
            .unwrap();
        assert!(!next.sidecar().has_edge(EdgeId::new(0)));
        assert_eq!(
            next.get_bytes(StoreKey::edge(EdgeId::new(0))),
            Some(&bad[..])
        );
        assert!(matches!(
            next.edge_label::<CycleSpaceEdgeLabel>(EdgeId::new(0)),
            Err(StoreError::Wire(_))
        ));
        // Other records still decoded.
        assert!(next.sidecar().has_edge(EdgeId::new(1)));
    }

    #[test]
    fn delta_freeze_removal_then_reinsert_roundtrips() {
        let mut b = LabelStoreBuilder::new(3);
        for i in 0..30 {
            b.put_vertex_label(VertexId::new(i), &anc(i as u32, i as u32 + 1))
                .unwrap();
        }
        let store = b.freeze();
        let key = StoreKey::vertex(VertexId::new(5));
        let gone = store.delta_freeze(&[], &[key]).unwrap();
        assert_eq!(gone.get_bytes(key), None);
        assert!(gone.sidecar().vertex_anc(VertexId::new(5)).is_none());
        assert_eq!(gone.len(), 29);
        let back = gone
            .delta_freeze(&[(key, anc(7, 8).to_wire())], &[])
            .unwrap();
        assert_eq!(
            back.vertex_label::<AncestryLabel>(VertexId::new(5))
                .unwrap(),
            anc(7, 8)
        );
        assert_eq!(back.sidecar().vertex_anc(VertexId::new(5)), Some(anc(7, 8)));
        assert_eq!(back.len(), 30);
    }

    #[test]
    fn arena_overflow_is_a_typed_error_not_a_panic() {
        // A shard arena past u32::MAX cannot be built in a test, but the
        // end-offset check is reachable by faking the precondition: a
        // record so large the *end* offset overflows. Use a sparse huge
        // record via the builder's byte path.
        let mut b = LabelStoreBuilder::new(1);
        // First fill a small record so the arena is non-empty.
        b.put_vertex_label(VertexId::new(0), &anc(0, 0)).unwrap();
        // A record of u32::MAX bytes cannot be allocated here either, so
        // exercise the typed-error path at the Shard level instead: the
        // builder must refuse (not panic) once offsets no longer fit.
        let mut shard = Shard {
            bytes: vec![0u8; 16],
            ..Shard::default()
        };
        // Pretend the arena is already at the edge by checking the error
        // shape for an impossible end offset.
        let key = StoreKey::vertex(VertexId::new(1));
        // Directly drive `put` with a length that overflows the end check.
        let huge = u32::MAX as usize - 8;
        shard.bytes.resize(huge, 0);
        let err = shard.put(key, &[0u8; 64]).unwrap_err();
        assert_eq!(err, StoreError::ArenaOverflow { key });
        // The shard is observably unchanged: no index entry was added.
        assert!(shard.get(key).is_none());
        assert!(err.to_string().contains("num_shards"));
    }

    #[test]
    fn zero_shards_clamped_to_one() {
        let mut b = LabelStoreBuilder::new(0);
        b.put_vertex_label(VertexId::new(0), &anc(0, 0)).unwrap();
        let store = b.freeze();
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.len(), 1);
    }
}
