//! The label store: the decoded label columns, split by id range into
//! copy-on-write shards, with a lock-free read path.
//!
//! A store holds exactly what the decoder reads, as three columns: the
//! ancestry interval of every vertex, the `φ` bank (one row per edge), and
//! the child interval of every tree edge. The columns are split by id
//! range into shards of `2^k` rows each, every shard behind its own `Arc`,
//! so finding a row is a shift (which shard) and a mask (which row in it).
//!
//! The store follows a build-then-freeze lifecycle. A
//! [`LabelStoreBuilder`] declares the id spaces (`n` vertices, `m` edges)
//! and the `φ` width, takes typed cycle-space labels, and [`freeze`] seals
//! it into an immutable [`LabelStore`]. After the freeze every read is a
//! pure `&self` lookup: no locks, no atomics, so arbitrarily many query
//! threads can share one store behind an `Arc`.
//!
//! A successor snapshot starts from [`LabelStore::edit`]: a builder that
//! shares every shard with the store it came from. A write copies the one
//! shard it lands in (once) and leaves the rest shared, so a delta freeze
//! costs the shards the delta touches. A replaced shard is freed when the
//! last snapshot holding it is dropped, so a store reached by any chain of
//! edits holds exactly the bytes of a fresh build of the same labels.
//!
//! The wire format ([`ftl_labels::wire`]) is the transfer encoding, and
//! [`LabelStoreBuilder::put_bytes`] is its one way in: a record is decoded
//! once, on import, or refused with a typed [`StoreError`].
//!
//! [`freeze`]: LabelStoreBuilder::freeze

use ftl_cycle_space::{CycleSpaceEdgeLabel, CycleSpaceVertexLabel};
use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::{WireError, WireLabel};
use ftl_labels::AncestryLabel;
use std::fmt;
use std::mem::size_of_val;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic source of store identities. Every freeze — full or delta —
/// mints a fresh uid, so two stores with equal content but
/// different provenance never compare equal by identity. The engine's
/// elimination cache keys on this to stay epoch-correct.
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
}

/// Why a store read or write failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No record under that key.
    Missing(StoreKey),
    /// An imported record failed wire decoding, or carries a label kind
    /// other than the cycle-space kind of its namespace.
    Wire(WireError),
    /// The key's id lies outside the id space the builder declared.
    OutOfRange {
        /// The refused key.
        key: StoreKey,
        /// Ids in that namespace.
        len: usize,
    },
    /// An edge label whose `φ` width differs from the store's bank.
    PhiWidth {
        /// The refused key.
        key: StoreKey,
        /// The bank's width in bits.
        expected: usize,
        /// The label's width in bits.
        got: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing(k) => write!(f, "no record for {k:?}"),
            StoreError::Wire(e) => write!(f, "record refused: {e}"),
            StoreError::OutOfRange { key, len } => {
                write!(f, "{key:?} lies outside the store's {len} ids")
            }
            StoreError::PhiWidth { key, expected, got } => write!(
                f,
                "{key:?} carries a {got}-bit φ; the store's bank is {expected} bits wide"
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

/// What an edge row holds besides its `φ`.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
enum EdgeRow {
    Absent,
    NonTree,
    /// A tree edge, with the ancestry interval of its deeper endpoint.
    Tree {
        pre: u32,
        post: u32,
    },
}

/// One shard: the rows of every column for one id range.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows {
    /// Ancestry interval per vertex id; `None` where no vertex is stored.
    anc: Vec<Option<AncestryLabel>>,
    edges: Vec<EdgeRow>,
    /// `φ(e)` per edge id, all zeros where the edge is absent.
    phi: BitMatrix,
}

impl Rows {
    fn set_vertex(&mut self, i: usize, anc: Option<AncestryLabel>) {
        if let Some(slot) = self.anc.get_mut(i) {
            *slot = anc;
        }
    }

    /// Overwrites edge row `i`; `phi` shorter than a row is zero-filled.
    fn set_edge(&mut self, i: usize, row: EdgeRow, phi: &[u64]) {
        if let Some(slot) = self.edges.get_mut(i) {
            *slot = row;
        }
        let wpr = self.phi.words_per_row();
        if let Some(dst) = self.phi.words_mut().get_mut(i * wpr..(i + 1) * wpr) {
            dst.fill(0);
            dst.iter_mut().zip(phi).for_each(|(d, s)| *d = *s);
        }
    }

    fn bytes(&self) -> usize {
        size_of_val(self.anc.as_slice())
            + size_of_val(self.edges.as_slice())
            + size_of_val(self.phi.words())
    }

    fn records(&self) -> usize {
        self.anc.iter().flatten().count()
            + self.edges.iter().filter(|&&r| r != EdgeRow::Absent).count()
    }
}

/// The columns, shared by a builder and the stores it freezes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Columns {
    num_vertices: usize,
    num_edges: usize,
    phi_width: usize,
    /// Every shard holds `1 << shift` ids (the last one possibly fewer).
    shift: u32,
    shards: Vec<Arc<Rows>>,
}

impl Columns {
    /// The shard holding `id`'s rows, and the row index within it.
    #[inline]
    fn locate(&self, id: usize) -> (usize, usize) {
        (id >> self.shift, id & ((1 << self.shift) - 1))
    }
}

/// Mutable staging area for a [`LabelStore`]: a fresh one from
/// [`LabelStoreBuilder::new`], or a successor from [`LabelStore::edit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelStoreBuilder {
    cols: Columns,
}

impl LabelStoreBuilder {
    /// An empty store over `num_vertices` vertex ids and `num_edges` edge
    /// ids with a `phi_width`-bit `φ` bank, split into at most
    /// `num_shards` shards (minimum 1). Every shard spans the same
    /// power-of-two range of ids.
    pub fn new(num_vertices: usize, num_edges: usize, phi_width: usize, num_shards: usize) -> Self {
        let ids = num_vertices.max(num_edges);
        let per = ids.div_ceil(num_shards.max(1)).max(1).next_power_of_two();
        let shards = (0..ids.div_ceil(per))
            .map(|s| {
                let span = |len: usize| len.saturating_sub(s * per).min(per);
                Arc::new(Rows {
                    anc: vec![None; span(num_vertices)],
                    edges: vec![EdgeRow::Absent; span(num_edges)],
                    phi: BitMatrix::with_rows(span(num_edges), phi_width),
                })
            })
            .collect();
        LabelStoreBuilder {
            cols: Columns {
                num_vertices,
                num_edges,
                phi_width,
                shift: per.trailing_zeros(),
                shards,
            },
        }
    }

    /// The shard holding `key`'s row, made exclusive to this builder
    /// (copied if a frozen store still shares it), and the row index.
    /// Refuses an id outside the declared range before copying anything.
    fn row_mut(&mut self, key: StoreKey) -> Result<(&mut Rows, usize), StoreError> {
        let len = match key.ns {
            Namespace::Vertex => self.cols.num_vertices,
            Namespace::Edge => self.cols.num_edges,
        };
        let (shard, i) = self.cols.locate(key.id as usize);
        match self.cols.shards.get_mut(shard) {
            Some(rows) if (key.id as usize) < len => Ok((Arc::make_mut(rows), i)),
            _ => Err(StoreError::OutOfRange { key, len }),
        }
    }

    /// Stores (or overwrites) a vertex label.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] for an id past the declared vertex count;
    /// the builder is unchanged.
    pub fn put_vertex(
        &mut self,
        v: VertexId,
        label: &CycleSpaceVertexLabel,
    ) -> Result<(), StoreError> {
        let (rows, i) = self.row_mut(StoreKey::vertex(v))?;
        rows.set_vertex(i, Some(label.anc));
        Ok(())
    }

    /// Stores (or overwrites) an edge label.
    ///
    /// # Errors
    ///
    /// [`StoreError::PhiWidth`] when the label's `φ` is not the declared
    /// width, [`StoreError::OutOfRange`] for an id past the declared edge
    /// count; the builder is unchanged either way.
    pub fn put_edge(&mut self, e: EdgeId, label: &CycleSpaceEdgeLabel) -> Result<(), StoreError> {
        let key = StoreKey::edge(e);
        if label.phi.len() != self.cols.phi_width {
            return Err(StoreError::PhiWidth {
                key,
                expected: self.cols.phi_width,
                got: label.phi.len(),
            });
        }
        let row = match tree_child_interval_of(label) {
            Some((pre, post)) => EdgeRow::Tree { pre, post },
            None => EdgeRow::NonTree,
        };
        let (rows, i) = self.row_mut(key)?;
        rows.set_edge(i, row, label.phi.words());
        Ok(())
    }

    /// Removes the record under `key`, if there is one.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] for an id past the declared range.
    pub fn remove(&mut self, key: StoreKey) -> Result<(), StoreError> {
        let (rows, i) = self.row_mut(key)?;
        match key.ns {
            Namespace::Vertex => rows.set_vertex(i, None),
            Namespace::Edge => rows.set_edge(i, EdgeRow::Absent, &[]),
        }
        Ok(())
    }

    /// Imports one wire record: decodes it as the cycle-space label of
    /// `key`'s namespace and stores it. This is the store's only wire
    /// decoder.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wire`] for a corrupt record or a foreign label kind,
    /// plus the refusals of [`put_vertex`](Self::put_vertex) and
    /// [`put_edge`](Self::put_edge). A refused record leaves the builder
    /// unchanged.
    pub fn put_bytes(&mut self, key: StoreKey, record: &[u8]) -> Result<(), StoreError> {
        match key.ns {
            Namespace::Vertex => self.put_vertex(
                VertexId::new(key.id as usize),
                &CycleSpaceVertexLabel::from_wire(record)?,
            ),
            Namespace::Edge => self.put_edge(
                EdgeId::new(key.id as usize),
                &CycleSpaceEdgeLabel::from_wire(record)?,
            ),
        }
    }

    /// Seals the columns into an immutable, lock-free-readable store with
    /// a fresh [`uid`](LabelStore::uid).
    pub fn freeze(self) -> LabelStore {
        LabelStore {
            cols: self.cols,
            uid: fresh_store_uid(),
        }
    }
}

/// The frozen, shareable label store. See the module docs for the
/// concurrency story. Two stores compare equal when their columns do,
/// whatever their uids.
#[derive(Debug)]
pub struct LabelStore {
    cols: Columns,
    /// Process-unique identity of this frozen snapshot (see
    /// [`LabelStore::uid`]).
    uid: u64,
}

impl PartialEq for LabelStore {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols
    }
}

impl Eq for LabelStore {}

impl LabelStore {
    /// A builder for a successor snapshot. It starts with every shard
    /// shared with `self`; each write copies only the shard it lands in,
    /// and `self` keeps serving unchanged.
    pub fn edit(&self) -> LabelStoreBuilder {
        LabelStoreBuilder {
            cols: self.cols.clone(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.cols.shards.len()
    }

    /// Process-unique identity of this frozen snapshot. Two stores never
    /// share a uid, even across delta-freezes of the same lineage —
    /// anything derived from label *contents* (e.g. a cached elimination
    /// basis) must be keyed or guarded by it.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Whether shard `i` is physically shared (same allocation) with the
    /// given other store — true for shards an edit left untouched.
    pub fn shares_shard_with(&self, other: &LabelStore, i: usize) -> bool {
        match (self.cols.shards.get(i), other.cols.shards.get(i)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Total number of stored records.
    pub fn len(&self) -> usize {
        self.cols.shards.iter().map(|s| s.records()).sum()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the label columns: everything a query can read.
    pub fn bytes_total(&self) -> usize {
        self.cols.shards.iter().map(|s| s.bytes()).sum()
    }

    /// The store itself: its columns are the decoded labels the serving
    /// path reads. Kept under the name of the decoded copy it replaced.
    pub fn sidecar(&self) -> &LabelStore {
        self
    }

    /// The shard holding row `id`, and the row index within it.
    #[inline]
    fn rows(&self, id: usize) -> Option<(&Rows, usize)> {
        let (shard, i) = self.cols.locate(id);
        Some((self.cols.shards.get(shard)?, i))
    }

    /// The ancestry interval of vertex `v`, if it is stored.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn vertex_anc(&self, v: VertexId) -> Option<AncestryLabel> {
        let (rows, i) = self.rows(v.index())?;
        *rows.anc.get(i)?
    }

    /// Width of the `φ` column bank in bits.
    pub fn phi_width(&self) -> usize {
        self.cols.phi_width
    }

    /// The shard, row index and row of a stored edge.
    #[inline]
    fn edge(&self, e: EdgeId) -> Option<(&Rows, usize, EdgeRow)> {
        let (rows, i) = self.rows(e.index())?;
        let row = *rows.edges.get(i)?;
        (row != EdgeRow::Absent).then_some((rows, i, row))
    }

    /// Whether edge `e` is stored.
    pub fn has_edge(&self, e: EdgeId) -> bool {
        self.edge(e).is_some()
    }

    /// Copies `φ(e)` out of the column bank into `out` (reusing its
    /// allocation). Returns `false` when `e` is not stored.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn read_phi_into(&self, e: EdgeId, out: &mut BitVec) -> bool {
        match self.edge(e) {
            Some((rows, i, _)) => {
                rows.phi.read_row_into(i, out);
                true
            }
            None => false,
        }
    }

    /// The child ancestry interval of `e` when it is a stored **tree**
    /// edge (see `EliminatedFaultSet`'s per-query sweep).
    // ftl-analyzer: hot-path
    #[inline]
    pub fn tree_child_interval(&self, e: EdgeId) -> Option<(u32, u32)> {
        match self.edge(e)? {
            (_, _, EdgeRow::Tree { pre, post }) => Some((pre, post)),
            _ => None,
        }
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
fn tree_child_interval_of(l: &CycleSpaceEdgeLabel) -> Option<(u32, u32)> {
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
    use crate::engine::store_from_cycle_space;
    use ftl_cycle_space::CycleSpaceScheme;
    use ftl_graph::Graph;
    use ftl_seeded::Seed;

    fn vlabel(pre: u32, post: u32) -> CycleSpaceVertexLabel {
        CycleSpaceVertexLabel {
            anc: AncestryLabel { pre, post },
        }
    }

    fn grid_scheme() -> (Graph, CycleSpaceScheme) {
        let g = ftl_graph::generators::grid(4, 4);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(5)).unwrap();
        (g, scheme)
    }

    fn builder_for(scheme: &CycleSpaceScheme, num_shards: usize) -> LabelStoreBuilder {
        LabelStoreBuilder::new(
            scheme.num_vertices(),
            scheme.num_edges(),
            scheme.bits_b(),
            num_shards,
        )
    }

    #[test]
    fn put_freeze_get_roundtrip() {
        let (g, scheme) = grid_scheme();
        let store = store_from_cycle_space(&scheme, 4).unwrap();
        assert_eq!(store.len(), g.num_vertices() + g.num_edges());
        assert!(!store.is_empty());
        assert!(store.bytes_total() >= g.num_edges() * std::mem::size_of::<u64>());
        assert_eq!(store.phi_width(), scheme.bits_b());
        let mut phi = BitVec::zeros(0);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            assert_eq!(store.vertex_anc(v), Some(scheme.vertex_label(v).anc));
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            let label = scheme.edge_label(e);
            assert!(store.read_phi_into(e, &mut phi));
            assert_eq!(phi, label.phi, "phi of edge {i}");
            assert_eq!(store.tree_child_interval(e), tree_child_interval_of(&label));
        }
        // Past the declared ids: absent, not a panic.
        assert_eq!(store.vertex_anc(VertexId::new(1 << 20)), None);
        assert!(!store.read_phi_into(EdgeId::new(1 << 20), &mut phi));
    }

    #[test]
    fn vertex_and_edge_namespaces_are_disjoint() {
        let mut b = LabelStoreBuilder::new(8, 8, 4, 2);
        b.put_vertex(VertexId::new(7), &vlabel(1, 2)).unwrap();
        let store = b.freeze();
        assert_eq!(store.vertex_anc(VertexId::new(7)), Some(vlabel(1, 2).anc));
        assert!(!store.has_edge(EdgeId::new(7)));
        assert_eq!(store.tree_child_interval(EdgeId::new(7)), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn overwrite_takes_effect() {
        let mut b = LabelStoreBuilder::new(1, 0, 4, 1);
        b.put_vertex(VertexId::new(0), &vlabel(1, 1)).unwrap();
        b.put_vertex(VertexId::new(0), &vlabel(9, 9)).unwrap();
        let store = b.freeze();
        assert_eq!(store.vertex_anc(VertexId::new(0)), Some(vlabel(9, 9).anc));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn shards_spread_keys() {
        // 800 ids over 8 shards: 100 per shard rounds up to 128, so 7
        // shards of 128 ids (the last one holding the remaining 32).
        let mut b = LabelStoreBuilder::new(800, 500, 4, 8);
        for i in 0..800 {
            b.put_vertex(VertexId::new(i), &vlabel(i as u32, i as u32))
                .unwrap();
        }
        let store = b.freeze();
        assert_eq!(store.num_shards(), 7);
        assert_eq!(store.cols.shift, 7);
        for (s, rows) in store.cols.shards.iter().enumerate() {
            let want = (800 - s * 128).min(128);
            assert_eq!(rows.anc.len(), want, "vertex rows of shard {s}");
            assert_eq!(rows.records(), want, "shard {s}");
            assert_eq!(rows.edges.len(), 500usize.saturating_sub(s * 128).min(128));
        }
        for i in [0, 127, 128, 799] {
            let v = VertexId::new(i);
            assert_eq!(store.vertex_anc(v), Some(vlabel(i as u32, i as u32).anc));
        }
    }

    #[test]
    fn corrupt_stored_bytes_surface_as_wire_error() {
        let mut b = LabelStoreBuilder::new(1, 0, 4, 1);
        let mut bytes = vlabel(3, 4).to_wire();
        bytes[0] ^= 0xFF;
        let before = b.clone();
        assert_eq!(
            b.put_bytes(StoreKey::vertex(VertexId::new(0)), &bytes),
            Err(StoreError::Wire(WireError::BadMagic))
        );
        assert_eq!(b, before, "a refused record changed the builder");
        let store = b.freeze();
        assert!(store.is_empty());
        assert!(store.vertex_anc(VertexId::new(0)).is_none());
    }

    /// Importing every label through its wire record builds the same
    /// columns as storing the typed labels, and the child interval
    /// reproduces `on_root_path_of` for every vertex.
    #[test]
    fn sidecar_matches_wire_decoding_for_cycle_space_store() {
        let (g, scheme) = grid_scheme();
        let direct = store_from_cycle_space(&scheme, 4).unwrap();
        let mut b = builder_for(&scheme, 4);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            b.put_bytes(StoreKey::vertex(v), &scheme.vertex_label(v).to_wire())
                .unwrap();
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            b.put_bytes(StoreKey::edge(e), &scheme.edge_label(e).to_wire())
                .unwrap();
        }
        let imported = b.freeze();
        assert_eq!(imported, direct);
        assert_ne!(imported.uid(), direct.uid());
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            let label = scheme.edge_label(e);
            for x in 0..g.num_vertices() {
                let anc = scheme.vertex_label(VertexId::new(x)).anc;
                let by_interval = imported
                    .tree_child_interval(e)
                    .is_some_and(|(pre, post)| pre <= anc.pre && anc.post <= post);
                assert_eq!(by_interval, label.on_root_path_of(&anc), "edge {i} vs {x}");
            }
        }
    }

    #[test]
    fn delta_freeze_splices_untouched_shards_and_mints_fresh_uid() {
        let mut b = LabelStoreBuilder::new(400, 0, 4, 8);
        for i in 0..400 {
            b.put_vertex(VertexId::new(i), &vlabel(i as u32, i as u32 + 1))
                .unwrap();
        }
        let store = b.freeze();
        let v = VertexId::new(3);
        let (touched, _) = store.cols.locate(v.index());
        let replaced = Arc::downgrade(&store.cols.shards[touched]);
        let mut edit = store.edit();
        edit.put_vertex(v, &vlabel(99, 100)).unwrap();
        let next = edit.freeze();
        assert_ne!(next.uid(), store.uid());
        for s in 0..store.num_shards() {
            assert_eq!(next.shares_shard_with(&store, s), s != touched, "shard {s}");
        }
        // The old snapshot is untouched; the new one sees the upsert.
        assert_eq!(store.vertex_anc(v), Some(vlabel(3, 4).anc));
        assert_eq!(next.vertex_anc(v), Some(vlabel(99, 100).anc));
        // The replaced shard lives exactly as long as the old snapshot.
        assert!(replaced.upgrade().is_some());
        drop(store);
        assert!(
            replaced.upgrade().is_none(),
            "replaced shard outlived its store"
        );
    }

    #[test]
    fn delta_freeze_matches_from_scratch_build() {
        let (g, scheme) = grid_scheme();
        let store = store_from_cycle_space(&scheme, 4).unwrap();

        // Remove two edges and move one vertex label.
        let mut moved = scheme.vertex_label(VertexId::new(2));
        moved.anc.pre += 1;
        let mut edit = store.edit();
        edit.remove(StoreKey::edge(EdgeId::new(1))).unwrap();
        edit.remove(StoreKey::edge(EdgeId::new(7))).unwrap();
        edit.put_vertex(VertexId::new(2), &moved).unwrap();
        let next = edit.freeze();

        // From-scratch reference with the same final content.
        let mut b = builder_for(&scheme, 4);
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            let label = if i == 2 {
                moved
            } else {
                scheme.vertex_label(v)
            };
            b.put_vertex(v, &label).unwrap();
        }
        for i in (0..g.num_edges()).filter(|&i| i != 1 && i != 7) {
            let e = EdgeId::new(i);
            b.put_edge(e, &scheme.edge_label(e)).unwrap();
        }
        let reference = b.freeze();
        assert_eq!(next, reference);
        assert_eq!(next.bytes_total(), reference.bytes_total());
        assert_eq!(next.len(), g.num_vertices() + g.num_edges() - 2);
    }

    #[test]
    fn delta_freeze_removal_then_reinsert_roundtrips() {
        let mut b = LabelStoreBuilder::new(30, 0, 4, 3);
        for i in 0..30 {
            b.put_vertex(VertexId::new(i), &vlabel(i as u32, i as u32 + 1))
                .unwrap();
        }
        let store = b.freeze();
        let v = VertexId::new(5);
        let mut edit = store.edit();
        edit.remove(StoreKey::vertex(v)).unwrap();
        let gone = edit.freeze();
        assert!(gone.vertex_anc(v).is_none());
        assert_eq!(gone.len(), 29);
        let mut edit = gone.edit();
        edit.put_vertex(v, &vlabel(7, 8)).unwrap();
        let back = edit.freeze();
        assert_eq!(back.vertex_anc(v), Some(vlabel(7, 8).anc));
        assert_eq!(back.len(), 30);
    }

    /// The store's capacity is the id space the builder declared, and a
    /// write past it is a typed refusal, not a panic or an out-of-bounds
    /// index: the builder is unchanged and no shard is copied.
    #[test]
    fn arena_overflow_is_a_typed_error_not_a_panic() {
        let (_, scheme) = grid_scheme();
        let store = store_from_cycle_space(&scheme, 4).unwrap();
        let (n, m) = (scheme.num_vertices(), scheme.num_edges());
        let mut edit = store.edit();
        for id in [m, m + 1, u32::MAX as usize] {
            let e = EdgeId::new(id);
            let key = StoreKey::edge(e);
            let err = edit.put_edge(e, &scheme.edge_label(EdgeId::new(0)));
            assert_eq!(err, Err(StoreError::OutOfRange { key, len: m }));
            assert_eq!(
                edit.remove(key),
                Err(StoreError::OutOfRange { key, len: m })
            );
        }
        let v = VertexId::new(u32::MAX as usize);
        let err = edit
            .put_vertex(v, &scheme.vertex_label(VertexId::new(0)))
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::OutOfRange {
                key: StoreKey::vertex(v),
                len: n
            }
        );
        assert!(err.to_string().contains(&format!("{n} ids")), "{err}");
        let next = edit.freeze();
        assert_eq!(next, store);
        for s in 0..store.num_shards() {
            assert!(
                next.shares_shard_with(&store, s),
                "refusal copied shard {s}"
            );
        }
    }

    /// An undecodable upsert offered while editing a snapshot is refused
    /// at the import boundary: the successor keeps serving the record it
    /// had, decoded, and shares every shard with its predecessor.
    #[test]
    fn delta_freeze_evicts_undecodable_upsert_but_serves_wire() {
        let g = ftl_graph::generators::cycle(6);
        let scheme = CycleSpaceScheme::label(&g, 2, Seed::new(3)).unwrap();
        let store = store_from_cycle_space(&scheme, 2).unwrap();
        let e = EdgeId::new(0);
        assert!(store.has_edge(e));

        let mut bad = scheme.edge_label(e).to_wire();
        bad[0] ^= 0xFF;
        let mut edit = store.edit();
        assert!(matches!(
            edit.put_bytes(StoreKey::edge(e), &bad),
            Err(StoreError::Wire(_))
        ));
        let next = edit.freeze();
        assert_ne!(next.uid(), store.uid());
        assert_eq!(next, store);
        for s in 0..store.num_shards() {
            assert!(next.shares_shard_with(&store, s), "shard {s}");
        }
        let mut phi = BitVec::zeros(0);
        assert!(next.read_phi_into(e, &mut phi));
        assert_eq!(phi, scheme.edge_label(e).phi);
        assert!(next.has_edge(EdgeId::new(1)));
    }

    /// A whole store's worth of records of a foreign label kind (the
    /// sketch scheme's) is refused record by record with a typed
    /// `WrongKind`; an engine over the resulting empty store fails every
    /// group and query with a typed store error.
    #[test]
    fn foreign_kind_store_stays_wire_only_and_fails_typed() {
        use crate::engine::{Engine, EngineConfig, EngineError, FaultSetBatch};
        use ftl_sketch::{SketchParams, SketchScheme};
        let g = ftl_graph::generators::grid(3, 3);
        let params = SketchParams::for_graph(&g);
        let scheme = SketchScheme::label(&g, &params, Seed::new(9)).unwrap();
        let mut b = LabelStoreBuilder::new(g.num_vertices(), g.num_edges(), 4, 2);
        let empty = b.clone();
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            let err = b.put_bytes(StoreKey::vertex(v), &scheme.vertex_label(v).to_wire());
            assert!(
                matches!(err, Err(StoreError::Wire(WireError::WrongKind { .. }))),
                "{err:?}"
            );
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            let err = b.put_bytes(StoreKey::edge(e), &scheme.edge_label(e).to_wire());
            assert!(
                matches!(err, Err(StoreError::Wire(WireError::WrongKind { .. }))),
                "{err:?}"
            );
        }
        assert_eq!(b, empty);
        let store = b.freeze();
        assert!(store.is_empty());

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
        // The fault set's edges are absent: the group fails as a unit.
        assert!(
            matches!(
                resp.groups[0],
                Err(EngineError::Store(StoreError::Missing(_)))
            ),
            "{:?}",
            resp.groups[0]
        );
        // An empty fault set resolves, so the failure moves to the query:
        // its endpoints are absent too. No answer, no panic.
        let answers = resp.groups[1].as_ref().expect("empty fault set resolves");
        assert_eq!(answers.len(), 1);
        assert!(
            matches!(answers[0], Err(EngineError::Store(StoreError::Missing(_)))),
            "{:?}",
            answers[0]
        );
    }

    /// Ids far outside the declared id space are refused with
    /// `OutOfRange` instead of being kept aside; reads of them find
    /// nothing, and the in-range record is served from the columns.
    #[test]
    fn sparse_id_space_stays_wire_only() {
        let mut b = LabelStoreBuilder::new(8, 0, 4, 1);
        b.put_vertex(VertexId::new(3), &vlabel(1, 2)).unwrap();
        let far = VertexId::new(900_000);
        assert_eq!(
            b.put_bytes(StoreKey::vertex(far), &vlabel(3, 4).to_wire()),
            Err(StoreError::OutOfRange {
                key: StoreKey::vertex(far),
                len: 8
            })
        );
        let store = b.freeze();
        assert_eq!(store.len(), 1);
        assert_eq!(store.vertex_anc(VertexId::new(3)), Some(vlabel(1, 2).anc));
        assert_eq!(store.vertex_anc(far), None);
        // The columns stay sized to the declared ids, not the far one.
        assert!(store.bytes_total() < 1024, "{}", store.bytes_total());
    }

    #[test]
    fn zero_shards_clamped_to_one() {
        let mut b = LabelStoreBuilder::new(1, 0, 4, 0);
        b.put_vertex(VertexId::new(0), &vlabel(0, 0)).unwrap();
        let store = b.freeze();
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.len(), 1);
    }
}
