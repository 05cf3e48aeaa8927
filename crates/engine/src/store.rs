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
//! it into an immutable [`LabelStore`]. A scheme's edges come in through
//! [`LabelStoreBuilder::put_edge_row`], which copies a row of the scheme's
//! `φ` bank (one row per edge id) without assembling a label, so a full
//! freeze allocates per shard, not per edge. After the freeze every read
//! is a pure `&self` lookup: no locks, no atomics, so arbitrarily many
//! query threads can share one store behind an `Arc`.
//!
//! A successor snapshot starts from [`LabelStore::edit`]: a builder that
//! shares every shard with the store it came from. A write that changes a
//! row copies the one shard it lands in (once) and leaves the rest shared;
//! a write that leaves its row as it was copies nothing. So a delta freeze
//! costs the shards the delta really changes. A replaced shard is freed
//! when the last snapshot holding it is dropped, so a store reached by any
//! chain of edits holds exactly the bytes of a fresh build of the same
//! labels.
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

    /// The words of `φ` row `i`.
    #[inline]
    fn phi_row(&self, i: usize) -> Option<&[u64]> {
        let wpr = self.phi.words_per_row();
        self.phi.words().get(i * wpr..(i + 1) * wpr)
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

/// The columns, split into shards: `Arc<Rows>` in a frozen store,
/// [`Shard`] in a builder.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Columns<S> {
    num_vertices: usize,
    num_edges: usize,
    phi_width: usize,
    /// Every shard holds `1 << shift` ids (the last one possibly fewer).
    shift: u32,
    shards: Vec<S>,
}

impl<S> Columns<S> {
    /// The same columns over shards mapped by `f`.
    fn map_shards<T>(self, f: impl FnMut(S) -> T) -> Columns<T> {
        Columns {
            num_vertices: self.num_vertices,
            num_edges: self.num_edges,
            phi_width: self.phi_width,
            shift: self.shift,
            shards: self.shards.into_iter().map(f).collect(),
        }
    }

    /// The shard holding `id`'s rows, and the row index within it.
    #[inline]
    fn locate(&self, id: usize) -> (usize, usize) {
        (id >> self.shift, id & ((1 << self.shift) - 1))
    }
}

/// A builder's shard: still shared with the store it was edited from, or
/// the builder's own, which it writes without touching a reference count.
#[derive(Debug, Clone)]
enum Shard {
    Shared(Arc<Rows>),
    Owned(Rows),
}

impl Shard {
    fn rows(&self) -> &Rows {
        match self {
            Shard::Shared(rows) => rows,
            Shard::Owned(rows) => rows,
        }
    }

    /// The rows, made this builder's own: a shared shard is copied the
    /// first time, and its `Arc` released.
    fn make_owned(&mut self) -> &mut Rows {
        if let Shard::Shared(shared) = self {
            *self = Shard::Owned(Rows::clone(shared));
        }
        match self {
            Shard::Owned(rows) => rows,
            Shard::Shared(shared) => Arc::make_mut(shared),
        }
    }
}

impl PartialEq for Shard {
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows()
    }
}

impl Eq for Shard {}

/// Mutable staging area for a [`LabelStore`]: a fresh one from
/// [`LabelStoreBuilder::new`], or a successor from [`LabelStore::edit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelStoreBuilder {
    cols: Columns<Shard>,
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
                Shard::Owned(Rows {
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

    /// Applies `write` to `key`'s row (given its shard and the row index
    /// in it) in a shard made this builder's own, copied if it is still
    /// shared with a frozen store — unless `holds` finds the row already as
    /// `write` would leave it, so a write that changes nothing copies
    /// nothing. Refuses an id outside the declared range before copying
    /// anything.
    fn write_row(
        &mut self,
        key: StoreKey,
        holds: impl FnOnce(&Rows, usize) -> bool,
        write: impl FnOnce(&mut Rows, usize),
    ) -> Result<(), StoreError> {
        let len = match key.ns {
            Namespace::Vertex => self.cols.num_vertices,
            Namespace::Edge => self.cols.num_edges,
        };
        let (shard, i) = self.cols.locate(key.id as usize);
        match self.cols.shards.get_mut(shard) {
            Some(rows) if (key.id as usize) < len => {
                if !holds(rows.rows(), i) {
                    write(rows.make_owned(), i);
                }
                Ok(())
            }
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
        let anc = Some(label.anc);
        self.write_row(
            StoreKey::vertex(v),
            |rows, i| rows.anc.get(i) == Some(&anc),
            |rows, i| rows.set_vertex(i, anc),
        )
    }

    /// Stores (or overwrites) an edge label.
    ///
    /// # Errors
    ///
    /// [`StoreError::PhiWidth`] when the label's `φ` is not the declared
    /// width, [`StoreError::OutOfRange`] for an id past the declared edge
    /// count; the builder is unchanged either way.
    pub fn put_edge(&mut self, e: EdgeId, label: &CycleSpaceEdgeLabel) -> Result<(), StoreError> {
        self.put_phi(
            e,
            label.phi.len(),
            label.phi.words(),
            label.tree_child_interval(),
        )
    }

    /// Stores (or overwrites) edge `e` from row `e` of a `φ` bank — the
    /// bank of a [`CycleSpaceScheme`](ftl_cycle_space::CycleSpaceScheme)
    /// or a [`LiveCycleSpace`](ftl_cycle_space::LiveCycleSpace), one row
    /// per edge id — with `tree_interval` its
    /// [`CycleSpaceEdgeLabel::tree_child_interval`]. The row is copied;
    /// no label is assembled.
    ///
    /// # Errors
    ///
    /// [`StoreError::PhiWidth`] when the bank is not the declared width,
    /// [`StoreError::Missing`] when the bank has no row `e`,
    /// [`StoreError::OutOfRange`] for an id past the declared edge count;
    /// the builder is unchanged in every case.
    pub fn put_edge_row(
        &mut self,
        e: EdgeId,
        bank: &BitMatrix,
        tree_interval: Option<(u32, u32)>,
    ) -> Result<(), StoreError> {
        let wpr = bank.words_per_row();
        let phi = bank
            .words()
            .get(e.index() * wpr..(e.index() + 1) * wpr)
            .ok_or(StoreError::Missing(StoreKey::edge(e)))?;
        self.put_phi(e, bank.num_cols(), phi, tree_interval)
    }

    /// Stores edge `e` with the `width`-bit `φ` whose words are `phi`.
    fn put_phi(
        &mut self,
        e: EdgeId,
        width: usize,
        phi: &[u64],
        tree_interval: Option<(u32, u32)>,
    ) -> Result<(), StoreError> {
        let key = StoreKey::edge(e);
        if width != self.cols.phi_width {
            return Err(StoreError::PhiWidth {
                key,
                expected: self.cols.phi_width,
                got: width,
            });
        }
        let row = match tree_interval {
            Some((pre, post)) => EdgeRow::Tree { pre, post },
            None => EdgeRow::NonTree,
        };
        self.write_row(
            key,
            |rows, i| rows.edges.get(i) == Some(&row) && rows.phi_row(i) == Some(phi),
            |rows, i| rows.set_edge(i, row, phi),
        )
    }

    /// Removes the record under `key`, if there is one.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] for an id past the declared range.
    pub fn remove(&mut self, key: StoreKey) -> Result<(), StoreError> {
        match key.ns {
            Namespace::Vertex => self.write_row(
                key,
                |rows, i| rows.anc.get(i) == Some(&None),
                |rows, i| rows.set_vertex(i, None),
            ),
            // An absent edge's φ row is zero already.
            Namespace::Edge => self.write_row(
                key,
                |rows, i| rows.edges.get(i) == Some(&EdgeRow::Absent),
                |rows, i| rows.set_edge(i, EdgeRow::Absent, &[]),
            ),
        }
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
            cols: self.cols.map_shards(|shard| match shard {
                Shard::Shared(rows) => rows,
                Shard::Owned(rows) => Arc::new(rows),
            }),
            uid: fresh_store_uid(),
        }
    }
}

/// The frozen, shareable label store. See the module docs for the
/// concurrency story. Two stores compare equal when their columns do,
/// whatever their uids.
#[derive(Debug)]
pub struct LabelStore {
    cols: Columns<Arc<Rows>>,
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
            cols: self.cols.clone().map_shards(Shard::Shared),
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

    /// Everything an elimination reads of fault `e`, from one lookup.
    /// `None` when `e` is not stored.
    #[inline]
    pub fn fault_column(&self, e: EdgeId) -> Option<FaultColumn<'_>> {
        let (rows, i, row) = self.edge(e)?;
        let tree_interval = match row {
            EdgeRow::Tree { pre, post } => Some((pre, post)),
            _ => None,
        };
        Some(FaultColumn {
            phi: rows.phi_row(i)?,
            tree_interval,
        })
    }
}

/// What an elimination reads of one fault edge: see
/// [`LabelStore::fault_column`].
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct FaultColumn<'a> {
    /// The words of `φ(e)` in the column bank.
    pub phi: &'a [u64],
    /// For a tree edge, the ancestry interval of its deeper endpoint
    /// ([`CycleSpaceEdgeLabel::tree_child_interval`]); `None` for a
    /// non-tree edge.
    pub tree_interval: Option<(u32, u32)>,
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
            let column = store.fault_column(e).unwrap();
            assert_eq!(column.phi, label.phi.words(), "phi words of edge {i}");
            assert_eq!(column.tree_interval, label.tree_child_interval());
        }
        // Past the declared ids: absent, not a panic.
        assert_eq!(store.vertex_anc(VertexId::new(1 << 20)), None);
        assert!(!store.read_phi_into(EdgeId::new(1 << 20), &mut phi));
        assert_eq!(store.fault_column(EdgeId::new(1 << 20)), None);
    }

    #[test]
    fn vertex_and_edge_namespaces_are_disjoint() {
        let mut b = LabelStoreBuilder::new(8, 8, 4, 2);
        b.put_vertex(VertexId::new(7), &vlabel(1, 2)).unwrap();
        let store = b.freeze();
        assert_eq!(store.vertex_anc(VertexId::new(7)), Some(vlabel(1, 2).anc));
        assert!(!store.has_edge(EdgeId::new(7)));
        assert_eq!(store.fault_column(EdgeId::new(7)), None);
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
    /// columns as storing the typed labels.
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

    /// A whole store's worth of records of a foreign label kind (a bare
    /// ancestry label under each vertex key, a vertex label under each
    /// edge key) is refused record by record with a typed `WrongKind`; an
    /// engine over the resulting empty store fails every group and query
    /// with a typed store error.
    #[test]
    fn foreign_kind_store_stays_wire_only_and_fails_typed() {
        use crate::engine::{Engine, EngineConfig, EngineError, FaultSetBatch};
        let g = ftl_graph::generators::grid(3, 3);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(9)).unwrap();
        let mut b = builder_for(&scheme, 2);
        let empty = b.clone();
        for i in 0..g.num_vertices() {
            let v = VertexId::new(i);
            let err = b.put_bytes(StoreKey::vertex(v), &scheme.vertex_label(v).anc.to_wire());
            assert!(
                matches!(err, Err(StoreError::Wire(WireError::WrongKind { .. }))),
                "{err:?}"
            );
        }
        for i in 0..g.num_edges() {
            let e = EdgeId::new(i);
            let u = g.edge(e).u();
            let err = b.put_bytes(StoreKey::edge(e), &scheme.vertex_label(u).to_wire());
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
        // its endpoints are absent too, which fails that group. No answer,
        // no panic.
        assert!(
            matches!(
                resp.groups[1],
                Err(EngineError::Store(StoreError::Missing(_)))
            ),
            "{:?}",
            resp.groups[1]
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

    /// A bank row is refused, builder unchanged, when the bank is the
    /// wrong width, has no row for the edge, or the edge is out of range.
    #[test]
    fn put_edge_row_refusals_leave_the_builder_unchanged() {
        let (_, scheme) = grid_scheme();
        let m = scheme.num_edges();
        let mut b = builder_for(&scheme, 4);
        let before = b.clone();
        let wider = BitMatrix::with_rows(m, scheme.bits_b() + 1);
        let e = EdgeId::new(0);
        assert_eq!(
            b.put_edge_row(e, &wider, None),
            Err(StoreError::PhiWidth {
                key: StoreKey::edge(e),
                expected: scheme.bits_b(),
                got: scheme.bits_b() + 1
            })
        );
        let short = BitMatrix::with_rows(1, scheme.bits_b());
        let e = EdgeId::new(1);
        assert_eq!(
            b.put_edge_row(e, &short, None),
            Err(StoreError::Missing(StoreKey::edge(e)))
        );
        let long = BitMatrix::with_rows(m + 1, scheme.bits_b());
        let e = EdgeId::new(m);
        assert_eq!(
            b.put_edge_row(e, &long, None),
            Err(StoreError::OutOfRange {
                key: StoreKey::edge(e),
                len: m
            })
        );
        assert_eq!(b, before);
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
