//! Live (incrementally maintained) cycle-space labeling for churn without
//! full rebuilds.
//!
//! The static [`CycleSpaceScheme`](crate::CycleSpaceScheme) is build-once:
//! any topology change forces a relabel of the whole graph. This module
//! maintains the same label family — ancestry intervals over a spanning
//! tree plus `b`-bit cut-detection strings `φ` forming a circulation —
//! under **edge and vertex removals**, touching only the labels that
//! actually change:
//!
//! * Removing a non-tree edge `e = (u, v)` removes one fundamental cycle
//!   from the cycle space. XOR-ing `φ(e)` into every tree edge on
//!   `tree_path(u, v)` restores the circulation invariant (per bit, the
//!   edges carrying a set bit keep even degree at every vertex) and no
//!   ancestry label moves.
//! * Removing a tree edge `t` re-hangs the orphaned subtree on a
//!   replacement non-tree edge `e′` crossing the cut. XOR-ing `φ(t)` along
//!   the fundamental cycle of `e′` (which contains `t`) zeroes `φ(t)` and
//!   preserves circulations; only the re-hung subtree is renumbered, into
//!   the spare interval left under the new attachment point by *spread*
//!   DFS numbering (raw times are multiplied by a large stride so that
//!   gaps exist between consecutive intervals).
//! * Removing a vertex removes its incident edges non-tree-first; when its
//!   last tree edge goes, the vertex is an isolated leaf and the
//!   circulation invariant forces that edge's `φ` to zero already.
//!
//! When a re-hang cannot fit in the available interval gap (after many
//! churn rounds) the scheme transparently falls back to an internal full
//! relabel with a freshly derived seed and reports the fact through
//! [`LiveDelta::full`], so callers (the engine's epoch store) know to
//! rebuild rather than patch.
//!
//! Removals that would disconnect the alive graph are rejected with
//! [`LiveError::WouldDisconnect`] and leave the structure untouched — the
//! scheme answers *connectivity under faults* and keeps the alive graph
//! connected as its resting state, mirroring the DRFE-R recovery model
//! (repair after failure, serve during repair).
//!
//! The state is flat: the `φ` bank of
//! [`assign_circulation_labels`] (one row per edge id), the ancestry,
//! parent and depth arrays, and the child lists as linked sibling lists
//! over vertex ids. A removal XORs and zeroes bank rows in place, and a
//! full relabel replaces the bank whole; the label store copies rows
//! straight out of it ([`LiveCycleSpace::phi_bank`]). A
//! [`CycleSpaceEdgeLabel`] is assembled only when one is asked for.

use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::{traversal, EdgeId, Graph, SpanningTree, VertexId};
use ftl_labels::AncestryLabel;
use ftl_seeded::Seed;

use crate::circulation::assign_circulation_labels;
use crate::labeling::{
    default_bits, tree_child_interval, CycleSpaceEdgeLabel, CycleSpaceVertexLabel,
};

/// Errors surfaced by live mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveError {
    /// The vertex is not alive (never existed or already removed).
    MissingVertex(VertexId),
    /// The edge is not alive (never existed or already removed).
    MissingEdge(EdgeId),
    /// Removing this edge/vertex would disconnect the alive graph.
    WouldDisconnect,
    /// Refusing to remove the final alive vertex.
    LastVertex,
    /// The initial graph is not connected.
    Disconnected,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::MissingVertex(v) => write!(f, "vertex {} is not alive", v.index()),
            LiveError::MissingEdge(e) => write!(f, "edge {} is not alive", e.index()),
            LiveError::WouldDisconnect => write!(f, "removal would disconnect the alive graph"),
            LiveError::LastVertex => write!(f, "refusing to remove the last alive vertex"),
            LiveError::Disconnected => write!(f, "graph is not connected"),
        }
    }
}

impl std::error::Error for LiveError {}

/// Change set accumulated since the last [`LiveCycleSpace::take_delta`].
///
/// `upsert` ids are alive and their store rows changed, listed in the
/// order they were first changed (id order after a full relabel): a
/// vertex's ancestry interval, or an edge's `φ` row or tree child interval
/// ([`LiveCycleSpace::tree_child_interval`]). An edge whose row did not
/// change is not listed even when an endpoint's interval moved, so its
/// [`LiveCycleSpace::edge_label`], which embeds both endpoints' ancestry,
/// may differ from the one read before. `removed` ids are dead and must be
/// evicted from any derived store. When `full` is set the scheme performed
/// an internal full relabel and *every* alive label changed — consumers
/// should rebuild rather than patch.
#[derive(Debug, Clone, Default)]
pub struct LiveDelta {
    /// Alive vertices whose labels (ancestry intervals) changed.
    pub vertex_upserts: Vec<VertexId>,
    /// Alive edges whose store rows (`φ` row, tree child interval)
    /// changed.
    pub edge_upserts: Vec<EdgeId>,
    /// Vertices removed since the last delta.
    pub removed_vertices: Vec<VertexId>,
    /// Edges removed since the last delta.
    pub removed_edges: Vec<EdgeId>,
    /// Whether the scheme fell back to a full relabel.
    pub full: bool,
}

impl LiveDelta {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.vertex_upserts.is_empty()
            && self.edge_upserts.is_empty()
            && self.removed_vertices.is_empty()
            && self.removed_edges.is_empty()
            && !self.full
    }
}

/// Outcome of a tree-edge removal attempt (internal).
enum TreeRemove {
    Done,
    /// No spare numbering interval for the re-hang: caller must relabel.
    NeedRebuild,
    /// No replacement edge crosses the cut: removal would disconnect.
    WouldDisconnect,
}

/// No vertex, in [`Children`]' links.
const NIL: u32 = u32::MAX;

/// The child lists of the live tree as doubly linked sibling lists over
/// vertex ids. They keep the order a `Vec` per vertex would (append at the
/// end, unlink in place) in four flat arrays, so building them costs no
/// allocation per vertex. A vertex is in at most one list: its parent's.
#[derive(Debug, Clone)]
struct Children {
    first: Vec<u32>,
    last: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

fn vertex(raw: u32) -> Option<VertexId> {
    (raw != NIL).then(|| VertexId::new(raw as usize))
}

impl Children {
    fn new(n: usize) -> Self {
        Children {
            first: vec![NIL; n],
            last: vec![NIL; n],
            next: vec![NIL; n],
            prev: vec![NIL; n],
        }
    }

    /// Empties every list.
    fn clear(&mut self) {
        for links in [
            &mut self.first,
            &mut self.last,
            &mut self.next,
            &mut self.prev,
        ] {
            links.fill(NIL);
        }
    }

    fn first(&self, p: VertexId) -> Option<VertexId> {
        vertex(self.first[p.index()])
    }

    /// Appends `c`, which is in no list, to `p`'s.
    fn push(&mut self, p: VertexId, c: VertexId) {
        let (p, c) = (p.index(), c.index());
        let tail = self.last[p];
        self.prev[c] = tail;
        self.next[c] = NIL;
        match tail {
            NIL => self.first[p] = c as u32,
            t => self.next[t as usize] = c as u32,
        }
        self.last[p] = c as u32;
    }

    /// Unlinks `c` from `p`'s list, which holds it.
    fn remove(&mut self, p: VertexId, c: VertexId) {
        let (p, c) = (p.index(), c.index());
        let (before, after) = (self.prev[c], self.next[c]);
        match before {
            NIL => self.first[p] = after,
            b => self.next[b as usize] = after,
        }
        match after {
            NIL => self.last[p] = before,
            a => self.prev[a as usize] = before,
        }
        self.prev[c] = NIL;
        self.next[c] = NIL;
    }

    /// `p`'s children, first to last.
    fn of(&self, p: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        std::iter::successors(self.first(p), |c| vertex(self.next[c.index()]))
    }

    /// `p`'s children, last to first.
    fn of_rev(&self, p: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        std::iter::successors(vertex(self.last[p.index()]), |c| {
            vertex(self.prev[c.index()])
        })
    }
}

/// Ids marked since the last drain: a flag per id plus the marked ids in
/// marking order, so a drain costs the marks, not the id space.
#[derive(Debug, Clone)]
struct Marks {
    flag: Vec<bool>,
    list: Vec<usize>,
}

impl Marks {
    fn new(n: usize) -> Self {
        Marks {
            flag: vec![false; n],
            list: Vec::new(),
        }
    }

    fn mark(&mut self, i: usize) {
        if !self.flag[i] {
            self.flag[i] = true;
            self.list.push(i);
        }
    }

    /// Empties the set, returning the marked ids that pass `keep` in the
    /// order they were first marked.
    fn drain(&mut self, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut ids = std::mem::take(&mut self.list);
        for &i in &ids {
            self.flag[i] = false;
        }
        ids.retain(|&i| keep(i));
        ids
    }
}

/// Incrementally maintained cycle-space labeling over a fixed edge-id
/// space with liveness masks.
///
/// The underlying [`Graph`] is immutable; removals flip `alive` masks and
/// patch the spanning tree and `φ` bank in place. Label ids therefore stay
/// stable across the lifetime of the structure, which is what lets a
/// derived store splice unchanged shards between epochs.
#[derive(Debug, Clone)]
pub struct LiveCycleSpace {
    graph: Graph,
    b: usize,
    seed: Seed,
    /// Number of internal full relabels performed (seeds each relabel).
    relabels: u64,
    root: VertexId,
    alive_vertex: Vec<bool>,
    alive_edge: Vec<bool>,
    /// `φ(e)` in row `e`; zero rows for dead edges.
    phi: BitMatrix,
    is_tree: Vec<bool>,
    parent: Vec<Option<(VertexId, EdgeId)>>,
    children: Children,
    depth: Vec<u32>,
    pre: Vec<u32>,
    post: Vec<u32>,
    dirty_vertex: Marks,
    dirty_edge: Marks,
    removed_vertices: Vec<VertexId>,
    removed_edges: Vec<EdgeId>,
    all_dirty: bool,
}

impl LiveCycleSpace {
    /// Builds the live scheme against up to `f` faults, with the same
    /// `b = f + slack` width the static scheme would pick for this graph.
    pub fn new(graph: &Graph, f: usize, seed: Seed) -> Result<Self, LiveError> {
        Self::with_bits(graph, default_bits(graph.num_vertices(), f), seed)
    }

    /// Builds the live scheme with an explicit `φ` width `b`.
    pub fn with_bits(graph: &Graph, b: usize, seed: Seed) -> Result<Self, LiveError> {
        if graph.num_vertices() == 0 {
            return Err(LiveError::Disconnected);
        }
        let nv = graph.num_vertices();
        let ne = graph.num_edges();
        let mut live = LiveCycleSpace {
            graph: graph.clone(),
            b,
            seed,
            relabels: 0,
            root: VertexId::new(0),
            alive_vertex: vec![true; nv],
            alive_edge: vec![true; ne],
            phi: BitMatrix::new(b),
            is_tree: vec![false; ne],
            parent: vec![None; nv],
            children: Children::new(nv),
            depth: vec![0; nv],
            pre: vec![u32::MAX; nv],
            post: vec![u32::MAX; nv],
            dirty_vertex: Marks::new(nv),
            dirty_edge: Marks::new(ne),
            removed_vertices: Vec::new(),
            removed_edges: Vec::new(),
            all_dirty: false,
        };
        // The first relabel's BFS is the connectivity check.
        if !live.relabel_connected() {
            return Err(LiveError::Disconnected);
        }
        Ok(live)
    }

    /// The underlying (immutable) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// `φ` width in bits.
    pub fn bits(&self) -> usize {
        self.b
    }

    /// Current spanning-tree root.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Number of internal full relabels performed so far.
    pub fn relabels(&self) -> u64 {
        self.relabels
    }

    /// Whether `v` is alive.
    pub fn is_alive_vertex(&self, v: VertexId) -> bool {
        v.index() < self.alive_vertex.len() && self.alive_vertex[v.index()]
    }

    /// Whether `e` is alive.
    pub fn is_alive_edge(&self, e: EdgeId) -> bool {
        e.index() < self.alive_edge.len() && self.alive_edge[e.index()]
    }

    /// Number of alive vertices.
    pub fn num_alive_vertices(&self) -> usize {
        self.alive_vertex.iter().filter(|&&a| a).count()
    }

    /// Number of alive edges.
    pub fn num_alive_edges(&self) -> usize {
        self.alive_edge.iter().filter(|&&a| a).count()
    }

    /// Alive vertices in id order.
    pub fn alive_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive_vertex
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| VertexId::new(i))
    }

    /// Alive edges in id order.
    pub fn alive_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.alive_edge
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| EdgeId::new(i))
    }

    /// Forbidden-edge mask covering every *dead* edge — the base mask for
    /// ground-truth reachability on the mutated topology (union it with a
    /// query's fault set).
    pub fn forbidden_base(&self) -> Vec<bool> {
        self.alive_edge.iter().map(|&a| !a).collect()
    }

    /// Label of an alive vertex.
    pub fn vertex_label(&self, v: VertexId) -> CycleSpaceVertexLabel {
        debug_assert!(self.is_alive_vertex(v));
        CycleSpaceVertexLabel {
            anc: AncestryLabel {
                pre: self.pre[v.index()],
                post: self.post[v.index()],
            },
        }
    }

    /// Label of an alive edge.
    pub fn edge_label(&self, e: EdgeId) -> CycleSpaceEdgeLabel {
        debug_assert!(self.is_alive_edge(e));
        let edge = self.graph.edge(e);
        let anc_of = |v: VertexId| AncestryLabel {
            pre: self.pre[v.index()],
            post: self.post[v.index()],
        };
        CycleSpaceEdgeLabel {
            phi: self.phi.row_to_bitvec(e.index()),
            anc_u: anc_of(edge.u()),
            anc_v: anc_of(edge.v()),
            is_tree: self.is_tree[e.index()],
        }
    }

    /// The `φ` bank: row `e` is `φ(e)` for an alive edge `e`, zero for a
    /// dead one.
    pub fn phi_bank(&self) -> &BitMatrix {
        &self.phi
    }

    /// `edge_label(e).tree_child_interval()` of an alive edge, without
    /// assembling the label.
    pub fn tree_child_interval(&self, e: EdgeId) -> Option<(u32, u32)> {
        debug_assert!(self.is_alive_edge(e));
        let edge = self.graph.edge(e);
        let anc_of = |v: VertexId| AncestryLabel {
            pre: self.pre[v.index()],
            post: self.post[v.index()],
        };
        tree_child_interval(self.is_tree[e.index()], anc_of(edge.u()), anc_of(edge.v()))
    }

    /// Drains the accumulated change set.
    pub fn take_delta(&mut self) -> LiveDelta {
        let mut delta = LiveDelta {
            full: self.all_dirty,
            removed_vertices: std::mem::take(&mut self.removed_vertices),
            removed_edges: std::mem::take(&mut self.removed_edges),
            ..LiveDelta::default()
        };
        let (alive_vertex, alive_edge) = (&self.alive_vertex, &self.alive_edge);
        let vertices = self.dirty_vertex.drain(|i| alive_vertex[i]);
        let edges = self.dirty_edge.drain(|i| alive_edge[i]);
        if self.all_dirty {
            delta.vertex_upserts = self.alive_vertices().collect();
            delta.edge_upserts = self.alive_edges().collect();
        } else {
            delta.vertex_upserts = vertices.into_iter().map(VertexId::new).collect();
            delta.edge_upserts = edges.into_iter().map(EdgeId::new).collect();
        }
        self.all_dirty = false;
        delta
    }

    /// Removes an alive edge, patching `φ` along its fundamental cycle (or
    /// re-hanging the orphaned subtree for a tree edge). Errors leave the
    /// structure unchanged.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<(), LiveError> {
        if !self.is_alive_edge(e) {
            return Err(LiveError::MissingEdge(e));
        }
        if self.is_tree[e.index()] {
            match self.remove_tree_edge(e) {
                TreeRemove::Done => Ok(()),
                TreeRemove::WouldDisconnect => Err(LiveError::WouldDisconnect),
                TreeRemove::NeedRebuild => {
                    self.kill_edge(e);
                    self.relabel();
                    Ok(())
                }
            }
        } else {
            self.remove_non_tree_edge(e);
            Ok(())
        }
    }

    /// Removes an alive vertex and all its incident edges. Errors leave
    /// the structure unchanged.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<(), LiveError> {
        if !self.is_alive_vertex(v) {
            return Err(LiveError::MissingVertex(v));
        }
        let alive_count = self.num_alive_vertices();
        if alive_count == 1 {
            return Err(LiveError::LastVertex);
        }
        // Connectivity pre-check: the alive graph minus v (and all its
        // incident edges) must stay connected.
        if !self.connected_without(v) {
            return Err(LiveError::WouldDisconnect);
        }

        if v == self.root {
            // Re-rooting is a global renumbering anyway: take the rebuild.
            self.kill_vertex_brutally(v);
            self.relabel();
            return Ok(());
        }

        // 1. Non-tree incident edges first (cheap fundamental-cycle XORs);
        //    this also guarantees later tree-edge replacements never
        //    attach anything back to v.
        let incident: Vec<EdgeId> = self.graph.neighbors(v).iter().map(|nb| nb.edge).collect();
        for e in incident {
            if self.is_alive_edge(e) && !self.is_tree[e.index()] {
                self.remove_non_tree_edge(e);
            }
        }

        // 2. Child tree edges: re-hang each child subtree elsewhere. The
        //    pre-check guarantees a replacement exists; a failed gap check
        //    falls back to a full relabel.
        while let Some(c) = self.children.first(v) {
            let (_, te) = self.parent[c.index()].expect("child has parent edge");
            match self.remove_tree_edge(te) {
                TreeRemove::Done => {}
                TreeRemove::NeedRebuild | TreeRemove::WouldDisconnect => {
                    self.kill_vertex_brutally(v);
                    self.relabel();
                    return Ok(());
                }
            }
        }

        // 3. Final parent edge: v is now a leaf whose only alive incident
        //    edge is its parent edge t. Per bit, the circulation invariant
        //    forces φ(t) = 0 (t is the only edge that could carry a set
        //    bit at v), so dropping it preserves all circulations.
        let (p, t) = self.parent[v.index()].expect("non-root has a parent");
        debug_assert!(
            self.phi.row_is_zero(t.index()),
            "leaf parent edge must carry zero φ"
        );
        self.kill_edge(t);
        self.children.remove(p, v);
        self.parent[v.index()] = None;

        // 4. Kill the vertex itself.
        self.alive_vertex[v.index()] = false;
        self.removed_vertices.push(v);
        Ok(())
    }

    /// Forces a full relabel of the alive graph with a freshly derived
    /// seed. The next [`take_delta`](Self::take_delta) reports
    /// `full = true`. This is what a non-incremental consumer does every
    /// round — exposed so benchmarks can measure that baseline honestly —
    /// and what a removal falls back to when a re-hang finds no spare
    /// interval.
    ///
    /// It is the static scheme's construction over the alive graph: the
    /// BFS spanning tree from the lowest alive id with its DFS numbering
    /// ([`SpanningTree::from_bfs`]) and the circulation sampling of
    /// [`assign_circulation_labels`] with the dead edges masked out. Only
    /// the numbering is *spread*: the DFS times are multiplied by a
    /// stride, so later re-hangs find spare values between intervals.
    pub fn relabel(&mut self) {
        let connected = self.relabel_connected();
        debug_assert!(connected, "alive graph must be connected at relabel time");
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// [`relabel`](Self::relabel), if its BFS from the lowest alive id
    /// reaches every alive vertex; otherwise returns `false` and changes
    /// nothing.
    fn relabel_connected(&mut self) -> bool {
        let root = self
            .alive_vertices()
            .next()
            .expect("relabel requires an alive vertex");
        let dead = self.forbidden_base();
        let bfs = traversal::bfs(&self.graph, root, &dead);
        if (0..self.graph.num_vertices()).any(|i| self.alive_vertex[i] && bfs.dist[i].is_none()) {
            return false;
        }
        self.relabels += 1;
        let seed = self.seed.derive(0x11FE).derive(self.relabels);
        self.root = root;
        let tree = SpanningTree::from_bfs(&self.graph, root, &bfs);

        let k = self.num_alive_vertices() as u64;
        let stride = ((u32::MAX - 2) as u64 / (2 * k + 2)) as u32;
        self.children.clear();
        for i in 0..self.graph.num_vertices() {
            let v = VertexId::new(i);
            self.parent[i] = tree.parent(v);
            for &c in tree.children(v) {
                self.children.push(v, c);
            }
            self.depth[i] = tree.depth(v);
            (self.pre[i], self.post[i]) = if tree.contains(v) {
                (tree.pre(v) * stride, tree.post(v) * stride)
            } else {
                (u32::MAX, u32::MAX)
            };
        }
        for (id, _) in self.graph.edge_ids() {
            self.is_tree[id.index()] = tree.is_tree_edge(id);
        }
        // Free the old bank before sampling the new one, so a relabel
        // never holds two.
        self.phi = BitMatrix::new(self.b);
        self.phi = assign_circulation_labels(&self.graph, &tree, &dead, self.b, seed);
        self.all_dirty = true;
        true
    }

    /// Whether the alive graph minus `v` and its incident edges is
    /// connected.
    ///
    /// The search costs `v`'s subtree, not the graph. The *anchor* stays
    /// connected through tree edges once `v` is gone: the alive vertices
    /// outside `v`'s subtree, or, when `v` is the root, its first child's
    /// subtree. The graph stays connected iff every other vertex below `v`
    /// reaches the anchor, so the search is seeded at the vertices with an
    /// alive edge into the anchor and spreads through the rest, never
    /// entering `v`.
    fn connected_without(&self, v: VertexId) -> bool {
        let within = |w: VertexId, c: VertexId| {
            self.pre[c.index()] <= self.pre[w.index()]
                && self.pre[w.index()] <= self.post[c.index()]
        };
        let mut kids = self.children.of(v);
        let root_anchor = if v == self.root { kids.next() } else { None };
        let in_anchor = |w: VertexId| match root_anchor {
            Some(c) => within(w, c),
            None => !within(w, v),
        };
        let mut below: Vec<VertexId> = kids.collect();
        let mut next = 0;
        while let Some(&w) = below.get(next) {
            next += 1;
            below.extend(self.children.of(w));
        }
        let alive_neighbors = |w: VertexId| {
            self.graph
                .neighbors(w)
                .iter()
                .filter(|nb| {
                    self.alive_edge[nb.edge.index()] && self.alive_vertex[nb.vertex.index()]
                })
                .map(|nb| nb.vertex)
        };
        let mut reached = vec![false; self.graph.num_vertices()];
        let mut queue: Vec<VertexId> = Vec::with_capacity(below.len());
        for &w in &below {
            if alive_neighbors(w).any(in_anchor) {
                reached[w.index()] = true;
                queue.push(w);
            }
        }
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            for x in alive_neighbors(u) {
                if x != v && !in_anchor(x) && !reached[x.index()] {
                    reached[x.index()] = true;
                    queue.push(x);
                }
            }
        }
        queue.len() == below.len()
    }

    /// Marks an edge dead and zeroes its φ row. Does not touch the tree.
    fn kill_edge(&mut self, e: EdgeId) {
        self.alive_edge[e.index()] = false;
        self.is_tree[e.index()] = false;
        self.phi.zero_row(e.index());
        self.removed_edges.push(e);
    }

    /// Kills `v` and every alive incident edge without repairing anything.
    /// Only valid immediately before a full relabel.
    fn kill_vertex_brutally(&mut self, v: VertexId) {
        let incident: Vec<EdgeId> = self.graph.neighbors(v).iter().map(|nb| nb.edge).collect();
        for e in incident {
            if self.is_alive_edge(e) {
                self.kill_edge(e);
            }
        }
        self.alive_vertex[v.index()] = false;
        self.removed_vertices.push(v);
    }

    /// Removes a non-tree alive edge: XOR `φ(e)` into every tree edge on
    /// the tree path between its endpoints (the rest of its fundamental
    /// cycle), then drop it. A self-loop has an empty path.
    fn remove_non_tree_edge(&mut self, e: EdgeId) {
        let edge = self.graph.edge(e);
        let (u, v) = (edge.u(), edge.v());
        if u != v {
            // The path holds tree edges only, never `e` itself.
            for t in self.tree_path(u, v) {
                self.phi.xor_rows(t.index(), e.index());
                self.dirty_edge.mark(t.index());
            }
        }
        self.kill_edge(e);
    }

    /// Tree edges on the unique tree path between `u` and `v`, by
    /// depth-balanced parent climbing (order is irrelevant for XOR).
    fn tree_path(&self, u: VertexId, v: VertexId) -> Vec<EdgeId> {
        let mut path = Vec::new();
        let (mut a, mut b) = (u, v);
        while self.depth[a.index()] > self.depth[b.index()] {
            let (p, e) = self.parent[a.index()].expect("deeper vertex has parent");
            path.push(e);
            a = p;
        }
        while self.depth[b.index()] > self.depth[a.index()] {
            let (p, e) = self.parent[b.index()].expect("deeper vertex has parent");
            path.push(e);
            b = p;
        }
        while a != b {
            let (pa, ea) = self.parent[a.index()].expect("vertex below lca has parent");
            let (pb, eb) = self.parent[b.index()].expect("vertex below lca has parent");
            path.push(ea);
            path.push(eb);
            a = pa;
            b = pb;
        }
        path
    }

    /// Subtree of `c` (including `c`) via the children lists.
    fn subtree_of(&self, c: VertexId) -> Vec<VertexId> {
        let mut sub = vec![c];
        let mut stack = vec![c];
        while let Some(w) = stack.pop() {
            for ch in self.children.of(w) {
                sub.push(ch);
                stack.push(ch);
            }
        }
        sub
    }

    /// Removes an alive tree edge by re-hanging the orphaned subtree on a
    /// replacement non-tree edge. All checks happen before any mutation.
    fn remove_tree_edge(&mut self, e: EdgeId) -> TreeRemove {
        let edge = self.graph.edge(e);
        let (eu, ev) = (edge.u(), edge.v());
        // The child endpoint is the one whose parent edge is e.
        let c = if self.parent[eu.index()].is_some_and(|(_, pe)| pe == e) {
            eu
        } else {
            debug_assert!(self.parent[ev.index()].is_some_and(|(_, pe)| pe == e));
            ev
        };
        let p = self.parent[c.index()]
            .expect("tree-edge child has parent")
            .0;

        let sub = self.subtree_of(c);
        let (c_pre, c_post) = (self.pre[c.index()], self.post[c.index()]);
        let in_sub = |w: VertexId, pre: &[u32]| c_pre <= pre[w.index()] && pre[w.index()] <= c_post;

        // Replacement search: an alive non-tree edge from the subtree to
        // the rest of the alive graph.
        let mut replacement: Option<(VertexId, VertexId, EdgeId)> = None;
        'search: for &w in &sub {
            for nb in self.graph.neighbors(w) {
                if nb.edge != e
                    && self.is_alive_edge(nb.edge)
                    && !self.is_tree[nb.edge.index()]
                    && self.alive_vertex[nb.vertex.index()]
                    && !in_sub(nb.vertex, &self.pre)
                {
                    replacement = Some((w, nb.vertex, nb.edge));
                    break 'search;
                }
            }
        }
        let Some((x, y, rep)) = replacement else {
            return TreeRemove::WouldDisconnect;
        };

        // Gap check (still no mutation): the re-hung subtree needs 2k
        // fresh DFS times strictly between y's deepest existing child
        // interval and post(y).
        let k = sub.len() as u64;
        let low = self
            .children
            .of(y)
            .map(|ch| self.post[ch.index()])
            .max()
            .unwrap_or(0)
            .max(self.pre[y.index()]);
        let high = self.post[y.index()];
        let avail = (high as u64).saturating_sub(low as u64).saturating_sub(1);
        let step = avail / (2 * k);
        if step == 0 {
            return TreeRemove::NeedRebuild;
        }

        // --- Mutation starts here ---

        // φ repair: XOR φ(e) along the fundamental cycle of the
        // replacement edge (tree path x..y plus rep itself). The path
        // contains e, so φ(e) self-cancels to zero; every circulation is
        // preserved because we added a cycle's characteristic vector. In
        // place: row e goes into every other row of the cycle, then
        // `kill_edge` zeroes it.
        if !self.phi.row_is_zero(e.index()) {
            let path = self.tree_path(x, y);
            debug_assert!(path.contains(&e));
            for t in path {
                if t != e {
                    self.phi.xor_rows(t.index(), e.index());
                }
                self.dirty_edge.mark(t.index());
            }
            self.phi.xor_rows(rep.index(), e.index());
        }

        // Drop e from the tree and the alive set.
        self.children.remove(p, c);
        self.parent[c.index()] = None;
        self.kill_edge(e);

        // Reverse the parent chain x → … → c so the subtree hangs off x.
        let mut chain = vec![x];
        let mut chain_edges = Vec::new();
        let mut w = x;
        while w != c {
            let (pw, ew) = self.parent[w.index()].expect("chain inside subtree");
            chain_edges.push(ew);
            chain.push(pw);
            w = pw;
        }
        for i in 0..chain_edges.len() {
            self.children.remove(chain[i + 1], chain[i]);
        }
        for i in 0..chain_edges.len() {
            self.parent[chain[i + 1].index()] = Some((chain[i], chain_edges[i]));
            self.children.push(chain[i], chain[i + 1]);
        }
        self.parent[x.index()] = Some((y, rep));
        self.children.push(y, x);
        self.is_tree[rep.index()] = true;
        self.dirty_edge.mark(rep.index());

        // Renumber the subtree into the gap under y with stride `step`.
        let mut slot = 0u64;
        let mut next_time = || {
            slot += 1;
            (low as u64 + slot * step) as u32
        };
        self.depth[x.index()] = self.depth[y.index()] + 1;
        let mut stack = vec![(x, false)];
        while let Some((w, done)) = stack.pop() {
            if done {
                self.post[w.index()] = next_time();
                continue;
            }
            self.pre[w.index()] = next_time();
            stack.push((w, true));
            // Push children in reverse so the DFS visits them in order.
            for ch in self.children.of_rev(w) {
                self.depth[ch.index()] = self.depth[w.index()] + 1;
                stack.push((ch, false));
            }
        }
        debug_assert_eq!(slot, 2 * k);
        debug_assert!(self.post[x.index()] < high);

        // Dirty marking: every subtree vertex moved, so its own label and
        // its parent edge's tree child interval changed. The cycle path and
        // `rep` are marked above; no other edge's `φ` or interval moved.
        for &w in &sub {
            self.dirty_vertex.mark(w.index());
            let (_, pe) = self.parent[w.index()].expect("re-hung vertex has parent");
            self.dirty_edge.mark(pe.index());
        }
        TreeRemove::Done
    }

    /// Debug check: per bit, alive edges carrying a set bit have even
    /// degree at every alive vertex (XOR of incident φ is zero
    /// everywhere, self-loops excluded).
    #[doc(hidden)]
    pub fn check_circulation(&self) -> bool {
        for v in self.alive_vertices() {
            let mut x = BitVec::zeros(self.b);
            for nb in self.graph.neighbors(v) {
                if self.is_alive_edge(nb.edge) && nb.vertex != v {
                    self.phi.xor_row_into_bitvec(nb.edge.index(), &mut x);
                }
            }
            if !x.is_zero() {
                return false;
            }
        }
        true
    }

    /// Debug check: the alive tree edges form a spanning tree of the
    /// alive graph and ancestry intervals nest properly.
    #[doc(hidden)]
    pub fn check_tree(&self) -> bool {
        let k = self.num_alive_vertices();
        let tree_edges = (0..self.graph.num_edges())
            .filter(|&e| self.alive_edge[e] && self.is_tree[e])
            .count();
        if tree_edges != k.saturating_sub(1) {
            return false;
        }
        for v in self.alive_vertices() {
            if self.pre[v.index()] >= self.post[v.index()] {
                return false;
            }
            match self.parent[v.index()] {
                None => {
                    if v != self.root {
                        return false;
                    }
                }
                Some((p, e)) => {
                    if !self.alive_vertex[p.index()]
                        || !self.alive_edge[e.index()]
                        || !self.is_tree[e.index()]
                    {
                        return false;
                    }
                    // Parent interval strictly contains the child's.
                    if !(self.pre[p.index()] < self.pre[v.index()]
                        && self.post[v.index()] < self.post[p.index()])
                    {
                        return false;
                    }
                    if !self.children.of(p).any(|w| w == v) {
                        return false;
                    }
                    if self.depth[v.index()] != self.depth[p.index()] + 1 {
                        return false;
                    }
                }
            }
        }
        // Every alive vertex must be reachable from the root via children.
        if self.subtree_of(self.root).len() != k {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;

    fn assert_invariants(live: &LiveCycleSpace) {
        assert!(live.check_tree(), "tree invariant violated");
        assert!(live.check_circulation(), "circulation invariant violated");
    }

    /// Ground truth: s-t connectivity on the alive graph.
    fn alive_connected(live: &LiveCycleSpace, s: VertexId, t: VertexId) -> bool {
        traversal::connected_avoiding(live.graph(), s, t, &live.forbidden_base())
    }

    /// The live and the static scheme pick the same `φ` width, on both
    /// sides of the power-of-two steps of `⌈log₂ n⌉` and at the 16-bit
    /// floor.
    #[test]
    fn live_and_static_schemes_pick_the_same_width() {
        for n in [2, 3, 1023, 1024, 1025] {
            let g = generators::path(n);
            for f in [0, 4] {
                let live = LiveCycleSpace::new(&g, f, Seed::new(1)).unwrap();
                let scheme = crate::CycleSpaceScheme::label(&g, f, Seed::new(1)).unwrap();
                assert_eq!(live.bits(), scheme.bits_b(), "n = {n}, f = {f}");
                assert_eq!(live.bits(), default_bits(n, f), "n = {n}, f = {f}");
            }
        }
        assert_eq!(default_bits(2, 0), 16);
        assert_eq!(default_bits(1024, 4), 4 + 40);
        assert_eq!(default_bits(1025, 4), 4 + 44);
    }

    /// A fresh live labeling is the static scheme's construction with the
    /// DFS times spread: every ancestry interval is the static one times
    /// the stride (the root's static entry time is 1), and both pick the
    /// same tree edges.
    #[test]
    fn fresh_live_labeling_is_the_static_scheme_spread() {
        for g in [
            generators::grid(6, 7),
            generators::complete(6),
            generators::cycle(9),
        ] {
            let live = LiveCycleSpace::with_bits(&g, 24, Seed::new(3)).unwrap();
            let scheme = crate::CycleSpaceScheme::label_with_bits(&g, 24, Seed::new(3)).unwrap();
            let stride = live.vertex_label(live.root()).anc.pre;
            assert!(stride > 1);
            for v in g.vertices() {
                let (fresh, base) = (live.vertex_label(v).anc, scheme.vertex_label(v).anc);
                assert_eq!(fresh.pre, base.pre * stride, "pre of {v:?}");
                assert_eq!(fresh.post, base.post * stride, "post of {v:?}");
            }
            for (e, _) in g.edge_ids() {
                assert_eq!(live.edge_label(e).is_tree, scheme.edge_label(e).is_tree);
            }
        }
    }

    #[test]
    fn initial_labeling_is_consistent() {
        for g in [
            generators::path(8),
            generators::cycle(9),
            generators::grid(4, 5),
            generators::complete(6),
        ] {
            let live = LiveCycleSpace::new(&g, 4, Seed::new(7)).unwrap();
            assert_invariants(&live);
            assert_eq!(live.num_alive_vertices(), g.num_vertices());
            assert_eq!(live.num_alive_edges(), g.num_edges());
        }
    }

    #[test]
    fn disconnected_graph_rejected() {
        let mut b = ftl_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(
            LiveCycleSpace::new(&g, 4, Seed::new(1)).unwrap_err(),
            LiveError::Disconnected
        );
    }

    #[test]
    fn non_tree_edge_removal_patches_path_only() {
        let g = generators::cycle(10);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(3)).unwrap();
        live.take_delta();
        // A cycle has exactly one non-tree edge.
        let nt = live
            .alive_edges()
            .find(|&e| !live.is_tree[e.index()])
            .unwrap();
        live.remove_edge(nt).unwrap();
        assert_invariants(&live);
        let delta = live.take_delta();
        assert!(!delta.full);
        assert_eq!(delta.removed_edges, vec![nt]);
        assert!(delta.vertex_upserts.is_empty(), "no ancestry moved");
        // All remaining (tree) edges had φ(nt) XORed in.
        assert_eq!(delta.edge_upserts.len(), 9);
    }

    #[test]
    fn tree_edge_removal_rehangs_subtree() {
        let g = generators::cycle(12);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(5)).unwrap();
        live.take_delta();
        let te = live
            .alive_edges()
            .find(|&e| live.is_tree[e.index()])
            .unwrap();
        live.remove_edge(te).unwrap();
        assert_invariants(&live);
        let delta = live.take_delta();
        assert!(!delta.full, "cycle re-hang should not need a rebuild");
        assert_eq!(delta.removed_edges, vec![te]);
        assert!(!delta.vertex_upserts.is_empty(), "subtree renumbered");
    }

    #[test]
    fn bridge_removal_rejected_and_state_unchanged() {
        let g = generators::path(6);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(11)).unwrap();
        live.take_delta();
        let before = live.clone();
        for e in 0..g.num_edges() {
            assert_eq!(
                live.remove_edge(EdgeId::new(e)).unwrap_err(),
                LiveError::WouldDisconnect
            );
        }
        assert_eq!(live.num_alive_edges(), before.num_alive_edges());
        assert!(live.take_delta().is_empty());
        assert_invariants(&live);
    }

    #[test]
    fn cut_vertex_removal_rejected() {
        // A star's center is a cut vertex.
        let g = generators::star(5);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(2)).unwrap();
        let center = (0..g.num_vertices())
            .map(VertexId::new)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        assert_eq!(
            live.remove_vertex(center).unwrap_err(),
            LiveError::WouldDisconnect
        );
        assert_invariants(&live);
    }

    #[test]
    fn vertex_removal_on_complete_graph() {
        let g = generators::complete(7);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(4)).unwrap();
        live.take_delta();
        for i in [6usize, 3, 0] {
            live.remove_vertex(VertexId::new(i)).unwrap();
            assert_invariants(&live);
            let delta = live.take_delta();
            assert!(delta.removed_vertices.contains(&VertexId::new(i)));
            assert!(!live.is_alive_vertex(VertexId::new(i)));
        }
        assert_eq!(live.num_alive_vertices(), 4);
        // Every surviving pair is still connected.
        for s in live.alive_vertices() {
            for t in live.alive_vertices() {
                assert!(alive_connected(&live, s, t));
            }
        }
    }

    #[test]
    fn root_removal_forces_full_relabel() {
        let g = generators::complete(5);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(9)).unwrap();
        live.take_delta();
        let root = live.root();
        live.remove_vertex(root).unwrap();
        assert_invariants(&live);
        let delta = live.take_delta();
        assert!(delta.full, "root removal relabels from scratch");
        assert!(delta.removed_vertices.contains(&root));
        assert_ne!(live.root(), root);
    }

    #[test]
    fn random_churn_preserves_invariants_grid() {
        let g = generators::grid(6, 6);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(0xC0FFEE)).unwrap();
        live.take_delta();
        let mut rng = Seed::new(0xD1CE).stream();
        let mut removed = 0usize;
        let mut attempts = 0usize;
        while removed < 20 && attempts < 400 {
            attempts += 1;
            if rng().is_multiple_of(4) {
                let alive: Vec<VertexId> = live.alive_vertices().collect();
                let v = alive[(rng() % alive.len() as u64) as usize];
                if v != live.root() && live.remove_vertex(v).is_ok() {
                    removed += 1;
                }
            } else {
                let alive: Vec<EdgeId> = live.alive_edges().collect();
                let e = alive[(rng() % alive.len() as u64) as usize];
                if live.remove_edge(e).is_ok() {
                    removed += 1;
                }
            }
            assert_invariants(&live);
        }
        assert!(removed >= 20, "only {removed} removals in {attempts} tries");
        // Alive graph still fully connected.
        for s in live.alive_vertices() {
            for t in live.alive_vertices() {
                assert!(alive_connected(&live, s, t));
            }
        }
    }

    #[test]
    fn dirty_tracking_is_exact_for_non_tree_removal() {
        let g = generators::grid(5, 5);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(21)).unwrap();
        live.take_delta();
        let before = live.clone();
        let nt = live
            .alive_edges()
            .find(|&e| !live.is_tree[e.index()])
            .unwrap();
        live.remove_edge(nt).unwrap();
        let delta = live.take_delta();
        // Every alive edge NOT in the upsert list must be byte-identical
        // to its pre-removal label.
        for e in live.alive_edges() {
            if !delta.edge_upserts.contains(&e) {
                assert_eq!(live.edge_label(e), before.edge_label(e));
            }
        }
        for v in live.alive_vertices() {
            if !delta.vertex_upserts.contains(&v) {
                assert_eq!(live.vertex_label(v).anc, before.vertex_label(v).anc);
            }
        }
    }

    #[test]
    fn dirty_tracking_is_exact_for_tree_removal() {
        // The edge upserts are exactly the edges whose store row (`φ` row
        // plus tree child interval) changed; the vertex upserts cover every
        // moved ancestry interval.
        let g = generators::grid(5, 5);
        let fresh = LiveCycleSpace::new(&g, 4, Seed::new(33)).unwrap();
        let row = |live: &LiveCycleSpace, e: EdgeId| {
            (
                live.phi_bank().row(e.index()).to_vec(),
                live.tree_child_interval(e),
            )
        };
        let mut patched = 0;
        for te in fresh.alive_edges().filter(|&e| fresh.is_tree[e.index()]) {
            let mut live = fresh.clone();
            live.take_delta();
            if live.remove_edge(te).is_err() {
                continue; // a bridge
            }
            let delta = live.take_delta();
            if delta.full {
                continue; // fallback path: everything is an upsert by definition
            }
            patched += 1;
            for e in live.alive_edges() {
                assert_eq!(
                    delta.edge_upserts.contains(&e),
                    row(&live, e) != row(&fresh, e),
                    "removing {te:?}: edge {e:?}"
                );
            }
            for v in live.alive_vertices() {
                if !delta.vertex_upserts.contains(&v) {
                    assert_eq!(live.vertex_label(v).anc, fresh.vertex_label(v).anc);
                }
            }
        }
        assert!(patched > 0, "no tree edge took the re-hang path");
    }

    #[test]
    fn determinism_same_ops_same_labels() {
        let g = generators::grid(4, 6);
        let ops = |live: &mut LiveCycleSpace| {
            let nt = live
                .alive_edges()
                .find(|&e| !live.is_tree[e.index()])
                .unwrap();
            live.remove_edge(nt).unwrap();
            let te = live
                .alive_edges()
                .find(|&e| live.is_tree[e.index()])
                .unwrap();
            live.remove_edge(te).unwrap();
        };
        let mut a = LiveCycleSpace::new(&g, 4, Seed::new(77)).unwrap();
        let mut b = LiveCycleSpace::new(&g, 4, Seed::new(77)).unwrap();
        ops(&mut a);
        ops(&mut b);
        for e in a.alive_edges() {
            assert_eq!(a.edge_label(e), b.edge_label(e));
        }
        for v in a.alive_vertices() {
            assert_eq!(a.vertex_label(v).anc, b.vertex_label(v).anc);
        }
    }

    #[test]
    fn self_loop_removal_is_trivial() {
        let mut b = ftl_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let lp = b.add_edge(1, 1, 1);
        let g = b.build();
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(8)).unwrap();
        live.take_delta();
        live.remove_edge(lp).unwrap();
        assert_invariants(&live);
        let delta = live.take_delta();
        assert_eq!(delta.removed_edges, vec![lp]);
        assert!(delta.edge_upserts.is_empty());
    }

    /// The subtree-bounded pre-check agrees with a whole-graph search of
    /// the alive graph minus `v`, for every alive vertex (the root
    /// included), before and after churn has re-hung subtrees.
    #[test]
    fn subtree_connectivity_check_matches_whole_graph_search() {
        let mut lollipop = ftl_graph::GraphBuilder::new(12);
        for i in 0..6 {
            lollipop.add_unit_edge(i, (i + 1) % 6);
        }
        for i in 6..12 {
            lollipop.add_unit_edge(i - 1, i);
        }
        for g in [
            generators::grid(5, 6),
            generators::star(6),
            generators::path(7),
            lollipop.build(),
        ] {
            let mut live = LiveCycleSpace::new(&g, 4, Seed::new(17)).unwrap();
            let mut rng = Seed::new(0xC4EC).stream();
            for round in 0..4 {
                for v in live.alive_vertices().collect::<Vec<_>>() {
                    let mut forbidden = live.forbidden_base();
                    for nb in g.neighbors(v) {
                        forbidden[nb.edge.index()] = true;
                    }
                    let source = live.alive_vertices().find(|&w| w != v).unwrap();
                    let bfs = traversal::bfs(&g, source, &forbidden);
                    let whole = live
                        .alive_vertices()
                        .all(|w| w == v || bfs.dist[w.index()].is_some());
                    assert_eq!(live.connected_without(v), whole, "round {round}, {v:?}");
                }
                for _ in 0..3 {
                    let alive: Vec<EdgeId> = live.alive_edges().collect();
                    let _ = live.remove_edge(alive[(rng() % alive.len() as u64) as usize]);
                }
            }
        }
    }

    #[test]
    fn last_vertex_protected() {
        let g = generators::path(2);
        let mut live = LiveCycleSpace::new(&g, 4, Seed::new(1)).unwrap();
        let keep = live.root();
        let other = live.alive_vertices().find(|&v| v != keep).unwrap();
        live.remove_vertex(other).unwrap();
        assert_eq!(live.remove_vertex(keep).unwrap_err(), LiveError::LastVertex);
    }
}
