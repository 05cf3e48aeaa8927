//! The four-step decoding algorithm (Section 3.2.2) with succinct-path
//! extraction (Lemma 3.17).

use crate::eid::Eid;
use crate::labeling::{SketchEdgeLabel, SketchVertexLabel};
use crate::sketch::Sketch;
use ftl_gf2::BitVec;
use ftl_graph::union_find::UnionFind;
use ftl_labels::{AncestryLabel, ComponentId, ComponentTree, FaultTreeEdge};
use ftl_seeded::UidSpace;

/// A vertex appearing on a succinct path: everything a router needs to know
/// about it, harvested from labels and recovered identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathVertex {
    /// Vertex id.
    pub id: u32,
    /// Ancestry label in the spanning tree.
    pub anc: AncestryLabel,
    /// Aux payload (tree routing label when the scheme carries one).
    pub aux: BitVec,
}

impl PathVertex {
    fn from_vertex_label(l: &SketchVertexLabel) -> Self {
        PathVertex {
            id: l.id,
            anc: l.anc,
            aux: l.aux.clone(),
        }
    }

    /// The `lo` endpoint of a recovered identifier.
    pub fn lo_of(eid: &Eid) -> Self {
        PathVertex {
            id: eid.lo,
            anc: eid.anc_lo,
            aux: eid.aux_lo.clone(),
        }
    }

    /// The `hi` endpoint of a recovered identifier.
    pub fn hi_of(eid: &Eid) -> Self {
        PathVertex {
            id: eid.hi,
            anc: eid.anc_hi,
            aux: eid.aux_hi.clone(),
        }
    }
}

/// One segment of the labeled path `ˆP` of Lemma 3.17.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathSegment {
    /// A 0-labeled edge: a real `G`-edge (a recovery edge found by the
    /// Borůvka simulation), crossed from `from` to `to`.
    RecoveryEdge {
        /// The recovered extended identifier (has ports and aux payloads).
        eid: Eid,
        /// The endpoint the path enters the edge at.
        from: PathVertex,
        /// The endpoint the path leaves the edge at.
        to: PathVertex,
    },
    /// A 1-labeled edge: a tree path between two vertices of the same
    /// `T \ F` component (intact in `T \ F`).
    TreePath {
        /// Start vertex.
        from: PathVertex,
        /// End vertex.
        to: PathVertex,
    },
}

/// Succinct description of an `s`–`t` path in `G \ F` (Lemma 3.17):
/// alternating tree-path and recovery-edge segments, `O(f)` of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuccinctPath {
    /// Segments from `s` to `t`.
    pub segments: Vec<PathSegment>,
}

impl SuccinctPath {
    /// Number of recovery (0-labeled) edges.
    pub fn num_recovery_edges(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, PathSegment::RecoveryEdge { .. }))
            .count()
    }
}

/// Outcome of decoding a `⟨s, t, F⟩` query.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// Whether `s` and `t` are connected in `G \ F` (w.h.p.).
    pub connected: bool,
    /// When connected, the succinct path description.
    pub path: Option<SuccinctPath>,
    /// Number of Borůvka phases actually consumed.
    pub phases_used: usize,
}

/// Decodes a `⟨s, t, F⟩` query from labels alone (Section 3.2.2).
///
/// Steps: (1) components of `T \ F` from ancestry labels; (2) component
/// sketches from subtree sketches (Claim 3.15); (3) cancellation of faulty
/// edges; (4) Borůvka phases with one fresh sketch unit each, followed by
/// path extraction.
pub fn decode<'a>(
    s: &SketchVertexLabel,
    t: &SketchVertexLabel,
    faults: impl IntoIterator<Item = &'a SketchEdgeLabel>,
) -> DecodeOutcome {
    if s.anc == t.anc {
        return DecodeOutcome {
            connected: true,
            path: Some(SuccinctPath { segments: vec![] }),
            phases_used: 0,
        };
    }
    // Split faults into tree / non-tree.
    let faults: Vec<&SketchEdgeLabel> = faults.into_iter().collect();
    let tree_faults: Vec<&SketchEdgeLabel> =
        faults.iter().copied().filter(|f| f.is_tree()).collect();
    if tree_faults.is_empty() {
        // T \ F = T: s and t stay connected through the tree.
        return DecodeOutcome {
            connected: true,
            path: Some(SuccinctPath {
                segments: vec![PathSegment::TreePath {
                    from: PathVertex::from_vertex_label(s),
                    to: PathVertex::from_vertex_label(t),
                }],
            }),
            phases_used: 0,
        };
    }
    // Seeds and shape come from any tree-fault label (the paper's trick).
    let info = tree_faults[0].tree.as_ref().expect("tree fault has info");
    let params = info.params;
    let sid_space = UidSpace::new(info.sid);
    let sh = info.sh;

    // ---- Step 1: components of T \ F -------------------------------------
    // The synthetic root interval must contain every DFS time that can ever
    // be queried - including endpoints of edges recovered later from
    // sketches, which the decoder cannot enumerate up front. Use the
    // maximal interval.
    let fault_tree_edges: Vec<FaultTreeEdge> = tree_faults
        .iter()
        .map(|f| {
            FaultTreeEdge::from_endpoints(f.eid.anc_lo, f.eid.anc_hi)
                .expect("tree edge endpoints are ancestry-comparable")
        })
        .collect();
    let ct = ComponentTree::new(&fault_tree_edges, u32::MAX);
    let k = ct.num_components();

    // ---- Step 2: Sketch_G of every component (Claim 3.15) ----------------
    // Sketch'(C_j) = subtree sketch below the fault edge to the parent
    // (zero for the root component, since Sketch(V) = 0).
    let sketch_prime: Vec<Sketch> = ct
        .component_ids()
        .map(|c| match ct.edge_to_parent(c) {
            None => Sketch::zero(params),
            Some(i) => tree_faults[i]
                .tree
                .as_ref()
                .expect("tree fault")
                .sketch_subtree
                .clone(),
        })
        .collect();
    let mut comp_sketch: Vec<Sketch> = Vec::with_capacity(k);
    for c in ct.component_ids() {
        let mut sk = sketch_prime[c.index()].clone();
        for &child in ct.children(c) {
            sk.xor_assign(&sketch_prime[child.index()]);
        }
        comp_sketch.push(sk);
    }

    // ---- Step 3: cancel the faulty edges ----------------------------------
    for f in faults {
        let c_lo = ct.component_of(f.eid.anc_lo);
        let c_hi = ct.component_of(f.eid.anc_hi);
        if c_lo == c_hi {
            continue; // internal edge: not part of the component sketch
        }
        let bits = f.eid.to_bits();
        let key = f.eid.sampling_key();
        comp_sketch[c_lo.index()].toggle_edge(&bits, key, sh);
        comp_sketch[c_hi.index()].toggle_edge(&bits, key, sh);
    }

    // ---- Step 4: Borůvka phases -------------------------------------------
    let comp_s = ct.component_of(s.anc);
    let comp_t = ct.component_of(t.anc);
    let mut uf = UnionFind::new(k);
    // Per-root merged sketches live in comp_sketch[root].
    let mut merge_edges: Vec<Eid> = Vec::new();
    let mut phases_used = 0;
    for unit in 0..params.units {
        if uf.same(comp_s.index(), comp_t.index()) {
            break;
        }
        phases_used = unit + 1;
        // Collect one candidate outgoing edge per current super-component.
        let roots: Vec<usize> = (0..k)
            .map(|i| uf.find(i))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut candidates: Vec<(usize, Eid)> = Vec::new();
        for &r in &roots {
            if let Some(eid) = comp_sketch[r].recover(unit, &sid_space) {
                candidates.push((r, eid));
            }
        }
        let mut merged_any = false;
        for (_, eid) in candidates {
            let a = ct.component_of(eid.anc_lo).index();
            let b = ct.component_of(eid.anc_hi).index();
            let (ra, rb) = (uf.find(a), uf.find(b));
            if ra == rb {
                continue;
            }
            merge_edges.push(eid.clone());
            let merged = {
                let mut sk = comp_sketch[ra].clone();
                sk.xor_assign(&comp_sketch[rb]);
                sk
            };
            uf.union(ra, rb);
            let new_root = uf.find(ra);
            comp_sketch[new_root] = merged;
            merged_any = true;
        }
        if !merged_any && uf.num_sets() > 1 {
            // No progress this phase; later units may still succeed.
            continue;
        }
    }
    let connected = uf.same(comp_s.index(), comp_t.index());
    let path = if connected {
        Some(extract_path(s, t, &ct, &merge_edges, comp_s, comp_t))
    } else {
        None
    };
    DecodeOutcome {
        connected,
        path,
        phases_used,
    }
}

/// Lemma 3.17: build the alternating 0/1-labeled path from the recorded
/// merge edges.
fn extract_path(
    s: &SketchVertexLabel,
    t: &SketchVertexLabel,
    ct: &ComponentTree,
    merge_edges: &[Eid],
    comp_s: ComponentId,
    comp_t: ComponentId,
) -> SuccinctPath {
    if comp_s == comp_t {
        return SuccinctPath {
            segments: vec![PathSegment::TreePath {
                from: PathVertex::from_vertex_label(s),
                to: PathVertex::from_vertex_label(t),
            }],
        };
    }
    // BFS over the merge forest at the C0-component granularity.
    let k = ct.num_components();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); k]; // edge indices
    for (i, eid) in merge_edges.iter().enumerate() {
        let a = ct.component_of(eid.anc_lo).index();
        let b = ct.component_of(eid.anc_hi).index();
        adj[a].push(i);
        adj[b].push(i);
    }
    let mut prev: Vec<Option<usize>> = vec![None; k]; // edge used to reach comp
    let mut visited = vec![false; k];
    let mut queue = std::collections::VecDeque::new();
    visited[comp_s.index()] = true;
    queue.push_back(comp_s.index());
    while let Some(c) = queue.pop_front() {
        if c == comp_t.index() {
            break;
        }
        for &ei in &adj[c] {
            let eid = &merge_edges[ei];
            let a = ct.component_of(eid.anc_lo).index();
            let b = ct.component_of(eid.anc_hi).index();
            let other = if a == c { b } else { a };
            if !visited[other] {
                visited[other] = true;
                prev[other] = Some(ei);
                queue.push_back(other);
            }
        }
    }
    debug_assert!(visited[comp_t.index()], "connected implies reachable");
    // Walk back from comp_t to comp_s collecting edges.
    let mut edge_seq: Vec<usize> = Vec::new();
    let mut cur = comp_t.index();
    while cur != comp_s.index() {
        let ei = prev[cur].expect("path back to comp_s");
        edge_seq.push(ei);
        let eid = &merge_edges[ei];
        let a = ct.component_of(eid.anc_lo).index();
        let b = ct.component_of(eid.anc_hi).index();
        cur = if a == cur { b } else { a };
    }
    edge_seq.reverse();
    // Emit alternating segments.
    let mut segments = Vec::new();
    let mut cur_vertex = PathVertex::from_vertex_label(s);
    let mut cur_comp = comp_s;
    for ei in edge_seq {
        let eid = &merge_edges[ei];
        let lo = PathVertex::lo_of(eid);
        let hi = PathVertex::hi_of(eid);
        let lo_comp = ct.component_of(eid.anc_lo);
        let (near, far, far_comp) = if lo_comp == cur_comp {
            let hic = ct.component_of(eid.anc_hi);
            (lo, hi, hic)
        } else {
            (hi, lo, lo_comp)
        };
        segments.push(PathSegment::TreePath {
            from: cur_vertex.clone(),
            to: near.clone(),
        });
        segments.push(PathSegment::RecoveryEdge {
            eid: eid.clone(),
            from: near,
            to: far.clone(),
        });
        cur_vertex = far;
        cur_comp = far_comp;
    }
    segments.push(PathSegment::TreePath {
        from: cur_vertex,
        to: PathVertex::from_vertex_label(t),
    });
    SuccinctPath { segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::SketchScheme;
    use crate::sketch::SketchParams;
    use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
    use ftl_graph::{generators, EdgeId, Graph, SpanningTree, VertexId};
    use ftl_seeded::Seed;

    /// Checks decode() against ground truth for every vertex pair, and
    /// validates returned paths against the real graph.
    fn check_all_pairs(g: &Graph, faults: &[EdgeId], seed: u64) {
        let params = SketchParams::for_graph(g);
        let scheme = SketchScheme::label(g, &params, Seed::new(seed)).unwrap();
        let tree = SpanningTree::bfs_tree(g, VertexId::new(0)).unwrap();
        let flabels: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let mask = forbidden_mask(g, faults);
        for a in 0..g.num_vertices() {
            for b in 0..g.num_vertices() {
                let (s, t) = (VertexId::new(a), VertexId::new(b));
                let truth = connected_avoiding(g, s, t, &mask);
                let out = decode(&scheme.vertex_label(s), &scheme.vertex_label(t), &flabels);
                assert_eq!(out.connected, truth, "pair ({a},{b}) faults {faults:?}");
                if out.connected {
                    let path = out.path.expect("connected answers carry a path");
                    validate_path(g, &tree, &mask, s, t, &path, faults.len());
                }
            }
        }
    }

    /// Asserts the Lemma 3.17 properties of a succinct path:
    /// * it leads from s to t,
    /// * recovery edges are real non-faulty G-edges,
    /// * tree-path segments connect vertices of the same T \ F component
    ///   (so the tree path between them is intact),
    /// * there are at most f recovery edges.
    fn validate_path(
        g: &Graph,
        tree: &SpanningTree,
        mask: &[bool],
        s: VertexId,
        t: VertexId,
        path: &SuccinctPath,
        f: usize,
    ) {
        assert!(path.num_recovery_edges() <= f + 1, "O(f) recovery edges");
        let mut cur = s;
        for seg in &path.segments {
            match seg {
                PathSegment::TreePath { from, to } => {
                    assert_eq!(from.id, cur.raw(), "segment continuity");
                    let from_v = VertexId::from_raw(from.id);
                    let to_v = VertexId::from_raw(to.id);
                    // The tree path between them must avoid every fault.
                    for e in tree.tree_path(from_v, to_v) {
                        assert!(!mask[e.index()], "tree segment uses faulty edge {e:?}");
                    }
                    cur = to_v;
                }
                PathSegment::RecoveryEdge { eid, from, to } => {
                    assert_eq!(from.id, cur.raw(), "segment continuity");
                    let u = VertexId::from_raw(eid.lo);
                    let v = VertexId::from_raw(eid.hi);
                    let real = g.find_edge(u, v);
                    assert!(real.is_some(), "recovery edge must exist in G");
                    // At least one parallel copy must be non-faulty... our
                    // test graphs are simple, so check the exact edge.
                    let e = real.unwrap();
                    assert!(!mask[e.index()], "recovery edge is faulty");
                    assert!(
                        (from.id, to.id) == (eid.lo, eid.hi)
                            || (from.id, to.id) == (eid.hi, eid.lo)
                    );
                    cur = VertexId::from_raw(to.id);
                }
            }
        }
        assert_eq!(cur, t, "path must end at t");
    }

    #[test]
    fn path_graph_single_faults() {
        let g = generators::path(7);
        for e in 0..g.num_edges() {
            check_all_pairs(&g, &[EdgeId::new(e)], 300 + e as u64);
        }
    }

    #[test]
    fn cycle_graph_fault_pairs() {
        let g = generators::cycle(7);
        for e1 in 0..7 {
            for e2 in (e1 + 1)..7 {
                check_all_pairs(&g, &[EdgeId::new(e1), EdgeId::new(e2)], 9);
            }
        }
    }

    #[test]
    fn grid_random_fault_sets() {
        let g = generators::grid(3, 4);
        let mut state = 0x5EED_1234u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..25 {
            let f = 1 + (next() as usize) % 5;
            let mut faults = Vec::new();
            while faults.len() < f {
                let e = EdgeId::new((next() as usize) % g.num_edges());
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            check_all_pairs(&g, &faults, 5000 + trial);
        }
    }

    #[test]
    fn star_isolation() {
        let g = generators::star(6);
        check_all_pairs(&g, &[EdgeId::new(2)], 1);
        let all: Vec<EdgeId> = (0..5).map(EdgeId::new).collect();
        check_all_pairs(&g, &all, 2);
    }

    #[test]
    fn dumbbell_bridge() {
        let mut b = ftl_graph::GraphBuilder::new(6);
        b.add_unit_edge(0, 1);
        b.add_unit_edge(1, 2);
        b.add_unit_edge(2, 0);
        b.add_unit_edge(3, 4);
        b.add_unit_edge(4, 5);
        b.add_unit_edge(5, 3);
        let bridge = b.add_unit_edge(0, 3);
        let g = b.build();
        check_all_pairs(&g, &[bridge], 3);
        check_all_pairs(&g, &[bridge, EdgeId::new(0)], 4);
    }

    #[test]
    fn no_faults_tree_path_answer() {
        let g = generators::grid(2, 3);
        let params = SketchParams::for_graph(&g);
        let scheme = SketchScheme::label(&g, &params, Seed::new(6)).unwrap();
        let out = decode(
            &scheme.vertex_label(VertexId::new(0)),
            &scheme.vertex_label(VertexId::new(5)),
            &[],
        );
        assert!(out.connected);
        let p = out.path.unwrap();
        assert_eq!(p.segments.len(), 1);
        assert!(matches!(p.segments[0], PathSegment::TreePath { .. }));
    }

    #[test]
    fn s_equals_t_trivial_path() {
        let g = generators::cycle(4);
        let params = SketchParams::for_graph(&g);
        let scheme = SketchScheme::label(&g, &params, Seed::new(6)).unwrap();
        let s = scheme.vertex_label(VertexId::new(1));
        let out = decode(&s, &s, &[scheme.edge_label(EdgeId::new(0))]);
        assert!(out.connected);
        assert!(out.path.unwrap().segments.is_empty());
    }

    #[test]
    fn non_tree_faults_only_stay_connected() {
        // On a cycle rooted at 0, exactly one edge is non-tree; failing it
        // keeps the tree intact.
        let g = generators::cycle(8);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let non_tree: Vec<EdgeId> = g
            .edge_ids()
            .filter(|(id, _)| !tree.is_tree_edge(*id))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(non_tree.len(), 1);
        check_all_pairs(&g, &non_tree, 8);
    }

    #[test]
    fn larger_random_graph_spot_checks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let g = generators::connected_random(40, 0.08, 1, &mut rng);
        let params = SketchParams::for_graph(&g);
        let scheme = SketchScheme::label(&g, &params, Seed::new(17)).unwrap();
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        for trial in 0..40 {
            let f = 1 + rng.gen_range(0..8);
            let mut faults: Vec<EdgeId> = Vec::new();
            while faults.len() < f {
                let e = EdgeId::new(rng.gen_range(0..g.num_edges()));
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            let flabels: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
            let mask = forbidden_mask(&g, &faults);
            let s = VertexId::new(rng.gen_range(0..40));
            let t = VertexId::new(rng.gen_range(0..40));
            let truth = connected_avoiding(&g, s, t, &mask);
            let out = decode(&scheme.vertex_label(s), &scheme.vertex_label(t), &flabels);
            assert_eq!(out.connected, truth, "trial {trial} s={s:?} t={t:?}");
            if out.connected && s != t {
                validate_path(&g, &tree, &mask, s, t, &out.path.unwrap(), f);
            }
        }
    }
}
