//! The sketch-based labeling algorithm (Section 3.2.1).

use crate::eid::Eid;
use crate::sketch::{Sketch, SketchParams};
use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::{EdgeId, Graph, GraphError, SpanningTree, VertexId};
use ftl_labels::AncestryLabel;
use ftl_seeded::{Seed, UidSpace};

/// Per-vertex auxiliary payloads (tree-routing labels in the routing
/// schemes), all of width `params.aux_bits`.
#[derive(Debug, Clone, Default)]
pub struct VertexAux {
    /// `bits[v]` is the payload stored for vertex `v` inside every extended
    /// identifier of an edge incident to `v`.
    pub bits: Vec<BitVec>,
}

/// `ConnLabel(u)` of Eq. (3)/(6): ancestry label, vertex id, and (for
/// routing) the aux payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchVertexLabel {
    /// The vertex id `ID(u)`.
    pub id: u32,
    /// Ancestry label `ANC_T(u)`.
    pub anc: AncestryLabel,
    /// Aux payload (tree routing label `L_T(u)`; empty when unused).
    pub aux: BitVec,
}

/// The extra material stored on **tree** edges: the subtree sketch and the
/// two seeds (Section 3.2.1's `⟨…, Sketch(V(T_v)), S_ID, S_h⟩`).
///
/// The paper also lists `Sketch(V(T_u))` (the parent-side subtree) and
/// `Sketch(V)`; the decoder only ever uses the child-side subtree sketch and
/// `Sketch(V)`, and the latter is identically zero for a spanning tree of a
/// connected graph (every edge cancels in the XOR over all vertices), so we
/// store neither. The accounted label size keeps the same asymptotics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeEdgeInfo {
    /// `Sketch_G(V(T_c))` where `c` is the child endpoint of the edge.
    pub sketch_subtree: Sketch,
    /// The seed `S_ID` determining extended identifiers.
    pub sid: Seed,
    /// The seed `S_h` determining the sampling hash functions.
    pub sh: Seed,
    /// Sketch shape (so a decoder can rebuild hashes).
    pub params: SketchParams,
}

/// `ConnLabel(e)`: the extended identifier, plus [`TreeEdgeInfo`] when the
/// edge belongs to the spanning tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchEdgeLabel {
    /// Extended identifier `EID_T(e)` (Eq. (1)/(5)).
    pub eid: Eid,
    /// Present exactly when `e ∈ T`.
    pub tree: Option<TreeEdgeInfo>,
}

impl SketchEdgeLabel {
    /// Whether this is a tree edge.
    pub fn is_tree(&self) -> bool {
        self.tree.is_some()
    }

    /// Label length in bits.
    pub fn bits(&self) -> usize {
        let base = self.eid.to_bits().len();
        match &self.tree {
            None => base,
            Some(info) => base + info.sketch_subtree.bits() + 2 * 64 + 2 * 32,
        }
    }
}

/// The labeling side of the sketch scheme for one connected graph.
#[derive(Debug, Clone)]
pub struct SketchScheme {
    params: SketchParams,
    vertex_labels: Vec<SketchVertexLabel>,
    edge_labels: Vec<SketchEdgeLabel>,
    max_time: u32,
}

impl SketchScheme {
    /// Labels a connected graph, building a BFS spanning tree rooted at
    /// vertex 0. `seed` splits into `S_ID` and `S_h`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if `graph` is not connected.
    pub fn label(graph: &Graph, params: &SketchParams, seed: Seed) -> Result<Self, GraphError> {
        let tree = SpanningTree::bfs_tree(graph, VertexId::new(0))?;
        Self::label_with_tree(
            graph,
            &tree,
            params,
            seed.derive(0x51D),
            seed.derive(0x5A),
            None,
        )
    }

    /// Labels with a caller-supplied spanning tree, explicit seeds, and
    /// optional per-vertex aux payloads.
    ///
    /// The routing schemes call this with `f + 1` different `sh` seeds and a
    /// *shared* `sid` seed (so extended identifiers coincide across copies,
    /// footnote 7 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the tree does not span the
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics if aux payloads are supplied with the wrong width or count.
    pub fn label_with_tree(
        graph: &Graph,
        tree: &SpanningTree,
        params: &SketchParams,
        sid: Seed,
        sh: Seed,
        aux: Option<&VertexAux>,
    ) -> Result<Self, GraphError> {
        if tree.num_tree_vertices() != graph.num_vertices() {
            return Err(GraphError::Disconnected);
        }
        let n = graph.num_vertices();
        if let Some(a) = aux {
            assert_eq!(a.bits.len(), n, "aux payload count mismatch");
            assert!(
                a.bits.iter().all(|b| b.len() == params.aux_bits),
                "aux payload width mismatch"
            );
        }
        let uid_space = UidSpace::new(sid);
        // Ancestry labels once per vertex; the eid sweep and the vertex
        // label sweep both read from this table instead of re-deriving
        // per-edge-endpoint.
        let anc_of: Vec<AncestryLabel> =
            ftl_par::par_map_indexed(n, |i| AncestryLabel::of(tree, VertexId::new(i)));
        // Parallel-edge copy discriminators, in edge-id order (endpoint
        // pairs packed into one u64 key to halve the hashing work). The
        // fixed-key hasher keeps copy assignment identical across runs:
        // eid derivation feeds the wire format.
        let mut mult: ftl_seeded::DetHashMap<u64, u32> =
            ftl_seeded::DetHashMap::with_hasher(ftl_seeded::DetBuildHasher);
        let copy_of: Vec<u32> = graph
            .edge_ids()
            .map(|(_, e)| {
                let (lo, hi) = e.endpoints();
                let c = mult
                    .entry(((lo.raw() as u64) << 32) | hi.raw() as u64)
                    .or_insert(0);
                let copy = *c;
                *c += 1;
                copy
            })
            .collect();
        assert!(
            mult.values().all(|&c| c <= params.max_copies),
            "params.max_copies too small for this multigraph"
        );
        // Port of every edge at each endpoint, from one adjacency sweep.
        let mut port_at_u: Vec<u32> = vec![0; graph.num_edges()];
        let mut port_at_v: Vec<u32> = vec![0; graph.num_edges()];
        let mut seen_once = vec![false; graph.num_edges()];
        for v in graph.vertices() {
            for (p, nb) in graph.neighbors(v).iter().enumerate() {
                let e = graph.edge(nb.edge);
                if v == e.u() && !(seen_once[nb.edge.index()] && e.u() == e.v()) {
                    port_at_u[nb.edge.index()] = p as u32;
                } else {
                    port_at_v[nb.edge.index()] = p as u32;
                }
                seen_once[nb.edge.index()] = true;
            }
        }
        let empty_aux = BitVec::zeros(params.aux_bits);
        let aux_of = |v: VertexId| -> BitVec {
            aux.map(|a| a.bits[v.index()].clone())
                .unwrap_or_else(|| empty_aux.clone())
        };
        // Extended identifiers — one independent record per edge, built in
        // parallel (`parallel` feature; see `ftl-par`).
        let eids: Vec<Eid> = ftl_par::par_map_indexed(graph.num_edges(), |i| {
            let id = EdgeId::new(i);
            let e = graph.edge(id);
            let (u, v) = (e.u(), e.v());
            let (lo_v, hi_v, port_lo, port_hi) = if u.raw() <= v.raw() {
                (u, v, port_at_u[i], port_at_v[i])
            } else {
                (v, u, port_at_v[i], port_at_u[i])
            };
            Eid {
                uid: uid_space.uid(lo_v.raw(), hi_v.raw(), copy_of[i]),
                lo: lo_v.raw(),
                hi: hi_v.raw(),
                anc_lo: anc_of[lo_v.index()],
                anc_hi: anc_of[hi_v.index()],
                port_lo,
                port_hi,
                aux_lo: aux_of(lo_v),
                aux_hi: aux_of(hi_v),
            }
        });
        // Per-vertex sketches (Eq. (2)): serialized identifier bits live in
        // one contiguous bank (row e = EID_T(e)), sampling levels are
        // precomputed once per (unit, edge) pair — one streaming pass per
        // unit instead of a hash derivation per toggle — and each vertex
        // gathers its incident edges through the bank-level toggle, which
        // hoists borrows and bounds checks out of the `(edge, unit)` loop.
        // Each vertex owns its sketch, so the sweep is data-race-free and
        // runs on all cores, with the bank and level table shared read-only.
        let keys: Vec<u64> = eids.iter().map(|eid| eid.sampling_key()).collect();
        // Serialize straight into the bank's word arena, chunked across
        // threads on row boundaries — no intermediate per-edge vectors.
        let mut eid_bank = BitMatrix::with_rows(eids.len(), params.cell_bits());
        let bank_wpr = eid_bank.words_per_row();
        if bank_wpr > 0 {
            ftl_par::par_for_each_chunk_mut(
                eid_bank.words_mut(),
                eids.len(),
                2048,
                |first, chunk| {
                    for (k, slot) in chunk.chunks_exact_mut(bank_wpr).enumerate() {
                        eids[first + k].write_words(slot);
                    }
                },
            );
        }
        let levels = params.levels_for_keys(sh, &keys);
        let vertex_sketch: Vec<Sketch> = ftl_par::par_map_indexed_with_min(n, 256, |i| {
            let v = VertexId::new(i);
            let mut sketch = Sketch::zero(*params);
            sketch.toggle_edges_from_bank(
                &eid_bank,
                graph.neighbors(v).iter().filter_map(|nb| {
                    let e = graph.edge(nb.edge);
                    // Self-loops cancel in their own sketch; skip them.
                    (e.u() != e.v()).then(|| nb.edge.index())
                }),
                &levels,
            );
            sketch
        });
        // Subtree sketches, bottom-up (reverse preorder). Each vertex's
        // accumulated sketch is XOR-ed into its parent *in place* and then
        // **moved** into the tree edge's label — one XOR per tree edge and
        // zero sketch copies (the old version cloned three sketch-sized
        // buffers per edge).
        let mut subtree: Vec<Option<Sketch>> = vertex_sketch.into_iter().map(Some).collect();
        let mut tree_info: Vec<Option<TreeEdgeInfo>> = vec![None; graph.num_edges()];
        for &v in tree.preorder().iter().rev() {
            if let Some((p, e)) = tree.parent(v) {
                let child_sketch = subtree[v.index()].take().expect("visited once");
                subtree[p.index()]
                    .as_mut()
                    .expect("parent still pending")
                    .xor_assign(&child_sketch);
                tree_info[e.index()] = Some(TreeEdgeInfo {
                    sketch_subtree: child_sketch,
                    sid,
                    sh,
                    params: *params,
                });
            }
        }
        let vertex_labels = ftl_par::par_map_indexed(n, |i| {
            let v = VertexId::new(i);
            SketchVertexLabel {
                id: v.raw(),
                anc: anc_of[i],
                aux: aux_of(v),
            }
        });
        let edge_labels = eids
            .into_iter()
            .zip(tree_info)
            .map(|(eid, tree)| SketchEdgeLabel { eid, tree })
            .collect();
        Ok(SketchScheme {
            params: *params,
            vertex_labels,
            edge_labels,
            max_time: tree.max_time(),
        })
    }

    /// The label of vertex `v`.
    pub fn vertex_label(&self, v: VertexId) -> SketchVertexLabel {
        self.vertex_labels[v.index()].clone()
    }

    /// The label of edge `e`.
    pub fn edge_label(&self, e: EdgeId) -> SketchEdgeLabel {
        self.edge_labels[e.index()].clone()
    }

    /// Sketch shape.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Maximum DFS time (for bit accounting and component trees).
    pub fn max_time(&self) -> u32 {
        self.max_time
    }

    /// Longest vertex label in bits (Theorem 3.7: `O(log n)` plus aux).
    pub fn vertex_label_bits(&self) -> usize {
        32 + AncestryLabel::bits(self.max_time) + self.params.aux_bits
    }

    /// Longest edge label in bits (Theorem 3.7: `O(log³ n)`, dominated by
    /// the subtree sketch on tree edges).
    pub fn edge_label_bits(&self) -> usize {
        self.edge_labels.iter().map(|l| l.bits()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;

    #[test]
    fn tree_edges_carry_sketches() {
        let g = generators::grid(3, 3);
        let s = SketchScheme::label(&g, &SketchParams::for_graph(&g), Seed::new(1)).unwrap();
        let mut tree_edges = 0;
        for (id, _) in g.edge_ids() {
            if s.edge_label(id).is_tree() {
                tree_edges += 1;
            }
        }
        assert_eq!(tree_edges, g.num_vertices() - 1);
    }

    #[test]
    fn subtree_sketch_matches_direct_computation() {
        // The subtree sketch stored on a tree edge must equal the XOR of the
        // per-vertex sketches of the subtree, i.e. the sketch of the
        // boundary edges of the subtree.
        let g = generators::grid(3, 3);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let params = SketchParams::for_graph(&g);
        let sid = Seed::new(10);
        let sh = Seed::new(11);
        let s = SketchScheme::label_with_tree(&g, &tree, &params, sid, sh, None).unwrap();
        let uid_space = UidSpace::new(sid);
        for (id, _) in g.edge_ids() {
            let Some(info) = s.edge_label(id).tree else {
                continue;
            };
            // Direct: toggle every edge with exactly one endpoint below.
            let child = {
                let e = g.edge(id);
                if tree.parent(e.u()).map(|(p, _)| p) == Some(e.v()) {
                    e.u()
                } else {
                    e.v()
                }
            };
            let below: Vec<bool> = (0..g.num_vertices())
                .map(|i| tree.is_ancestor(child, VertexId::new(i)))
                .collect();
            let mut direct = Sketch::zero(params);
            for (eid2, e2) in g.edge_ids() {
                if below[e2.u().index()] != below[e2.v().index()] {
                    let el = s.edge_label(eid2).eid;
                    direct.toggle_edge(&el.to_bits(), el.sampling_key(), sh);
                }
            }
            assert_eq!(direct, info.sketch_subtree, "edge {id:?}");
            // The boundary of a subtree always contains its tree edge, so
            // with L units at least one should recover some boundary edge.
            let recovered =
                (0..params.units).any(|u| info.sketch_subtree.recover(u, &uid_space).is_some());
            assert!(recovered, "no unit recovered a boundary edge for {id:?}");
        }
    }

    #[test]
    fn eids_validate_and_have_correct_ports() {
        let g = generators::cycle(5);
        let sid = Seed::new(3);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let params = SketchParams::for_graph(&g);
        let s = SketchScheme::label_with_tree(&g, &tree, &params, sid, Seed::new(4), None).unwrap();
        let space = UidSpace::new(sid);
        for (id, e) in g.edge_ids() {
            let eid = s.edge_label(id).eid;
            assert!(eid.validate(&space, 1));
            let lo = VertexId::from_raw(eid.lo);
            let hi = VertexId::from_raw(eid.hi);
            assert_eq!(g.port(lo, eid.port_lo as usize).unwrap().edge, id);
            assert_eq!(g.port(hi, eid.port_hi as usize).unwrap().edge, id);
            assert_eq!((lo, hi), e.endpoints());
        }
    }

    #[test]
    fn aux_payloads_embedded() {
        let g = generators::path(4);
        let params = SketchParams::for_graph(&g).with_aux_bits(5);
        let aux = VertexAux {
            bits: (0..4)
                .map(|i| {
                    let mut b = BitVec::zeros(5);
                    b.set(i % 5, true);
                    b
                })
                .collect(),
        };
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let s = SketchScheme::label_with_tree(
            &g,
            &tree,
            &params,
            Seed::new(1),
            Seed::new(2),
            Some(&aux),
        )
        .unwrap();
        let vl = s.vertex_label(VertexId::new(2));
        assert_eq!(vl.aux, aux.bits[2]);
        let el = s.edge_label(EdgeId::new(1)); // edge (1,2)
        assert_eq!(el.eid.aux_lo, aux.bits[1]);
        assert_eq!(el.eid.aux_hi, aux.bits[2]);
    }

    #[test]
    fn label_bits_are_positive_and_sketchy() {
        let g = generators::grid(4, 4);
        let s = SketchScheme::label(&g, &SketchParams::for_graph(&g), Seed::new(5)).unwrap();
        assert!(s.vertex_label_bits() >= 32);
        // Tree edge labels dominated by the sketch.
        assert!(s.edge_label_bits() > s.params().sketch_bits());
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = ftl_graph::GraphBuilder::new(3);
        b.add_unit_edge(0, 1);
        let g = b.build();
        assert!(SketchScheme::label(&g, &SketchParams::for_graph(&g), Seed::new(0)).is_err());
    }

    #[test]
    fn shared_sid_distinct_sh_give_same_eids() {
        let g = generators::cycle(6);
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let params = SketchParams::for_graph(&g);
        let sid = Seed::new(42);
        let a = SketchScheme::label_with_tree(&g, &tree, &params, sid, Seed::new(1), None).unwrap();
        let b = SketchScheme::label_with_tree(&g, &tree, &params, sid, Seed::new(2), None).unwrap();
        for (id, _) in g.edge_ids() {
            assert_eq!(a.edge_label(id).eid, b.edge_label(id).eid);
        }
        // But sketches differ (different sampling).
        let anything_differs =
            g.edge_ids().any(
                |(id, _)| match (a.edge_label(id).tree, b.edge_label(id).tree) {
                    (Some(x), Some(y)) => x.sketch_subtree != y.sketch_subtree,
                    _ => false,
                },
            );
        assert!(anything_differs);
    }
}
