//! Batched fault-set decoding: one GF(2) elimination per fault set, a
//! cheap parity test per query.
//!
//! # The null-space reformulation
//!
//! The per-query decoder (Lemma 3.5) eliminates the augmented columns
//! `φ′(e) = (p_s(e), p_t(e), φ(e))` for every query, because the two prefix
//! bits depend on `(s, t)`. But only those two bits do — the `φ(e)` part is
//! query-independent. Rearranging:
//!
//! `s, t` are separated iff some `F′ ⊆ F` has `⊕_{e∈F′} φ(e) = 0` and
//! `|F′ ∩ D(s,t)|` odd, where `D(s,t)` is the set of faults `e` with
//! `on_s(e) ≠ on_t(e)` (exactly one endpoint of the query below the tree
//! edge). The subsets with `⊕φ = 0` form the **null space** of the `φ`
//! columns, and the parity `|F′ ∩ D|` is linear over GF(2) — so it is odd
//! for *some* null-space element iff it is odd for some **generator**.
//!
//! Hence one elimination per fault set produces `f − rank` null-space
//! generators (collected for free from the dependent inserts of
//! [`ftl_gf2::Basis::insert_with`]), and every query against that fault set
//! is `f` ancestry checks plus one AND-popcount per generator —
//! `O(f²/64)` words instead of a fresh `O(f²·(f+log n)/64)` elimination.
//! A separating generator is itself the disconnecting cut certificate `F′`.

use crate::store::{LabelStore, StoreError, StoreKey};
use ftl_gf2::{Basis, BitVec, DecodeScratch};
use ftl_graph::EdgeId;
use ftl_labels::AncestryLabel;

/// One connectivity query against a registered fault set.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct ConnQuery {
    /// Source vertex.
    pub s: ftl_graph::VertexId,
    /// Target vertex.
    pub t: ftl_graph::VertexId,
    /// Index into the request's fault-set list.
    pub fault_set: usize,
}

/// A fault set after its one-time elimination: the null-space generators of
/// its `φ` columns plus, for each **tree** fault, the precomputed child
/// ancestry interval. Everything queries need; nothing per-query remains to
/// eliminate or decode.
#[derive(Debug, Clone)]
pub struct EliminatedFaultSet {
    /// Fault edge ids, sorted ascending (the canonical order).
    edge_ids: Vec<EdgeId>,
    /// `(position in edge_ids, child pre, child post)` of the tree faults —
    /// see `tree_child_interval_of` in [`crate::store`] for why one child
    /// interval captures the whole `on_root_path_of` test.
    tree_intervals: Vec<(u32, u32, u32)>,
    /// Null-space generators over positions in `edge_ids`.
    null_gens: Vec<BitVec>,
    /// Rank of the `φ` columns.
    rank: usize,
}

impl EliminatedFaultSet {
    /// Runs the one-time elimination of the fault set `edge_ids` (sorted
    /// ascending and distinct) over a store's columns: `φ` columns are read
    /// out of the contiguous bank and the tree intervals were computed when
    /// the labels were stored, so nothing is decoded here.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Missing`] if any fault edge is not in the
    /// store.
    pub fn eliminate_from_sidecar(
        edge_ids: Vec<EdgeId>,
        store: &LabelStore,
    ) -> Result<Self, StoreError> {
        debug_assert!(
            edge_ids.windows(2).all(|w| w[0] < w[1]),
            "ids not canonical"
        );
        let f = edge_ids.len();
        let mut null_gens = Vec::new();
        let mut rank = 0;
        let mut tree_intervals = Vec::new();
        if f > 0 {
            let b = store.phi_width();
            let mut basis = Basis::new(b, f);
            let mut scratch = DecodeScratch::new();
            let mut col = BitVec::zeros(0);
            for (i, &e) in edge_ids.iter().enumerate() {
                if !store.read_phi_into(e, &mut col) {
                    return Err(StoreError::Missing(StoreKey::edge(e)));
                }
                if basis.insert_with(&col, &mut scratch) {
                    rank += 1;
                } else {
                    null_gens.push(scratch.combo().clone());
                }
                if let Some((pre, post)) = store.tree_child_interval(e) {
                    tree_intervals.push((i as u32, pre, post));
                }
            }
        }
        Ok(EliminatedFaultSet {
            edge_ids,
            tree_intervals,
            null_gens,
            rank,
        })
    }

    /// Number of faults.
    pub fn num_faults(&self) -> usize {
        self.edge_ids.len()
    }

    /// Rank of the eliminated `φ` columns.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of null-space generators (`num_faults − rank`).
    pub fn num_null_generators(&self) -> usize {
        self.null_gens.len()
    }

    /// The canonical (sorted) fault edge ids.
    pub fn edge_ids(&self) -> &[EdgeId] {
        &self.edge_ids
    }

    /// Approximate resident size in bytes (for cache accounting).
    pub fn resident_bytes(&self) -> usize {
        self.null_gens.len() * (self.edge_ids.len() / 8 + 24)
            + self.edge_ids.len() * 4
            + self.tree_intervals.len() * 12
    }

    /// Answers one query on the ancestry intervals of `s` and `t`: returns
    /// the index of a separating null-space generator, or `None` when they
    /// stay connected (w.h.p.). One containment test per **tree** fault
    /// (non-tree faults were dropped at elimination time) and one
    /// AND-popcount per generator; `diff` is caller-owned scratch for the
    /// `D(s, t)` membership vector, so the test allocates nothing.
    // ftl-analyzer: hot-path
    pub fn separating_generator_anc(
        &self,
        s: &AncestryLabel,
        t: &AncestryLabel,
        diff: &mut BitVec,
    ) -> Option<usize> {
        if s == t || self.null_gens.is_empty() {
            return None;
        }
        diff.reset_zeroed(self.edge_ids.len());
        for &(i, pre, post) in &self.tree_intervals {
            let on_s = pre <= s.pre && s.post <= post;
            let on_t = pre <= t.pre && t.post <= post;
            if on_s != on_t {
                diff.set(i as usize, true);
            }
        }
        self.null_gens
            .iter()
            .position(|g| g.count_ones_and(diff) % 2 == 1)
    }

    /// The disconnecting cut `F′` witnessed by generator `gen`, as edge ids.
    pub fn certificate(&self, gen: usize) -> Vec<EdgeId> {
        self.null_gens[gen]
            .ones()
            .map(|i| self.edge_ids[i])
            .collect()
    }
}

/// The canonical hash of a fault set: order-insensitive (the slice must be
/// sorted), collision-resistant enough to key the elimination cache.
pub fn canonical_fault_hash(sorted_ids: &[EdgeId]) -> u64 {
    // SplitMix64 absorption: mix each id into a running state.
    let mut h: u64 = 0x243F_6A88_85A3_08D3 ^ (sorted_ids.len() as u64);
    for &e in sorted_ids {
        h = ftl_seeded::splitmix64(h ^ e.index() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::store_from_cycle_space;
    use ftl_cycle_space::CycleSpaceScheme;
    use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
    use ftl_graph::{generators, Graph, VertexId};
    use ftl_seeded::Seed;

    fn eliminate_for(scheme: &CycleSpaceScheme, faults: &[EdgeId]) -> EliminatedFaultSet {
        let mut ids = faults.to_vec();
        ids.sort();
        ids.dedup();
        let store = store_from_cycle_space(scheme, 4).unwrap();
        EliminatedFaultSet::eliminate_from_sidecar(ids, &store).unwrap()
    }

    /// The batched parity decoder must agree with the per-query eliminator
    /// on every pair, and its certificates must be genuine cuts.
    fn check_all_pairs(g: &Graph, faults: &[EdgeId], seed: u64) {
        let scheme = CycleSpaceScheme::label(g, faults.len(), Seed::new(seed)).unwrap();
        let efs = eliminate_for(&scheme, faults);
        let flabels: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
        let mask = forbidden_mask(g, faults);
        let mut diff = BitVec::zeros(0);
        for a in 0..g.num_vertices() {
            for b in 0..g.num_vertices() {
                let (s, t) = (VertexId::new(a), VertexId::new(b));
                let sl = scheme.vertex_label(s);
                let tl = scheme.vertex_label(t);
                let truth = connected_avoiding(g, s, t, &mask);
                let eager = ftl_cycle_space::decode(&sl, &tl, &flabels);
                let gen = efs.separating_generator_anc(&sl.anc, &tl.anc, &mut diff);
                let batched = gen.is_none();
                assert_eq!(batched, eager, "pair ({a},{b}) vs eager, faults {faults:?}");
                assert_eq!(batched, truth, "pair ({a},{b}) vs truth, faults {faults:?}");
                if let Some(gen) = gen {
                    // The certificate must be a real separating cut: remove
                    // it from the graph and s, t must be disconnected.
                    let cut = efs.certificate(gen);
                    let cut_mask = forbidden_mask(g, &cut);
                    assert!(
                        !connected_avoiding(g, s, t, &cut_mask),
                        "certificate {cut:?} does not separate ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn path_graph_single_faults() {
        let g = generators::path(6);
        for e in 0..g.num_edges() {
            check_all_pairs(&g, &[EdgeId::new(e)], 400 + e as u64);
        }
    }

    #[test]
    fn cycle_graph_fault_pairs() {
        let g = generators::cycle(6);
        for e1 in 0..6 {
            for e2 in (e1 + 1)..6 {
                check_all_pairs(&g, &[EdgeId::new(e1), EdgeId::new(e2)], 41);
            }
        }
    }

    #[test]
    fn grid_random_fault_sets() {
        let g = generators::grid(3, 4);
        let mut state = 0xE1E1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let f = 1 + (next() as usize) % 6;
            let mut faults = Vec::new();
            while faults.len() < f {
                let e = EdgeId::new((next() as usize) % g.num_edges());
                if !faults.contains(&e) {
                    faults.push(e);
                }
            }
            check_all_pairs(&g, &faults, 9000 + trial);
        }
    }

    #[test]
    fn empty_fault_set_always_connected() {
        let g = generators::grid(2, 3);
        let scheme = CycleSpaceScheme::label(&g, 0, Seed::new(2)).unwrap();
        let efs = eliminate_for(&scheme, &[]);
        let mut diff = BitVec::zeros(0);
        assert_eq!(efs.num_null_generators(), 0);
        let gen = efs.separating_generator_anc(
            &scheme.vertex_label(VertexId::new(0)).anc,
            &scheme.vertex_label(VertexId::new(5)).anc,
            &mut diff,
        );
        assert_eq!(gen, None);
    }

    #[test]
    fn rank_and_generator_counts_add_up() {
        let g = generators::cycle(8);
        let scheme = CycleSpaceScheme::label(&g, 4, Seed::new(5)).unwrap();
        let faults: Vec<EdgeId> = (0..4).map(EdgeId::new).collect();
        let efs = eliminate_for(&scheme, &faults);
        assert_eq!(efs.num_faults(), 4);
        assert_eq!(efs.rank() + efs.num_null_generators(), 4);
        assert!(efs.resident_bytes() > 0);
    }

    #[test]
    fn canonical_hash_is_order_stable_and_discriminating() {
        let a = [EdgeId::new(1), EdgeId::new(5), EdgeId::new(9)];
        let b = [EdgeId::new(1), EdgeId::new(5), EdgeId::new(9)];
        let c = [EdgeId::new(1), EdgeId::new(5), EdgeId::new(10)];
        let d = [EdgeId::new(1), EdgeId::new(5)];
        assert_eq!(canonical_fault_hash(&a), canonical_fault_hash(&b));
        assert_ne!(canonical_fault_hash(&a), canonical_fault_hash(&c));
        assert_ne!(canonical_fault_hash(&a), canonical_fault_hash(&d));
        assert_ne!(canonical_fault_hash(&[]), canonical_fault_hash(&d));
    }
}
