//! Batched fault-set decoding: one GF(2) elimination per fault set, a
//! cheap parity test per query.
//!
//! The decoder itself — the null-space reformulation of Lemma 3.5 and its
//! elimination — is [`ftl_cycle_space::batch`]. This module adds what is
//! the engine's own: the fault columns come from the [`LabelStore`] (a
//! missing edge is [`StoreError::Missing`]), fault sets are keyed by their
//! canonical (sorted) edge ids, and certificates are mapped from fault
//! positions back to [`EdgeId`]s. Each engine keeps one
//! [`EliminationScratch`], so a cold elimination allocates only its result.

use crate::store::{LabelStore, StoreError, StoreKey};
use ftl_cycle_space::{EliminatedFaults, EliminationScratch};
use ftl_gf2::BitVec;
use ftl_graph::EdgeId;
use ftl_labels::AncestryLabel;

/// A fault set after its one-time elimination: its canonical edge ids and
/// the [`EliminatedFaults`] of their columns, whose fault positions index
/// the ids.
#[derive(Debug, Clone)]
pub struct EliminatedFaultSet {
    /// Fault edge ids, sorted ascending (the canonical order).
    edge_ids: Vec<EdgeId>,
    /// The eliminated columns, in `edge_ids` order.
    faults: EliminatedFaults,
}

impl EliminatedFaultSet {
    /// Runs the one-time elimination of the fault set `edge_ids` (sorted
    /// ascending and distinct) over a store's columns, with fresh scratch.
    /// A serving loop keeps an [`EliminationScratch`] and calls
    /// [`EliminatedFaultSet::eliminate_with`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Missing`] if any fault edge is not in the
    /// store.
    pub fn eliminate_from_sidecar(
        edge_ids: Vec<EdgeId>,
        store: &LabelStore,
    ) -> Result<Self, StoreError> {
        Self::eliminate_with(edge_ids, store, &mut EliminationScratch::default())
    }

    /// Runs the one-time elimination of the fault set `edge_ids` (sorted
    /// ascending and distinct) over a store's columns, reusing `scratch`:
    /// `φ` columns are read out of the contiguous bank and the tree
    /// intervals were computed when the labels were stored, so nothing is
    /// decoded here.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Missing`] if any fault edge is not in the
    /// store.
    pub fn eliminate_with(
        edge_ids: Vec<EdgeId>,
        store: &LabelStore,
        scratch: &mut EliminationScratch,
    ) -> Result<Self, StoreError> {
        debug_assert!(edge_ids.is_sorted_by(|a, b| a < b), "ids not canonical");
        scratch.reset(store.phi_width(), edge_ids.len());
        for &e in &edge_ids {
            let column = store
                .fault_column(e)
                .ok_or(StoreError::Missing(StoreKey::edge(e)))?;
            scratch.push_fault(column.phi, column.tree_interval);
        }
        Ok(EliminatedFaultSet {
            edge_ids,
            faults: scratch.eliminate(),
        })
    }

    /// Number of faults.
    pub fn num_faults(&self) -> usize {
        self.edge_ids.len()
    }

    /// Rank of the eliminated `φ` columns.
    pub fn rank(&self) -> usize {
        self.faults.rank()
    }

    /// Number of null-space generators (`num_faults − rank`).
    pub fn num_null_generators(&self) -> usize {
        self.faults.generators().len()
    }

    /// The canonical (sorted) fault edge ids.
    pub fn edge_ids(&self) -> &[EdgeId] {
        &self.edge_ids
    }

    /// Resident size in bytes (for cache accounting): the eliminated
    /// columns' [`EliminatedFaults::resident_bytes`] plus the fault ids.
    pub fn resident_bytes(&self) -> usize {
        self.faults.resident_bytes() + size_of_val(self.edge_ids.as_slice())
    }

    /// Answers one query on the ancestry intervals of `s` and `t`: the
    /// index of a separating null-space generator, or `None` when they stay
    /// connected (w.h.p.). See [`EliminatedFaults::separating_generator`];
    /// `diff` is caller-owned scratch, so the test allocates nothing.
    #[inline]
    pub fn separating_generator_anc(
        &self,
        s: &AncestryLabel,
        t: &AncestryLabel,
        diff: &mut BitVec,
    ) -> Option<usize> {
        self.faults.separating_generator(s, t, diff)
    }

    /// The disconnecting cut `F′` witnessed by generator `gen`, as edge
    /// ids; `None` when there is no generator `gen`.
    pub fn certificate(&self, gen: usize) -> Option<Vec<EdgeId>> {
        let positions = self.faults.fault_positions(gen)?;
        Some(
            positions
                .filter_map(|i| self.edge_ids.get(i).copied())
                .collect(),
        )
    }
}

/// The canonical hash of a fault set: order-insensitive (the slice must be
/// sorted), collision-resistant enough to key the elimination cache.
pub(crate) fn canonical_fault_hash(sorted_ids: &[EdgeId]) -> u64 {
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
    use ftl_gf2::{Basis, DecodeScratch};
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

    /// The batched parity decoder must agree with the subset-enumerating
    /// oracle on every pair, and its certificates must be genuine cuts.
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
                let oracle = ftl_cycle_space::decode_brute_force(&sl, &tl, &flabels);
                let gen = efs.separating_generator_anc(&sl.anc, &tl.anc, &mut diff);
                let batched = gen.is_none();
                assert_eq!(
                    batched, oracle,
                    "pair ({a},{b}) vs oracle, faults {faults:?}"
                );
                assert_eq!(batched, truth, "pair ({a},{b}) vs truth, faults {faults:?}");
                if let Some(gen) = gen {
                    // The certificate must be a real separating cut: remove
                    // it from the graph and s, t must be disconnected.
                    let cut = efs.certificate(gen).unwrap();
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
        assert_eq!(
            efs.resident_bytes(),
            efs.faults.resident_bytes() + 4 * std::mem::size_of::<EdgeId>()
        );
        assert_eq!(efs.certificate(efs.num_null_generators()), None);
    }

    /// SplitMix64 draws for the differential test's fault sets.
    fn draw(state: &mut u64, below: usize) -> usize {
        *state = ftl_seeded::splitmix64(*state);
        (*state % below as u64) as usize
    }

    /// The kernel-backed elimination is bit-identical to a `Basis`
    /// elimination of the same `φ` columns: same rank, and the same
    /// generators in the same order. Grid labels, fault sets with planted
    /// vertex cuts (each a null-space element), `f` from a few faults to
    /// more than the cycle space's dimension (many generators). Answers
    /// stay BFS-correct and certificates stay genuine cuts.
    #[test]
    fn kernel_elimination_matches_basis_on_planted_cuts() {
        let g = generators::grid(6, 7);
        let mut state = 0x0B5E_55EDu64;
        let mut scratch = EliminationScratch::default();
        let mut diff = BitVec::zeros(0);
        let mut total_gens = 0;
        for f in [3, 9, 16, 40, 70] {
            let scheme = CycleSpaceScheme::label(&g, f, Seed::new(77 + f as u64)).unwrap();
            let store = store_from_cycle_space(&scheme, 4).unwrap();
            for _ in 0..12 {
                let mut ids = Vec::new();
                for _ in 0..1 + draw(&mut state, 3) {
                    let v = VertexId::new(draw(&mut state, g.num_vertices()));
                    ids.extend((0..g.num_edges()).map(EdgeId::new).filter(|&e| {
                        let edge = g.edge(e);
                        edge.u() == v || edge.v() == v
                    }));
                }
                while ids.len() < f {
                    ids.push(EdgeId::new(draw(&mut state, g.num_edges())));
                }
                ids.sort();
                ids.dedup();

                let efs =
                    EliminatedFaultSet::eliminate_with(ids.clone(), &store, &mut scratch).unwrap();
                let mut basis = Basis::new(store.phi_width(), ids.len());
                let mut decode = DecodeScratch::new();
                let mut col = BitVec::zeros(0);
                let mut witnesses = Vec::new();
                for &e in &ids {
                    assert!(store.read_phi_into(e, &mut col));
                    if !basis.insert_with(&col, &mut decode) {
                        witnesses.push(decode.combo().clone());
                    }
                }
                assert_eq!(efs.rank(), basis.rank(), "rank, f = {f}");
                assert_eq!(efs.faults.generators(), witnesses, "generators, f = {f}");
                assert!(!witnesses.is_empty(), "a planted cut is a generator");
                total_gens += witnesses.len();

                let mask = forbidden_mask(&g, &ids);
                for _ in 0..24 {
                    let s = VertexId::new(draw(&mut state, g.num_vertices()));
                    let t = VertexId::new(draw(&mut state, g.num_vertices()));
                    let (sa, ta) = (store.vertex_anc(s).unwrap(), store.vertex_anc(t).unwrap());
                    let gen = efs.separating_generator_anc(&sa, &ta, &mut diff);
                    assert_eq!(gen.is_none(), connected_avoiding(&g, s, t, &mask));
                    if let Some(gen) = gen {
                        let cut = efs.certificate(gen).unwrap();
                        let cut_mask = forbidden_mask(&g, &cut);
                        assert!(!connected_avoiding(&g, s, t, &cut_mask));
                    }
                }
            }
        }
        assert!(total_gens > 200, "only {total_gens} generators exercised");
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
