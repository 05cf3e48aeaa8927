//! Graph sketches: basic units, levels, XOR composition and edge recovery
//! (Eq. (2), Lemmas 3.9/3.10/3.13).

use crate::eid::Eid;
use ftl_gf2::{BitMatrix, BitVec};
use ftl_graph::Graph;
use ftl_seeded::{PairwiseHash, Seed, UidSpace};

/// Shape of a sketch: number of independent basic units `L`, number of
/// geometric sampling levels, and the width of the per-endpoint aux payload
/// inside every cell.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct SketchParams {
    /// Number of independent basic sketch units (`L = Θ(log n)`); the
    /// Borůvka simulation consumes one unit per phase.
    pub units: usize,
    /// Number of sampling levels per unit (`⌈log₂ m⌉ + 1`).
    pub levels: u32,
    /// Width of each endpoint's aux payload inside a cell (0 for the plain
    /// connectivity scheme; tree-routing label bits for routing).
    pub aux_bits: usize,
    /// Maximum edge multiplicity of the graph (1 for simple graphs);
    /// identifier validation scans this many copy discriminators.
    pub max_copies: u32,
}

impl SketchParams {
    /// Default parameters for a graph: `L = 4·⌈log₂(n+1)⌉ + 8` units and
    /// `⌈log₂ m⌉ + 1` levels, no aux payload.
    pub fn for_graph(graph: &Graph) -> Self {
        let n = graph.num_vertices().max(2) as u64;
        let m = graph.num_edges().max(2) as u64;
        // Deterministic hasher: max_copies feeds the level count,
        // which is part of the serialized sketch shape.
        let mut mult = ftl_seeded::DetHashMap::with_hasher(ftl_seeded::DetBuildHasher);
        let mut max_copies = 1u32;
        for (_, e) in graph.edge_ids() {
            let c = mult.entry(e.endpoints()).or_insert(0u32);
            *c += 1;
            max_copies = max_copies.max(*c);
        }
        SketchParams {
            units: 4 * (64 - (n - 1).leading_zeros()) as usize + 8,
            levels: (64 - (m - 1).leading_zeros()) + 1,
            aux_bits: 0,
            max_copies,
        }
    }

    /// Same shape with a different unit count (experiments trade failure
    /// probability for label size).
    pub fn with_units(self, units: usize) -> Self {
        SketchParams { units, ..self }
    }

    /// Same shape with an aux payload width.
    pub fn with_aux_bits(self, aux_bits: usize) -> Self {
        SketchParams { aux_bits, ..self }
    }

    /// Width of one cell in bits.
    pub fn cell_bits(&self) -> usize {
        Eid::bits(self.aux_bits)
    }

    /// Total sketch size in bits (`units × levels × cell_bits`) — the
    /// `O(log³ n)` of Theorem 3.7 (cells are `O(log n)` wide for `aux_bits =
    /// O(log n)`).
    pub fn sketch_bits(&self) -> usize {
        self.units * self.levels as usize * self.cell_bits()
    }

    /// The pairwise-independent hash of unit `i`, derived from the seed
    /// `S_h` (Fact A.2).
    pub fn unit_hash(&self, sh: Seed, unit: usize) -> PairwiseHash {
        PairwiseHash::from_seed(sh.derive(unit as u64), self.levels.max(1))
    }

    /// The sampling level of an edge key in unit `i`: the edge belongs to
    /// `E_{i,j}` for every `j <= level`.
    pub fn level_of(&self, sh: Seed, unit: usize, key: u64) -> u32 {
        self.unit_hash(sh, unit).level(key).min(self.levels - 1)
    }

    /// Precomputes the sampling levels of a whole edge population, one pass
    /// per unit: each unit derives its hash **once** and streams over the
    /// keys (a multiply-mod per key), instead of re-deriving the hash for
    /// every `(edge, unit)` pair as the per-call [`SketchParams::level_of`]
    /// does.
    ///
    /// This is the preprocessing bottleneck fix for the labeling sweep: a
    /// vertex of degree `d` used to pay `units × d` hash derivations (twice
    /// per edge across its two endpoints); with a [`SampledLevels`] table
    /// the whole graph pays `units` derivations plus one evaluation per
    /// `(edge, unit)` pair. The table is stored **edge-major** (all of an
    /// edge's unit levels in one cache line) because the consumer is the
    /// per-edge toggle sweep.
    pub fn levels_for_keys(&self, sh: Seed, keys: &[u64]) -> SampledLevels {
        let units = self.units;
        // Parallelising pays off once the per-unit stream is long enough to
        // dwarf thread spawn cost; below that the serial sweep wins.
        let min_units = if keys.len() >= 4096 { 2 } else { usize::MAX };
        let per_unit: Vec<Vec<u8>> = ftl_par::par_map_indexed_with_min(units, min_units, |i| {
            let h = self.unit_hash(sh, i);
            let cap = self.levels - 1;
            keys.iter().map(|&k| h.level(k).min(cap) as u8).collect()
        });
        // Transpose the per-unit streams into the edge-major layout.
        let mut levels = vec![0u8; units * keys.len()];
        for (u, column) in per_unit.iter().enumerate() {
            for (e, &lvl) in column.iter().enumerate() {
                levels[e * units + u] = lvl;
            }
        }
        SampledLevels {
            num_keys: keys.len(),
            units,
            levels,
        }
    }
}

/// Precomputed sampling levels for an edge population, edge-major:
/// `level(unit, edge)` of every `(unit, edge)` pair, built by
/// [`SketchParams::levels_for_keys`] in one pass per unit. The edge-major
/// layout puts all of one edge's unit levels in a single cache line for
/// the toggle sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledLevels {
    num_keys: usize,
    units: usize,
    /// `levels[edge * units + unit]`; levels fit in a byte
    /// (`levels <= 61` by [`PairwiseHash`]'s output-bit bound).
    levels: Vec<u8>,
}

impl SampledLevels {
    /// Number of sketch units covered.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Number of edge keys covered.
    pub fn num_keys(&self) -> usize {
        self.num_keys
    }

    /// The clamped sampling level of edge `key_index` in `unit`.
    #[inline]
    pub fn level(&self, unit: usize, key_index: usize) -> u32 {
        debug_assert!(key_index < self.num_keys, "key index out of range");
        self.levels[key_index * self.units + unit] as u32
    }

    /// All unit levels of edge `key_index`, one byte per unit.
    #[inline]
    pub fn levels_of(&self, key_index: usize) -> &[u8] {
        &self.levels[key_index * self.units..(key_index + 1) * self.units]
    }
}

/// A sketch: `units × levels` XOR-cells of extended edge identifiers.
///
/// Linearity is the whole point: `Sketch(A ∪ B) = Sketch(A) ⊕ Sketch(B)` for
/// disjoint vertex sets `A`, `B`, with the edges between `A` and `B`
/// cancelling — so sketches of `T \ F` components can be assembled from
/// subtree sketches and faulty edges can be cancelled post hoc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    params: SketchParams,
    /// Cell `(i, j)` is row `i * levels + j` of one contiguous bit matrix,
    /// so XOR composition of whole sketches is a single word sweep.
    cells: BitMatrix,
}

impl Sketch {
    /// The all-zero sketch (of the empty edge multiset).
    pub fn zero(params: SketchParams) -> Self {
        let n = params.units * params.levels as usize;
        Sketch {
            params,
            cells: BitMatrix::with_rows(n, params.cell_bits()),
        }
    }

    /// The sketch's shape.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// XORs another sketch into this one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn xor_assign(&mut self, other: &Sketch) {
        assert_eq!(self.params, other.params, "sketch shape mismatch");
        self.cells.xor_assign(&other.cells);
    }

    /// XORs `eid_bits` into cells `(unit, 0..=lvl)` — the shared sweep of
    /// both toggle paths. The cells of one unit are consecutive rows of the
    /// bank, so the whole run is one contiguous pattern XOR.
    // ftl-analyzer: hot-path
    #[inline]
    fn toggle_unit(&mut self, unit: usize, lvl: u32, eid_bits: &BitVec) {
        debug_assert_eq!(eid_bits.len(), self.params.cell_bits(), "cell width");
        self.cells.xor_pattern_into_rows(
            unit * self.params.levels as usize,
            lvl as usize + 1,
            eid_bits.words(),
        );
    }

    /// XORs one edge into every level it is sampled at, in every unit.
    /// Adding an edge twice removes it — used both to build vertex sketches
    /// and to cancel faulty edges (decoder Step 3).
    // ftl-analyzer: hot-path
    pub fn toggle_edge(&mut self, eid_bits: &BitVec, key: u64, sh: Seed) {
        for i in 0..self.params.units {
            let lvl = self.params.level_of(sh, i, key);
            self.toggle_unit(i, lvl, eid_bits);
        }
    }

    /// [`Sketch::toggle_edge`] against a precomputed [`SampledLevels`]
    /// table: no hash derivations or evaluations at toggle time, just the
    /// XOR sweep. `key_index` is the edge's position in the key slice the
    /// table was built from.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the table covers fewer units than this
    /// sketch has.
    // ftl-analyzer: hot-path
    pub fn toggle_edge_batched(
        &mut self,
        eid_bits: &BitVec,
        key_index: usize,
        levels: &SampledLevels,
    ) {
        debug_assert_eq!(levels.units(), self.params.units, "unit count mismatch");
        for i in 0..self.params.units {
            let lvl = levels.level(i, key_index);
            self.toggle_unit(i, lvl, eid_bits);
        }
    }

    /// Toggles a whole set of edges against a contiguous identifier bank:
    /// `bank` holds one serialized identifier per row (the output of
    /// [`Eid::to_bits`](crate::Eid::to_bits) for every edge of the graph,
    /// in edge-id order) and `levels` the precomputed sampling table over
    /// the same index space.
    ///
    /// This is the per-vertex gather of the labeling sweep with the borrow
    /// and bounds checks hoisted out of the `(edge, unit)` loop: the cell
    /// words are taken once, each pattern row once per edge, and the
    /// common no-aux cell width (five words) gets an unrolled XOR.
    ///
    /// # Panics
    ///
    /// Panics if the bank width differs from the cell width or `levels`
    /// covers a different unit count.
    // ftl-analyzer: hot-path
    pub fn toggle_edges_from_bank(
        &mut self,
        bank: &BitMatrix,
        indices: impl IntoIterator<Item = usize>,
        levels: &SampledLevels,
    ) {
        assert_eq!(bank.num_cols(), self.params.cell_bits(), "cell width");
        assert_eq!(levels.units(), self.params.units, "unit count mismatch");
        let units = self.params.units;
        let levels_per_unit = self.params.levels as usize;
        debug_assert_eq!(bank.words_per_row(), self.cells.words_per_row());
        gather_cells(
            self.cells.words_mut(),
            levels_per_unit,
            units,
            bank,
            indices,
            levels,
        );
    }

    /// Lemma 3.13: attempts to recover a single outgoing edge from basic
    /// unit `i`, scanning its levels for a cell that validates as one edge
    /// identifier under `S_ID`.
    pub fn recover(&self, unit: usize, sid: &UidSpace) -> Option<Eid> {
        let base = unit * self.params.levels as usize;
        // One scratch cell reused across the level scan — decoding calls
        // recover per unit, so per-row allocations would add up fast.
        let mut cell = BitVec::zeros(self.params.cell_bits());
        for j in 0..self.params.levels as usize {
            if self.cells.row_is_zero(base + j) {
                continue;
            }
            self.cells.read_row_into(base + j, &mut cell);
            let eid = Eid::from_bits(&cell);
            if eid.validate(sid, self.params.max_copies) {
                return Some(eid);
            }
        }
        None
    }

    /// Whether every cell is zero (no boundary edges — a non-growable
    /// component sketch).
    pub fn is_zero(&self) -> bool {
        self.cells.is_zero()
    }

    /// The raw cell bank (row `i * levels + j` is cell `(i, j)`); the wire
    /// codec serializes sketches from here.
    pub fn cells(&self) -> &BitMatrix {
        &self.cells
    }

    /// Rebuilds a sketch from a cell bank of the exact shape
    /// [`Sketch::cells`] exposes.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match `params`.
    pub fn from_cells(params: SketchParams, cells: BitMatrix) -> Self {
        assert_eq!(
            cells.num_rows(),
            params.units * params.levels as usize,
            "cell row count mismatch"
        );
        assert_eq!(cells.num_cols(), params.cell_bits(), "cell width mismatch");
        Sketch { params, cells }
    }

    /// Size of this sketch in bits.
    pub fn bits(&self) -> usize {
        self.params.sketch_bits()
    }
}

/// The shared gather kernel of the toggle paths: XORs each indexed row of
/// `bank` into cells `(unit, 0..=level(unit, i))` of one sketch's cell
/// words. Borrows and bounds checks are hoisted out of the `(edge, unit)`
/// loop, and the aux-free five-word cell gets an unrolled XOR.
#[inline]
pub(crate) fn gather_cells(
    cells: &mut [u64],
    levels_per_unit: usize,
    units: usize,
    bank: &BitMatrix,
    indices: impl IntoIterator<Item = usize>,
    levels: &SampledLevels,
) {
    let wpr = bank.words_per_row();
    debug_assert_eq!(cells.len(), units * levels_per_unit * wpr);
    if wpr == 5 {
        // The aux-free cell is exactly five words; the specialized kernel
        // keeps the pattern in registers and unrolls the row XOR — worth
        // ~2x on the labeling gather.
        gather_cells_w5(cells, levels_per_unit, units, bank, indices, levels);
        return;
    }
    for ei in indices {
        let pat = &bank.words()[ei * wpr..(ei + 1) * wpr];
        // One contiguous byte run holds every unit's level for this edge.
        let unit_levels = levels.levels_of(ei);
        for (unit, &lvl) in unit_levels.iter().enumerate().take(units) {
            let lvl = lvl as usize;
            let base = unit * levels_per_unit * wpr;
            let run = &mut cells[base..base + (lvl + 1) * wpr];
            for row in run.chunks_exact_mut(wpr) {
                for (d, &p) in row.iter_mut().zip(pat) {
                    *d ^= p;
                }
            }
        }
    }
}

/// [`gather_cells`] for the five-word (aux-free) cell: the pattern words
/// live in locals across the whole unit sweep and the row XOR is fully
/// unrolled.
fn gather_cells_w5(
    cells: &mut [u64],
    levels_per_unit: usize,
    units: usize,
    bank: &BitMatrix,
    indices: impl IntoIterator<Item = usize>,
    levels: &SampledLevels,
) {
    let stride = levels_per_unit * 5;
    for ei in indices {
        let pat = &bank.words()[ei * 5..ei * 5 + 5];
        let (p0, p1, p2, p3, p4) = (pat[0], pat[1], pat[2], pat[3], pat[4]);
        let unit_levels = &levels.levels_of(ei)[..units];
        let mut base = 0usize;
        for &lvl in unit_levels {
            let run = &mut cells[base..base + (lvl as usize + 1) * 5];
            for row in run.chunks_exact_mut(5) {
                row[0] ^= p0;
                row[1] ^= p1;
                row[2] ^= p2;
                row[3] ^= p3;
                row[4] ^= p4;
            }
            base += stride;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_labels::AncestryLabel;

    fn params() -> SketchParams {
        SketchParams {
            units: 12,
            levels: 8,
            aux_bits: 0,
            max_copies: 1,
        }
    }

    fn eid_for(sid: &UidSpace, lo: u32, hi: u32) -> Eid {
        Eid {
            uid: sid.uid(lo, hi, 0),
            lo,
            hi,
            anc_lo: AncestryLabel { pre: lo, post: lo },
            anc_hi: AncestryLabel { pre: hi, post: hi },
            port_lo: 0,
            port_hi: 0,
            aux_lo: BitVec::zeros(0),
            aux_hi: BitVec::zeros(0),
        }
    }

    #[test]
    fn zero_sketch_recovers_nothing() {
        let sid = UidSpace::new(Seed::new(1));
        let s = Sketch::zero(params());
        assert!(s.is_zero());
        for i in 0..params().units {
            assert!(s.recover(i, &sid).is_none());
        }
    }

    #[test]
    fn single_edge_recovered_from_some_unit() {
        let sid = UidSpace::new(Seed::new(2));
        let sh = Seed::new(3);
        let mut s = Sketch::zero(params());
        let e = eid_for(&sid, 1, 2);
        s.toggle_edge(&e.to_bits(), e.sampling_key(), sh);
        // Level 0 samples everything, so unit 0 level 0 holds exactly e.
        let got = s.recover(0, &sid).expect("single edge must be recoverable");
        assert_eq!(got, e);
    }

    #[test]
    fn toggle_twice_cancels() {
        let sid = UidSpace::new(Seed::new(2));
        let sh = Seed::new(3);
        let mut s = Sketch::zero(params());
        let e = eid_for(&sid, 1, 2);
        s.toggle_edge(&e.to_bits(), e.sampling_key(), sh);
        s.toggle_edge(&e.to_bits(), e.sampling_key(), sh);
        assert!(s.is_zero());
    }

    #[test]
    fn xor_of_sketches_cancels_shared_edges() {
        let sid = UidSpace::new(Seed::new(9));
        let sh = Seed::new(10);
        let shared = eid_for(&sid, 1, 2);
        let only_a = eid_for(&sid, 1, 3);
        let mut a = Sketch::zero(params());
        a.toggle_edge(&shared.to_bits(), shared.sampling_key(), sh);
        a.toggle_edge(&only_a.to_bits(), only_a.sampling_key(), sh);
        let mut b = Sketch::zero(params());
        b.toggle_edge(&shared.to_bits(), shared.sampling_key(), sh);
        a.xor_assign(&b);
        let got = a.recover(0, &sid).expect("only_a survives");
        assert_eq!(got, only_a);
    }

    #[test]
    fn many_edges_recovery_succeeds_in_most_units() {
        // With 40 edges in one sketch, each unit recovers some edge with
        // constant probability; across 12 units at least one must succeed.
        let sid = UidSpace::new(Seed::new(4));
        let sh = Seed::new(5);
        let mut s = Sketch::zero(params());
        let mut edges = Vec::new();
        for v in 1..=40u32 {
            let e = eid_for(&sid, 0, v);
            s.toggle_edge(&e.to_bits(), e.sampling_key(), sh);
            edges.push(e);
        }
        let mut successes = 0;
        for i in 0..params().units {
            if let Some(got) = s.recover(i, &sid) {
                assert!(edges.contains(&got), "recovered a genuine edge");
                successes += 1;
            }
        }
        assert!(successes >= 1, "at least one unit recovers an edge");
    }

    #[test]
    fn recovery_never_hallucinates() {
        // Sketch holding >= 2 edges at every level of a unit must not return
        // a bogus edge: validation rejects XOR mixtures.
        let sid = UidSpace::new(Seed::new(6));
        let sh = Seed::new(7);
        let mut s = Sketch::zero(params());
        let e1 = eid_for(&sid, 1, 2);
        let e2 = eid_for(&sid, 3, 4);
        s.toggle_edge(&e1.to_bits(), e1.sampling_key(), sh);
        s.toggle_edge(&e2.to_bits(), e2.sampling_key(), sh);
        for i in 0..params().units {
            if let Some(got) = s.recover(i, &sid) {
                assert!(got == e1 || got == e2, "recovered {got:?}");
            }
        }
    }

    #[test]
    fn params_accounting() {
        let p = params();
        assert_eq!(p.cell_bits(), crate::eid::FIXED_BITS);
        assert_eq!(p.sketch_bits(), 12 * 8 * p.cell_bits());
        let p2 = p.with_aux_bits(10);
        assert_eq!(p2.cell_bits(), crate::eid::FIXED_BITS + 20);
        let p3 = p.with_units(3);
        assert_eq!(p3.units, 3);
    }

    #[test]
    fn batched_levels_match_per_call_level_of() {
        let p = params();
        let sh = Seed::new(21);
        let keys: Vec<u64> = (0..500u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        let table = p.levels_for_keys(sh, &keys);
        assert_eq!(table.units(), p.units);
        assert_eq!(table.num_keys(), keys.len());
        for i in 0..p.units {
            for (e, &key) in keys.iter().enumerate() {
                assert_eq!(
                    table.level(i, e),
                    p.level_of(sh, i, key),
                    "unit {i} edge {e}"
                );
            }
        }
    }

    #[test]
    fn toggle_edge_batched_matches_toggle_edge() {
        let sid = UidSpace::new(Seed::new(30));
        let sh = Seed::new(31);
        let eids: Vec<Eid> = (1..=20u32).map(|v| eid_for(&sid, 0, v)).collect();
        let keys: Vec<u64> = eids.iter().map(|e| e.sampling_key()).collect();
        let table = params().levels_for_keys(sh, &keys);
        let mut direct = Sketch::zero(params());
        let mut batched = Sketch::zero(params());
        for (i, e) in eids.iter().enumerate() {
            direct.toggle_edge(&e.to_bits(), e.sampling_key(), sh);
            batched.toggle_edge_batched(&e.to_bits(), i, &table);
        }
        assert_eq!(direct, batched);
    }

    #[test]
    fn levels_deterministic_across_calls() {
        let p = params();
        let sh = Seed::new(11);
        for key in 0..100u64 {
            assert_eq!(p.level_of(sh, 2, key), p.level_of(sh, 2, key));
        }
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let mut a = Sketch::zero(params());
        let b = Sketch::zero(params().with_units(3));
        a.xor_assign(&b);
    }
}
