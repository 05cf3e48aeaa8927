//! Incremental GF(2) basis with certificates.
//!
//! [`Basis`] eliminates one vector at a time and tracks, for every basis
//! row, which inserted vectors combine to it. The decoder eliminates with
//! [`crate::NullSpace`]; `Basis`'s dependent-insert witnesses define the
//! generators that kernel must reproduce bit for bit, so `Basis` is its
//! differential oracle (and `perfbench`'s `gf2.basis_insert_ns`). It is
//! engineered for speed:
//!
//! * **Pivot-indexed layout** — `pivot_rows[p]` maps a pivot position to
//!   its basis row in O(1), replacing the `O(rank)` scan of the naive
//!   implementation (kept as [`crate::reference::NaiveBasis`]); nothing is
//!   ever re-sorted.
//! * **Contiguous rows** — basis vectors and their tracked combinations
//!   live in two [`BitMatrix`] banks (one allocation each), so the
//!   word-parallel XOR sweeps of a reduction walk sequential memory.
//! * **Batched insertion** — [`Basis::insert_all`] eliminates a whole block
//!   of vectors while reusing one pair of scratch buffers, avoiding the
//!   per-insert allocations of repeated [`Basis::insert`] calls.

use crate::bitvec::{BitMatrix, BitVec};

/// Reusable scratch space for basis insertions and reductions.
///
/// A caller that reduces many vectors keeps one `DecodeScratch` alive and
/// threads it through [`Basis::insert_with`] / [`Basis::express_with`]; after
/// warm-up no call allocates. The scratch also doubles as the certificate
/// carrier: after a *dependent* `insert_with` (returned `false`) or a
/// *successful* `express_with` (returned `true`), [`DecodeScratch::combo`]
/// holds the witnessing combination over insertion indices.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    work: BitVec,
    combo: BitVec,
}

impl DecodeScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// The combination certificate left by the last reduction:
    ///
    /// * after `insert_with(v) == false` — the **null-space** witness: the
    ///   subset of inserted vectors (including `v` itself) whose XOR is zero;
    /// * after `express_with(target) == true` — the subset of inserted
    ///   vectors whose XOR equals `target`.
    pub fn combo(&self) -> &BitVec {
        &self.combo
    }
}

/// An incremental GF(2) basis over vectors of a fixed dimension.
///
/// Every stored basis vector is paired with a *combination*: the subset of
/// inserted vectors whose XOR equals it. Reducing a target through the basis
/// therefore yields not only membership in the span but the witnessing
/// subset, and a dependent insert yields a null-space element.
#[derive(Debug, Clone)]
pub struct Basis {
    dim: usize,
    num_inserted: usize,
    /// `pivot_rows[p]` is the index (into `vecs`/`combos`) of the basis row
    /// whose lowest set bit is `p`, if any — the O(1) pivot lookup.
    pivot_rows: Vec<Option<u32>>,
    /// Basis vectors, one matrix row each, in insertion order.
    vecs: BitMatrix,
    /// Tracked combinations, row-aligned with `vecs`.
    combos: BitMatrix,
    /// Upper bound on the number of vectors that will be inserted (sets the
    /// combination width).
    capacity: usize,
}

impl Default for Basis {
    /// A zero-dimensional basis; [`Basis::reset`] re-shapes it for real use.
    fn default() -> Self {
        Basis::new(0, 0)
    }
}

impl Basis {
    /// Creates an empty basis for vectors with `dim` bits, able to absorb up
    /// to `capacity` insertions.
    pub fn new(dim: usize, capacity: usize) -> Self {
        // Rank can never exceed min(dim, capacity); reserving it up front
        // keeps the row banks from reallocating mid-elimination.
        let max_rank = dim.min(capacity);
        Basis {
            dim,
            num_inserted: 0,
            pivot_rows: vec![None; dim],
            vecs: BitMatrix::with_capacity(max_rank, dim),
            combos: BitMatrix::with_capacity(max_rank, capacity),
            capacity,
        }
    }

    /// Empties the basis and re-shapes it for `dim`-bit vectors and up to
    /// `capacity` insertions, keeping every allocation (pivot index, row
    /// banks). The arena-reuse path for decoders that eliminate one system
    /// per fault set.
    pub fn reset(&mut self, dim: usize, capacity: usize) {
        self.dim = dim;
        self.capacity = capacity;
        self.num_inserted = 0;
        self.pivot_rows.clear();
        self.pivot_rows.resize(dim, None);
        self.vecs.reset(dim);
        self.combos.reset(capacity);
    }

    /// Current rank.
    pub fn rank(&self) -> usize {
        self.vecs.num_rows()
    }

    /// Number of vectors inserted so far.
    pub fn num_inserted(&self) -> usize {
        self.num_inserted
    }

    /// Inserts a vector. Returns `true` if it was independent of the current
    /// basis (rank grew).
    ///
    /// # Panics
    ///
    /// Panics if the vector has the wrong dimension or capacity is exceeded.
    pub fn insert(&mut self, v: &BitVec) -> bool {
        let mut work = BitVec::zeros(self.dim);
        let mut combo = BitVec::zeros(self.capacity);
        self.insert_reusing(v, &mut work, &mut combo)
    }

    /// Inserts a whole block of vectors, returning one independence flag per
    /// vector (`out[i]` is what `insert(&block[i])` would have returned).
    ///
    /// Equivalent to calling [`Basis::insert`] in a loop, but the
    /// elimination sweeps share one pair of scratch buffers across the
    /// block, so per-vector work is pure word-parallel XOR.
    ///
    /// # Panics
    ///
    /// Panics if any vector has the wrong dimension or capacity is exceeded.
    pub fn insert_all(&mut self, block: &[BitVec]) -> Vec<bool> {
        let mut work = BitVec::zeros(self.dim);
        let mut combo = BitVec::zeros(self.capacity);
        block
            .iter()
            .map(|v| self.insert_reusing(v, &mut work, &mut combo))
            .collect()
    }

    /// [`Basis::insert`] with caller-owned scratch: allocation-free once the
    /// scratch buffers have grown to this basis' shape.
    ///
    /// When the vector is **dependent** (`false` is returned),
    /// `scratch.combo()` holds the null-space witness: the subset of inserted
    /// vectors — this one included — whose XOR is zero. These witnesses, in
    /// insertion order, are the generators [`crate::NullSpace`] computes.
    ///
    /// # Panics
    ///
    /// Panics if the vector has the wrong dimension or capacity is exceeded.
    pub fn insert_with(&mut self, v: &BitVec, scratch: &mut DecodeScratch) -> bool {
        scratch.combo.reset_zeroed(self.capacity);
        self.insert_reusing(v, &mut scratch.work, &mut scratch.combo)
    }

    /// [`Basis::express`] with caller-owned scratch: returns whether `target`
    /// lies in the span; on `true`, `scratch.combo()` holds the certificate.
    ///
    /// # Panics
    ///
    /// Panics if `target` has the wrong dimension.
    pub fn express_with(&self, target: &BitVec, scratch: &mut DecodeScratch) -> bool {
        assert_eq!(target.len(), self.dim, "dimension mismatch");
        scratch.work.copy_from(target);
        scratch.combo.reset_zeroed(self.capacity);
        self.reduce_in_place(&mut scratch.work, &mut scratch.combo)
            .is_none()
    }

    fn insert_reusing(&mut self, v: &BitVec, work: &mut BitVec, combo: &mut BitVec) -> bool {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        assert!(self.num_inserted < self.capacity, "capacity exceeded");
        let idx = self.num_inserted;
        self.num_inserted += 1;
        work.copy_from(v);
        combo.zero_out();
        combo.set(idx, true);
        match self.reduce_in_place(work, combo) {
            None => false,
            Some(p) => {
                let row = self.vecs.push_row(work);
                self.combos.push_row(combo);
                self.pivot_rows[p] = Some(row as u32);
                true
            }
        }
    }

    /// Reduces `vec` (and its tracked combination) by the basis in place.
    /// Returns the surviving pivot, or `None` if `vec` reduced to zero.
    ///
    /// Each round finds the lowest surviving bit (resuming the scan where
    /// the previous round stopped — XORing a row with pivot `p` never
    /// reintroduces bits below `p`) and cancels it with the O(1)-indexed
    /// pivot row.
    fn reduce_in_place(&self, vec: &mut BitVec, combo: &mut BitVec) -> Option<usize> {
        let mut from = 0;
        loop {
            let p = vec.first_one_from(from)?;
            match self.pivot_rows[p] {
                Some(row) => {
                    self.vecs.xor_row_into_bitvec(row as usize, vec);
                    self.combos.xor_row_into_bitvec(row as usize, combo);
                    from = p + 1;
                }
                None => return Some(p),
            }
        }
    }

    /// If `target` lies in the span of the inserted vectors, returns the
    /// combination certificate: a bit vector `x` (indexed by insertion order)
    /// with `XOR_{i : x_i = 1} v_i = target`.
    pub fn express(&self, target: &BitVec) -> Option<BitVec> {
        assert_eq!(target.len(), self.dim, "dimension mismatch");
        let mut vec = target.clone();
        let mut combo = BitVec::zeros(self.capacity);
        if self.reduce_in_place(&mut vec, &mut combo).is_none() {
            Some(combo)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &[u8]) -> BitVec {
        BitVec::from_bits(&bits.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    /// `A·x = target` over GF(2), `columns` the columns of `A`: the
    /// certificate `x` from a fresh basis, or `None` when inconsistent.
    fn solve(columns: &[BitVec], target: &BitVec) -> Option<BitVec> {
        let mut basis = Basis::new(target.len(), columns.len().max(1));
        basis.insert_all(columns);
        basis.express(target)
    }

    /// Whether some subset of `columns` XORs to `target`, by enumerating
    /// all `2^f` subsets.
    fn in_span_brute_force(columns: &[BitVec], target: &BitVec) -> bool {
        (0u64..1 << columns.len()).any(|mask| {
            let mut acc = BitVec::zeros(target.len());
            for (i, c) in columns.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    acc.xor_assign(c);
                }
            }
            &acc == target
        })
    }

    #[test]
    fn rank_of_identity() {
        let mut basis = Basis::new(3, 3);
        assert!(basis.insert(&bv(&[1, 0, 0])));
        assert!(basis.insert(&bv(&[0, 1, 0])));
        assert!(basis.insert(&bv(&[0, 0, 1])));
        assert_eq!(basis.rank(), 3);
    }

    #[test]
    fn dependent_vector_detected() {
        let mut basis = Basis::new(3, 3);
        assert!(basis.insert(&bv(&[1, 1, 0])));
        assert!(basis.insert(&bv(&[0, 1, 1])));
        assert!(!basis.insert(&bv(&[1, 0, 1]))); // sum of the first two
        assert_eq!(basis.rank(), 2);
    }

    #[test]
    fn insert_all_matches_sequential_inserts() {
        let block = vec![
            bv(&[1, 1, 0, 0]),
            bv(&[0, 1, 1, 0]),
            bv(&[1, 0, 1, 0]), // dependent
            bv(&[0, 0, 1, 1]),
        ];
        let mut batched = Basis::new(4, block.len());
        let flags = batched.insert_all(&block);
        let mut sequential = Basis::new(4, block.len());
        let seq_flags: Vec<bool> = block.iter().map(|v| sequential.insert(v)).collect();
        assert_eq!(flags, seq_flags);
        assert_eq!(flags, vec![true, true, false, true]);
        assert_eq!(batched.rank(), sequential.rank());
        for tgt in [bv(&[1, 0, 0, 1]), bv(&[0, 0, 0, 1]), bv(&[1, 1, 1, 1])] {
            assert_eq!(batched.express(&tgt), sequential.express(&tgt));
        }
    }

    #[test]
    fn express_returns_valid_certificate() {
        let cols = vec![bv(&[1, 1, 0, 0]), bv(&[0, 1, 1, 0]), bv(&[0, 0, 1, 1])];
        let target = bv(&[1, 0, 0, 1]); // col0 ^ col1 ^ col2
        let x = solve(&cols, &target).expect("solvable");
        let mut acc = BitVec::zeros(4);
        for i in x.ones() {
            acc.xor_assign(&cols[i]);
        }
        assert_eq!(acc, target);
    }

    #[test]
    fn inconsistent_system_rejected() {
        let cols = vec![bv(&[1, 0, 0]), bv(&[0, 1, 0])];
        assert!(solve(&cols, &bv(&[0, 0, 1])).is_none());
    }

    #[test]
    fn zero_target_has_empty_certificate() {
        let cols = vec![bv(&[1, 0]), bv(&[0, 1])];
        let x = solve(&cols, &bv(&[0, 0])).unwrap();
        assert_eq!(x.count_ones(), 0);
    }

    #[test]
    fn no_columns_edge_case() {
        assert!(solve(&[], &bv(&[0, 0])).is_some());
        assert!(solve(&[], &bv(&[1, 0])).is_none());
    }

    #[test]
    fn brute_force_agrees_small() {
        let cols = vec![bv(&[1, 1, 0]), bv(&[0, 1, 1]), bv(&[1, 1, 1])];
        for tgt in [
            bv(&[0, 0, 0]),
            bv(&[1, 0, 0]),
            bv(&[0, 1, 0]),
            bv(&[1, 1, 1]),
            bv(&[1, 0, 1]),
        ] {
            let fast = solve(&cols, &tgt);
            let slow = in_span_brute_force(&cols, &tgt);
            assert_eq!(fast.is_some(), slow, "target {tgt:?}");
            if let Some(x) = fast {
                let mut acc = BitVec::zeros(3);
                for i in x.ones() {
                    acc.xor_assign(&cols[i]);
                }
                assert_eq!(acc, tgt);
            }
        }
    }

    #[test]
    fn randomized_differential_vs_brute_force() {
        // Deterministic xorshift to avoid external deps in unit tests.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let dim = 1 + (next() % 24) as usize;
            let f = (next() % 8) as usize;
            let cols: Vec<BitVec> = (0..f)
                .map(|_| {
                    let mut v = BitVec::zeros(dim);
                    v.randomize(&mut next);
                    v
                })
                .collect();
            let mut tgt = BitVec::zeros(dim);
            tgt.randomize(&mut next);
            let fast = solve(&cols, &tgt);
            let slow = in_span_brute_force(&cols, &tgt);
            assert_eq!(fast.is_some(), slow, "trial {trial}");
            if let Some(x) = fast {
                let mut acc = BitVec::zeros(dim);
                for i in x.ones() {
                    acc.xor_assign(&cols[i]);
                }
                assert_eq!(acc, tgt, "certificate must reproduce the target");
            }
        }
    }

    #[test]
    fn insert_with_collects_null_space_witnesses() {
        let block = vec![
            bv(&[1, 1, 0, 0]),
            bv(&[0, 1, 1, 0]),
            bv(&[1, 0, 1, 0]), // = block[0] ^ block[1]
            bv(&[0, 0, 1, 1]),
            bv(&[1, 1, 1, 1]), // = block[0] ^ block[3]
        ];
        let mut basis = Basis::new(4, block.len());
        let mut scratch = DecodeScratch::new();
        let mut nulls = Vec::new();
        for v in &block {
            if !basis.insert_with(v, &mut scratch) {
                nulls.push(scratch.combo().clone());
            }
        }
        assert_eq!(nulls.len(), 2);
        for null in &nulls {
            let mut acc = BitVec::zeros(4);
            for i in null.ones() {
                acc.xor_assign(&block[i]);
            }
            assert!(acc.is_zero(), "witness must XOR to zero: {null:?}");
        }
        // The second witness must involve the vector that triggered it.
        assert!(nulls[0].get(2));
        assert!(nulls[1].get(4));
    }

    #[test]
    fn express_with_matches_express() {
        let cols = vec![bv(&[1, 1, 0, 0]), bv(&[0, 1, 1, 0]), bv(&[0, 0, 1, 1])];
        let mut basis = Basis::new(4, cols.len());
        basis.insert_all(&cols);
        let mut scratch = DecodeScratch::new();
        for tgt in [bv(&[1, 0, 0, 1]), bv(&[0, 1, 0, 1]), bv(&[1, 0, 0, 0])] {
            let alloc = basis.express(&tgt);
            let with = basis.express_with(&tgt, &mut scratch);
            assert_eq!(alloc.is_some(), with);
            if let Some(x) = alloc {
                assert_eq!(&x, scratch.combo());
            }
        }
    }

    #[test]
    fn reset_reuses_basis_across_systems() {
        let mut basis = Basis::new(3, 2);
        let mut scratch = DecodeScratch::new();
        assert!(basis.insert_with(&bv(&[1, 0, 1]), &mut scratch));
        assert!(basis.insert_with(&bv(&[0, 1, 0]), &mut scratch));
        assert_eq!(basis.rank(), 2);
        // Reuse for a different (wider) system.
        basis.reset(4, 3);
        assert_eq!(basis.rank(), 0);
        assert_eq!(basis.num_inserted(), 0);
        assert!(basis.insert_with(&bv(&[1, 1, 0, 0]), &mut scratch));
        assert!(basis.insert_with(&bv(&[0, 0, 1, 1]), &mut scratch));
        assert!(!basis.insert_with(&bv(&[1, 1, 1, 1]), &mut scratch));
        assert_eq!(scratch.combo().ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        let mut fresh = Basis::new(4, 3);
        fresh.insert_all(&[bv(&[1, 1, 0, 0]), bv(&[0, 0, 1, 1]), bv(&[1, 1, 1, 1])]);
        for tgt in [bv(&[1, 1, 1, 1]), bv(&[1, 0, 0, 0])] {
            assert_eq!(basis.express(&tgt), fresh.express(&tgt));
        }
    }

    #[test]
    #[should_panic]
    fn capacity_overflow_panics() {
        let mut basis = Basis::new(2, 1);
        basis.insert(&bv(&[1, 0]));
        basis.insert(&bv(&[0, 1]));
    }
}
