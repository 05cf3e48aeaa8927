//! The original scan-based basis, kept verbatim as a differential oracle.
//!
//! [`NaiveBasis`] is the pre-optimization implementation of [`crate::Basis`]:
//! per-row `Vec` allocations, an `O(rank)` linear scan to find the row with
//! a given pivot, and a full `sort_by_key` after every insertion. The
//! property tests (`tests/properties.rs`) assert the pivot-indexed basis
//! and the [`crate::NullSpace`] kernel match it bit for bit.

use crate::bitvec::BitVec;

/// Scan-based incremental GF(2) basis with combination tracking — the
/// unoptimized twin of [`crate::Basis`]. Same API, same results, `O(rank)`
/// pivot lookups and per-insert re-sorting.
#[derive(Debug, Clone)]
pub struct NaiveBasis {
    dim: usize,
    num_inserted: usize,
    /// `(pivot, vector, combination)` — `vector` has its lowest set bit at
    /// `pivot`, and equals the XOR of the inserted vectors flagged in
    /// `combination`.
    rows: Vec<(usize, BitVec, BitVec)>,
    capacity: usize,
}

impl NaiveBasis {
    /// Creates an empty basis for vectors with `dim` bits, able to absorb up
    /// to `capacity` insertions.
    pub fn new(dim: usize, capacity: usize) -> Self {
        NaiveBasis {
            dim,
            num_inserted: 0,
            rows: Vec::new(),
            capacity,
        }
    }

    /// Current rank.
    pub fn rank(&self) -> usize {
        self.rows.len()
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
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        assert!(self.num_inserted < self.capacity, "capacity exceeded");
        let idx = self.num_inserted;
        self.num_inserted += 1;
        let mut combo = BitVec::zeros(self.capacity);
        combo.set(idx, true);
        let mut vec = v.clone();
        self.reduce(&mut vec, &mut combo);
        match vec.first_one() {
            None => false,
            Some(p) => {
                self.rows.push((p, vec, combo));
                // Keep rows sorted by pivot for a deterministic layout.
                self.rows.sort_by_key(|r| r.0);
                true
            }
        }
    }

    /// Reduces `vec` (and its tracked combination) by the basis in place,
    /// finding each pivot row by linear scan.
    fn reduce(&self, vec: &mut BitVec, combo: &mut BitVec) {
        loop {
            let Some(p) = vec.first_one() else { return };
            match self.rows.iter().find(|r| r.0 == p) {
                Some((_, row, rcombo)) => {
                    vec.xor_assign(row);
                    combo.xor_assign(rcombo);
                }
                None => return,
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
        self.reduce(&mut vec, &mut combo);
        if vec.is_zero() {
            Some(combo)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_solver_finds_combination() {
        let a = BitVec::from_bits(&[true, true, false]);
        let b = BitVec::from_bits(&[false, true, true]);
        let t = BitVec::from_bits(&[true, false, true]);
        let mut basis = NaiveBasis::new(3, 2);
        basis.insert(&a);
        basis.insert(&b);
        let x = basis.express(&t).expect("solvable");
        let mut acc = BitVec::zeros(3);
        for i in x.ones() {
            acc.xor_assign([&a, &b][i]);
        }
        assert_eq!(acc, t);
        assert!(basis
            .express(&BitVec::from_bits(&[false, false, true]))
            .is_none());
    }
}
