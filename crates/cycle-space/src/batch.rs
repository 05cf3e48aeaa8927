//! Eliminate once, answer many: one GF(2) elimination per fault set, a
//! cheap parity test per query. This is the only cycle-space decoder; the
//! paper API ([`crate::decode()`]) and the serving engine both answer
//! through it.
//!
//! # The null-space reformulation
//!
//! Lemma 3.5 decides a query by eliminating the augmented columns
//! `φ′(e) = (p_s(e), p_t(e), φ(e))` and asking whether `10` or `01` lies
//! in their span. The two prefix bits depend on `(s, t)`, but only those
//! two bits do — the `φ(e)` part is query-independent. Rearranging:
//!
//! `s, t` are separated iff some `F′ ⊆ F` has `⊕_{e∈F′} φ(e) = 0` and
//! `|F′ ∩ D(s,t)|` odd, where `D(s,t)` is the set of faults `e` with
//! `on_s(e) ≠ on_t(e)` (exactly one endpoint of the query below the tree
//! edge). The subsets with `⊕φ = 0` form the **null space** of the `φ`
//! columns, and the parity `|F′ ∩ D|` is linear over GF(2) — so it is odd
//! for *some* null-space element iff it is odd for some **generator**.
//!
//! Hence one elimination per fault set produces `f − rank` null-space
//! generators, and every query against that fault set is one interval
//! check per tree fault plus one AND-popcount per generator — `O(f²/64)`
//! words instead of a fresh `O(f²·(f+log n)/64)` elimination. A separating
//! generator is itself the disconnecting cut certificate `F′`.
//!
//! # The elimination
//!
//! [`ftl_gf2::NullSpace`] computes the generators: it transposes the `f`
//! `φ` columns into one contiguous word run per 64 faults, reduces them to
//! echelon form with branch-free masked sweeps, and reads each dependent
//! column's generator off by back-substitution. Generator `k` is the `k`-th
//! dependent fault (in push order) together with the unique set of earlier
//! independent faults whose `φ` XOR equals its own, so answers and
//! certificates are a function of the ordered fault list alone. A serving
//! loop keeps one [`EliminationScratch`], so an elimination allocates only
//! its result.

// This module is on the serving path: the engine answers every query
// through it, so it carries the serving crates' panic-free set.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic_in_result_fn
)]

use ftl_gf2::{BitVec, NullSpace};
use ftl_labels::AncestryLabel;

/// A fault set after its one-time elimination: the null-space generators of
/// its `φ` columns plus, for each **tree** fault, its child ancestry
/// interval. Everything queries need; nothing per-query remains to
/// eliminate or decode. Faults are addressed by their position in the
/// order they were pushed.
#[derive(Debug, Clone)]
pub struct EliminatedFaults {
    /// Number of faults pushed.
    num_faults: usize,
    /// `(position, child pre, child post)` of the tree faults — see
    /// [`crate::CycleSpaceEdgeLabel::tree_child_interval`] for why one
    /// child interval captures the whole `on_root_path_of` test.
    tree_intervals: Vec<(u32, u32, u32)>,
    /// Null-space generators over fault positions.
    null_gens: Vec<BitVec>,
    /// Rank of the `φ` columns.
    rank: usize,
}

/// Reusable scratch that fills an [`EliminatedFaults`]: the null-space
/// kernel and the staging buffer for tree intervals. After it has grown to
/// the largest fault set it has seen, an elimination allocates only the
/// [`EliminatedFaults`] it returns.
///
/// One elimination is [`reset`](Self::reset), one
/// [`push_fault`](Self::push_fault) per fault, then
/// [`eliminate`](Self::eliminate).
#[derive(Debug, Clone, Default)]
pub struct EliminationScratch {
    kernel: NullSpace,
    tree_intervals: Vec<(u32, u32, u32)>,
    num_faults: usize,
}

impl EliminationScratch {
    /// Starts a new fault set whose `φ` columns are `phi_width` bits wide.
    /// `num_faults` only sizes the reservation: the fault set is whatever
    /// [`EliminationScratch::push_fault`] adds.
    pub fn reset(&mut self, phi_width: usize, num_faults: usize) {
        self.kernel.reset(phi_width, num_faults);
        self.tree_intervals.clear();
        self.num_faults = 0;
    }

    /// Appends the next fault: the words of its `φ` column and, for a tree
    /// edge, its child ancestry interval
    /// ([`crate::CycleSpaceEdgeLabel::tree_child_interval`]).
    #[inline]
    pub fn push_fault(&mut self, phi: &[u64], tree_interval: Option<(u32, u32)>) {
        self.kernel.push_column(phi);
        if let Some((pre, post)) = tree_interval {
            self.tree_intervals
                .push((self.num_faults as u32, pre, post));
        }
        self.num_faults += 1;
    }

    /// Eliminates the pushed faults.
    pub fn eliminate(&mut self) -> EliminatedFaults {
        let rank = self.kernel.eliminate();
        EliminatedFaults {
            num_faults: self.num_faults,
            tree_intervals: self.tree_intervals.clone(),
            null_gens: self.kernel.generators(),
            rank,
        }
    }
}

impl EliminatedFaults {
    /// Rank of the eliminated `φ` columns.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The null-space generators, one bit per fault position, in the order
    /// of their dependent faults.
    pub fn generators(&self) -> &[BitVec] {
        &self.null_gens
    }

    /// Resident size in bytes: each generator's `⌈f/64⌉` words plus its
    /// `BitVec` header, and the tree intervals.
    pub fn resident_bytes(&self) -> usize {
        self.null_gens.len() * (self.num_faults.div_ceil(64) * 8 + size_of::<BitVec>())
            + size_of_val(self.tree_intervals.as_slice())
    }

    /// Answers one query on the ancestry intervals of `s` and `t`: returns
    /// the index of a separating null-space generator, or `None` when they
    /// stay connected (w.h.p.). One containment test per **tree** fault
    /// (non-tree faults were dropped at elimination time) and one
    /// AND-popcount per generator; `diff` is caller-owned scratch for the
    /// `D(s, t)` membership vector, so the test allocates nothing.
    #[inline]
    pub fn separating_generator(
        &self,
        s: &AncestryLabel,
        t: &AncestryLabel,
        diff: &mut BitVec,
    ) -> Option<usize> {
        if s == t || self.null_gens.is_empty() {
            return None;
        }
        diff.reset_zeroed(self.num_faults);
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

    /// The fault positions of generator `gen` — the disconnecting cut `F′`
    /// it witnesses; `None` when there is no generator `gen`.
    pub fn fault_positions(&self, gen: usize) -> Option<impl Iterator<Item = usize> + '_> {
        self.null_gens.get(gen).map(BitVec::ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each generator costs its `⌈f/64⌉` words plus a `BitVec` header, with
    /// no flooring below one word and no dropped partial word.
    #[test]
    fn resident_bytes_counts_whole_generator_words() {
        let header = std::mem::size_of::<BitVec>();
        for (f, words) in [(4, 1), (64, 1), (65, 2)] {
            let ef = EliminatedFaults {
                num_faults: f,
                tree_intervals: vec![(0, 1, 2)],
                null_gens: vec![BitVec::zeros(f); 3],
                rank: f - 3,
            };
            assert_eq!(
                ef.resident_bytes(),
                3 * (words * 8 + header) + 12,
                "f = {f}"
            );
        }
    }
}
