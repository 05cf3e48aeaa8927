//! Null space of a column set by transposed, branch-free elimination.
//!
//! [`NullSpace`] takes `f` columns of `b` bits each and computes their rank
//! and one null-space generator per *dependent* column: the column itself
//! plus the unique combination of earlier independent columns that equals
//! it. That is exactly the witness [`crate::Basis::insert_with`] leaves for
//! a dependent insert, and the generators come out in the same order, so
//! the two agree bit for bit (`tests/properties.rs` checks it against
//! `Basis` and [`crate::reference::NaiveBasis`]).
//!
//! `Basis` reduces one column at a time, and every reduction step waits on
//! the previous XOR, then a `trailing_zeros`, then a pivot lookup. This
//! kernel works on the transposed matrix instead, the layout M4RI uses
//! (Albrecht, Bard & Hart, ACM TOMS 2010):
//!
//! * **Layout.** The columns are transposed in 64 × 64 bit blocks into
//!   word-column-major form: each group of 64 columns becomes one
//!   contiguous *run* with one lane per row, holding that row's bits for
//!   those columns. Lanes are sized to small systems: one of at most 8 or
//!   16 columns packs 8 or 4 rows per word, so its sweeps touch
//!   proportionally fewer words. Eight-column systems skip the block
//!   transpose and use one 8 × 8 bit transpose per word.
//! * **Echelon form.** Column `j` is independent iff a row below the
//!   current pivots has bit `j`. That row is swapped up to become the next
//!   pivot row, and every row below it is cleared with one branch-free
//!   `row ^= pivot & mask` sweep per run, where `mask` is all ones in the
//!   rows that have bit `j`. The sweeps are contiguous and
//!   data-independent, so they vectorise.
//! * **Generators.** A dependent column's generator is read by
//!   back-substitution through the pivot rows to its left: one
//!   AND-popcount parity per pivot row.
//!
//! One `NullSpace` is reusable scratch: after it has grown to the largest
//! system it sees, only [`NullSpace::generators`] allocates (the list and
//! one `BitVec` per generator).

use crate::bitvec::BitVec;

const WORD_BITS: usize = 64;

/// Reusable scratch that computes the rank and null-space generators of a
/// set of GF(2) columns; see the [module docs](self).
///
/// ```
/// use ftl_gf2::{BitVec, NullSpace};
///
/// let cols = [
///     BitVec::from_bits(&[true, false, true]),
///     BitVec::from_bits(&[false, true, true]),
///     BitVec::from_bits(&[true, true, false]),
/// ];
/// let mut ns = NullSpace::new();
/// ns.reset(3, cols.len());
/// for c in &cols {
///     ns.push_column(c.words());
/// }
/// assert_eq!(ns.eliminate(), 2);
/// // Column 2 is columns 0 ^ 1: the one generator is {0, 1, 2}.
/// let gens = ns.generators();
/// assert_eq!(gens, vec![BitVec::from_bits(&[true, true, true])]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NullSpace {
    /// Bits per column (`b`, the number of matrix rows).
    dim: usize,
    /// Columns pushed since the last [`NullSpace::reset`].
    num_cols: usize,
    /// Bits per row lane in the transposed matrix: 8 for at most 8 columns,
    /// 16 for at most 16, else 64. At f = 16 on `er:1024:8` labels, 16-bit
    /// lanes take 0.93–1.15 µs per set against 1.14–1.47 µs for 64-bit
    /// lanes (same process, 2-vCPU x86-64 VM).
    lane_bits: usize,
    /// One buffer, three regions: the pushed columns (column-major,
    /// `⌈dim/64⌉` words each); after [`NullSpace::eliminate`], the
    /// transposed matrix (one run of `⌈dim·lane_bits/64⌉` words per 64
    /// columns); and one elimination mask per run word.
    words: Vec<u64>,
    /// `ranks[j]` is the number of pivot rows left of column `j`, for
    /// `j ≤ num_cols`. Column `j` is independent iff
    /// `ranks[j + 1] > ranks[j]`, and then its pivot row is `ranks[j]`.
    ranks: Vec<u32>,
}

impl NullSpace {
    /// An empty kernel; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        NullSpace::default()
    }

    /// Starts a new system of `num_cols` columns of `dim` bits each,
    /// keeping every allocation and reserving room for the whole system up
    /// front. `num_cols` only sizes the reservation: the system is whatever
    /// [`NullSpace::push_column`] adds.
    pub fn reset(&mut self, dim: usize, num_cols: usize) {
        self.dim = dim;
        self.num_cols = 0;
        let len = num_cols * dim.div_ceil(WORD_BITS) + (num_cols.div_ceil(WORD_BITS) + 1) * dim;
        self.words.reserve(len.saturating_sub(self.words.len()));
        self.ranks.clear();
        self.ranks.reserve(num_cols + 1);
    }

    /// Appends a column given as little-endian words (the layout of
    /// [`BitVec::words`]). Words past `⌈dim/64⌉` and bits past `dim` are
    /// ignored; a short slice is zero-filled.
    pub fn push_column(&mut self, words: &[u64]) {
        let col_words = self.dim.div_ceil(WORD_BITS);
        let start = self.num_cols * col_words;
        grow_to(&mut self.words, start + col_words);
        let dst = &mut self.words[start..start + col_words];
        // A plain loop: columns are a few words, too short for `memcpy`.
        for (i, d) in dst.iter_mut().enumerate() {
            *d = words.get(i).copied().unwrap_or(0);
        }
        if !self.dim.is_multiple_of(WORD_BITS) {
            if let Some(last) = dst.last_mut() {
                *last &= (1u64 << (self.dim % WORD_BITS)) - 1;
            }
        }
        self.num_cols += 1;
    }

    /// Eliminates the pushed columns and returns their rank. Afterwards
    /// [`NullSpace::generators`] yields one generator per dependent column.
    pub fn eliminate(&mut self) -> usize {
        let (b, f) = (self.dim, self.num_cols);
        self.lane_bits = match f {
            0..=8 => 8,
            9..=16 => 16,
            _ => WORD_BITS,
        };
        let run_words = self.run_words();
        let cols_len = f * b.div_ceil(WORD_BITS);
        grow_to(
            &mut self.words,
            cols_len + (f.div_ceil(WORD_BITS) + 1) * run_words,
        );
        let (cols, rest) = self.words.split_at_mut(cols_len);
        let (runs, masks) = rest.split_at_mut(f.div_ceil(WORD_BITS) * run_words);
        let masks = &mut masks[..run_words];
        self.ranks.clear();
        self.ranks.push(0);
        match self.lane_bits {
            8 => {
                transpose_bytes(cols, b, runs);
                echelon::<8>(runs, masks, f, &mut self.ranks)
            }
            16 => {
                transpose_blocks::<16>(cols, f, b, runs);
                echelon::<16>(runs, masks, f, &mut self.ranks)
            }
            _ => {
                transpose_blocks::<WORD_BITS>(cols, f, b, runs);
                echelon::<WORD_BITS>(runs, masks, f, &mut self.ranks)
            }
        }
    }

    /// Words per run of the transposed matrix.
    fn run_words(&self) -> usize {
        self.dim.div_ceil(WORD_BITS / self.lane_bits.max(1))
    }

    /// Rank of the columns, as of the last [`NullSpace::eliminate`].
    pub fn rank(&self) -> usize {
        self.ranks.last().map_or(0, |&r| r as usize)
    }

    /// Number of null-space generators (columns minus rank), as of the last
    /// [`NullSpace::eliminate`].
    pub fn num_generators(&self) -> usize {
        self.ranks.len().saturating_sub(1) - self.rank()
    }

    /// The null-space generators, one per dependent column in column order,
    /// each with one bit per pushed column: the dependent column plus the
    /// independent columns left of it whose XOR equals it. Empty before the
    /// first [`NullSpace::eliminate`] after a reset.
    pub fn generators(&self) -> Vec<BitVec> {
        let mut gens = Vec::with_capacity(self.num_generators());
        for (j, r) in self.ranks.windows(2).enumerate() {
            if r[0] == r[1] {
                gens.push(self.generator(j));
            }
        }
        gens
    }

    /// Back-substitutes dependent column `j` through the pivot rows left of
    /// it. Pivot row `k` is zero left of its pivot column `c`, and `x` is
    /// zero right of `j`, so `row_k · x = 0` fixes `x_c` from the bits
    /// already decided.
    fn generator(&self, j: usize) -> BitVec {
        let run_words = self.run_words();
        let runs = &self.words[self.num_cols * self.dim.div_ceil(WORD_BITS)..];
        let per_word = WORD_BITS / self.lane_bits;
        // Row `k`'s bits of column group `w`.
        let row = |w: usize, k: usize| {
            let word = runs[w * run_words + k / per_word];
            let lane = word >> (self.lane_bits * (k % per_word));
            if self.lane_bits == WORD_BITS {
                lane
            } else {
                lane & ((1 << self.lane_bits) - 1)
            }
        };
        let mut g = BitVec::zeros(self.num_cols);
        let x = g.words_mut();
        let last = j / WORD_BITS;
        x[last] |= 1 << (j % WORD_BITS);
        for (c, r) in self.ranks[..=j].windows(2).enumerate().rev() {
            if r[0] == r[1] {
                continue;
            }
            let k = r[0] as usize;
            let first = c / WORD_BITS;
            let acc = (first..=last).fold(0, |acc, w| acc ^ (row(w, k) & x[w]));
            x[first] |= u64::from(acc.count_ones() & 1) << (c % WORD_BITS);
        }
        g
    }
}

/// Lengthens `words` to at least `len`. It is never shortened: every word
/// a system reads is written first, so a reused buffer needs no zeroing.
fn grow_to(words: &mut Vec<u64>, len: usize) {
    if words.len() < len {
        words.resize(len, 0);
    }
}

/// Row lanes of `L` bits, `64 / L` to a word; row `r` is lane `r % (64/L)`
/// of word `r / (64/L)`. Lanes past the last row stay zero, so they never
/// become pivots and sweeps leave them zero.
struct Lanes<const L: usize>;

impl<const L: usize> Lanes<L> {
    const PER_WORD: usize = WORD_BITS / L;
    /// One lane's bits.
    const ONES: u64 = u64::MAX >> (WORD_BITS - L);
    /// The lowest bit of every lane.
    const LOW: u64 = u64::MAX / Self::ONES;

    /// Word index and bit offset of row `r`.
    #[inline]
    fn locate(r: usize) -> (usize, usize) {
        (r / Self::PER_WORD, L * (r % Self::PER_WORD))
    }

    #[inline]
    fn get(run: &[u64], r: usize) -> u64 {
        let (q, sh) = Self::locate(r);
        (run[q] >> sh) & Self::ONES
    }

    #[inline]
    fn set(run: &mut [u64], r: usize, v: u64) {
        let (q, sh) = Self::locate(r);
        run[q] = (run[q] & !(Self::ONES << sh)) | (v << sh);
    }

    /// All ones in the lanes of `x` that have bit `bit`.
    #[inline]
    fn mask(x: u64, bit: usize) -> u64 {
        ((x >> bit) & Self::LOW).wrapping_mul(Self::ONES)
    }

    /// The first row at or past `from` whose lane has bit `bit`.
    #[inline]
    fn find(run: &[u64], from: usize, bit: usize) -> Option<usize> {
        let (q0, sh) = Self::locate(from);
        let mut keep = u64::MAX << sh;
        for (q, x) in run.iter().enumerate().skip(q0) {
            let hits = (x >> bit) & Self::LOW & keep;
            if hits != 0 {
                return Some(q * Self::PER_WORD + hits.trailing_zeros() as usize / L);
            }
            keep = u64::MAX;
        }
        None
    }
}

/// Reduces the transposed matrix in `runs` (one run per 64 columns, `f`
/// columns in all) to row echelon form, recording `ranks`, and returns the
/// rank. `masks` is scratch of one run's length.
fn echelon<const L: usize>(
    runs: &mut [u64],
    masks: &mut [u64],
    f: usize,
    ranks: &mut Vec<u32>,
) -> usize {
    let run_words = masks.len();
    let num_runs = f.div_ceil(WORD_BITS);
    let mut rank = 0;
    for j in 0..f {
        let (w, bit) = (j / WORD_BITS, j % WORD_BITS);
        let span = |ww: usize| ww * run_words..(ww + 1) * run_words;
        if let Some(p) = Lanes::<L>::find(&runs[span(w)], rank, bit) {
            // Rows at or below `rank` are zero left of column `j`, so runs
            // before `w` need no swap.
            if p != rank {
                for ww in w..num_runs {
                    let run = &mut runs[span(ww)];
                    let (a, c) = (Lanes::<L>::get(run, p), Lanes::<L>::get(run, rank));
                    Lanes::<L>::set(run, p, c);
                    Lanes::<L>::set(run, rank, a);
                }
            }
            // Rows between `rank` and `p` lack bit `j`: clear it in the
            // rows past `p`, recording which had it when later runs need
            // the same row operations. The first word may hold rows up to
            // `p` in its low lanes; `keep` spares them.
            let (q0, sh) = Lanes::<L>::locate(p + 1);
            let keep = u64::MAX << sh;
            let record = w + 1 < num_runs;
            let pivot_run = &mut runs[span(w)];
            let pivot = Lanes::<L>::get(pivot_run, rank) * Lanes::<L>::LOW;
            let tail = &mut pivot_run[q0..];
            let masks = &mut masks[q0..];
            if let (Some((x0, tail)), Some((m0, masks))) =
                (tail.split_first_mut(), masks.split_first_mut())
            {
                *m0 = Lanes::<L>::mask(*x0, bit) & keep;
                *x0 ^= pivot & *m0;
                if record {
                    for (x, m) in tail.iter_mut().zip(masks.iter_mut()) {
                        *m = Lanes::<L>::mask(*x, bit);
                        *x ^= pivot & *m;
                    }
                } else {
                    for x in tail {
                        *x ^= pivot & Lanes::<L>::mask(*x, bit);
                    }
                }
            }
            // The same row operations on the columns right of this group.
            for ww in w + 1..num_runs {
                let run = &mut runs[span(ww)];
                let pivot = Lanes::<L>::get(run, rank) * Lanes::<L>::LOW;
                for (x, m) in run[q0..].iter_mut().zip(masks.iter()) {
                    *x ^= pivot & *m;
                }
            }
            rank += 1;
        }
        ranks.push(rank as u32);
    }
    rank
}

/// Transposes at most eight `b`-bit columns into one run of one-byte row
/// lanes. Column word `q` covers run words `8q..8q + 8`: byte `y` of
/// column `i` goes to byte `i` of staging word `y`, and one 8 × 8 transpose
/// turns that word into eight one-byte rows.
///
/// `transpose_blocks::<8>` gives the same runs, but it pays a full 64 × 64
/// transpose per 64 rows for at most eight occupied columns. On 4-fault
/// systems over `er:1024:8` labels (b = 44), timed in one process on a
/// 2-vCPU x86-64 VM, elimination with this transposer took 0.28 µs per
/// set against 0.47 µs with `transpose_blocks::<8>` (0.53 µs with 64-bit
/// lanes), and perfbench's `engine.eliminate_us_f4` rose from a median of
/// 0.27 µs to 0.47 µs, above the 0.43 µs of the `Basis` elimination.
fn transpose_bytes(cols: &[u64], b: usize, run: &mut [u64]) {
    let col_words = b.div_ceil(WORD_BITS);
    for (q, dst) in run.chunks_mut(8).enumerate() {
        let mut staged = [0u64; 8];
        for (i, col) in cols.chunks_exact(col_words).enumerate() {
            for (y, word) in staged.iter_mut().enumerate() {
                *word |= ((col[q] >> (8 * y)) & 0xFF) << (8 * i);
            }
        }
        for (d, word) in dst.iter_mut().zip(staged) {
            *d = transpose8(word);
        }
    }
}

/// Transposes `f` `b`-bit columns into runs of `L`-bit row lanes
/// (`L` = 16 or 64), one 64 × 64 block at a time: a block's 64 rows pack into
/// `L` words of a run.
fn transpose_blocks<const L: usize>(cols: &[u64], f: usize, b: usize, runs: &mut [u64]) {
    let col_words = b.div_ceil(WORD_BITS);
    let run_words = b.div_ceil(Lanes::<L>::PER_WORD);
    for (w, run) in runs.chunks_exact_mut(run_words.max(1)).enumerate() {
        let group = w * WORD_BITS..f.min((w + 1) * WORD_BITS);
        for (q, dst) in run.chunks_mut(L).enumerate() {
            let mut block = [0u64; WORD_BITS];
            for (slot, col) in block.iter_mut().zip(group.clone()) {
                *slot = cols[col * col_words + q];
            }
            transpose64(&mut block);
            for (d, rows) in dst.iter_mut().zip(block.chunks_exact(Lanes::<L>::PER_WORD)) {
                *d = rows
                    .iter()
                    .enumerate()
                    .fold(0, |word, (i, row)| word | row << (L * i));
            }
        }
    }
}

/// Transposes an 8 × 8 bit matrix held in one word (bit `8i + c` is entry
/// `(i, c)`): three rounds of masked block swaps.
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transposes a 64 × 64 bit matrix in place (`a[i]` bit `c` is entry
/// `(i, c)`): six rounds of masked block swaps, halving the block size each
/// round.
fn transpose64(a: &mut [u64; WORD_BITS]) {
    const MASKS: [u64; 6] = [
        0x0000_0000_FFFF_FFFF,
        0x0000_FFFF_0000_FFFF,
        0x00FF_00FF_00FF_00FF,
        0x0F0F_0F0F_0F0F_0F0F,
        0x3333_3333_3333_3333,
        0x5555_5555_5555_5555,
    ];
    let mut j = WORD_BITS / 2;
    for m in MASKS {
        for base in (0..WORD_BITS).step_by(2 * j) {
            let (lo, hi) = a[base..base + 2 * j].split_at_mut(j);
            for (x, y) in lo.iter_mut().zip(hi) {
                let t = ((*x >> j) ^ *y) & m;
                *x ^= t << j;
                *y ^= t;
            }
        }
        j /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose64_matches_bit_by_bit_transpose() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut a = [0u64; WORD_BITS];
        for x in &mut a {
            // SplitMix64 words.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *x = z ^ (z >> 31);
        }
        let mut t = a;
        transpose64(&mut t);
        for (i, row) in a.iter().enumerate() {
            for (c, col) in t.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> i) & 1, "entry ({i}, {c})");
            }
        }
    }

    #[test]
    fn zero_width_columns_are_all_dependent() {
        let mut ns = NullSpace::new();
        ns.reset(0, 2);
        ns.push_column(&[]);
        ns.push_column(&[]);
        assert_eq!(ns.eliminate(), 0);
        let gens = ns.generators();
        assert_eq!(
            gens,
            vec![
                BitVec::from_bits(&[true, false]),
                BitVec::from_bits(&[false, true])
            ]
        );
    }

    #[test]
    fn reset_reuses_the_kernel_across_shapes() {
        let mut ns = NullSpace::new();
        ns.reset(70, 100);
        for i in 0..100 {
            ns.push_column(&[1 << (i % 64), (i / 64) as u64]);
        }
        assert_eq!(ns.eliminate(), 65);
        assert_eq!(ns.num_generators(), 35);
        ns.reset(5, 2);
        ns.push_column(&[0b1_0001]);
        ns.push_column(&[0b1_0001]);
        assert_eq!(ns.eliminate(), 1);
        let gens = ns.generators();
        assert_eq!(gens, vec![BitVec::from_bits(&[true, true])]);
    }
}
