//! Packed bit vectors and row-major bit matrices over GF(2).
//!
//! The XOR kernel is word-parallel throughout: every bulk operation works
//! on `u64` words with an unrolled fast path, and [`first_one`] /
//! [`count_ones`] lower to the `trailing_zeros` / `count_ones` intrinsics.
//! [`BitMatrix`] packs many equal-width rows into one contiguous
//! allocation so elimination sweeps stay cache-resident.
//!
//! [`first_one`]: BitVec::first_one
//! [`count_ones`]: BitVec::count_ones

use std::fmt;
use std::ops::{BitXor, BitXorAssign};

const WORD_BITS: usize = 64;

/// XORs `src` into `dst` word by word, four words per step.
///
/// The unrolled body gives LLVM a straight-line SIMD-friendly loop; the
/// remainder handles the tail.
#[inline]
pub(crate) fn xor_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "word-count mismatch in xor");
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] ^= sc[0];
        dc[1] ^= sc[1];
        dc[2] ^= sc[2];
        dc[3] ^= sc[3];
    }
    for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a ^= b;
    }
}

/// A fixed-length bit vector packed into 64-bit words, with XOR as addition
/// over GF(2).
///
/// All label material in the reproduction (cycle-space labels φ(e), sketch
/// cells, augmented vectors φ′(e)) is carried as `BitVec`s.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// The all-zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Builds a vector from explicit bits (`bits[0]` is bit 0).
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a vector of `len` bits from little-endian words.
    ///
    /// # Panics
    ///
    /// Panics if the word slice is too short for `len` bits or if bits beyond
    /// `len` are set.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        assert!(words.len() * WORD_BITS >= len, "not enough words");
        let mut v = BitVec {
            words: words[..len.div_ceil(WORD_BITS)].to_vec(),
            len,
        };
        v.mask_tail();
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flips bit `i`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// Whether all bits are zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits (one `popcnt` per word).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index of the lowest set bit, if any (one `tzcnt` in the first
    /// nonzero word).
    #[inline]
    pub fn first_one(&self) -> Option<usize> {
        self.first_one_from(0)
    }

    /// Index of the lowest set bit at position `>= start`, if any.
    ///
    /// Elimination loops use this to resume the pivot scan where the last
    /// reduction left off instead of rescanning cleared low words.
    #[inline]
    pub fn first_one_from(&self, start: usize) -> Option<usize> {
        if start >= self.len {
            return None;
        }
        let first_word = start / WORD_BITS;
        // Mask off bits below `start` in the first scanned word.
        let head = self.words[first_word] & !((1u64 << (start % WORD_BITS)) - 1);
        if head != 0 {
            return Some(first_word * WORD_BITS + head.trailing_zeros() as usize);
        }
        for (wi, &w) in self.words.iter().enumerate().skip(first_word + 1) {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| {
                let mut rem = w;
                std::iter::from_fn(move || {
                    if rem == 0 {
                        return None;
                    }
                    let bit = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    Some(wi * WORD_BITS + bit)
                })
            })
            .filter(move |&i| i < self.len)
    }

    /// In-place XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[inline]
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in xor");
        xor_words(&mut self.words, &other.words);
    }

    /// Writes `self ^ rhs` into `out`, reusing `out`'s allocation.
    ///
    /// This is the allocation-free replacement for the
    /// `let mut c = a.clone(); c.xor_assign(b)` pattern on hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `self` and `rhs` have different lengths.
    pub fn xor_into(&self, rhs: &BitVec, out: &mut BitVec) {
        assert_eq!(self.len, rhs.len, "length mismatch in xor");
        out.len = self.len;
        out.words.clear();
        out.words.extend_from_slice(&self.words);
        xor_words(&mut out.words, &rhs.words);
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation.
    pub fn copy_from(&mut self, other: &BitVec) {
        self.len = other.len;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Clears every bit, keeping the length.
    pub fn zero_out(&mut self) {
        self.words.fill(0);
    }

    /// Turns `self` into the all-zero vector of `len` bits, reusing the
    /// existing word allocation — the arena-friendly replacement for
    /// `*self = BitVec::zeros(len)` on decode hot paths.
    pub fn reset_zeroed(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
    }

    /// Number of positions set in both `self` and `other`
    /// (`popcount(self & other)`), without materialising the AND.
    ///
    /// The batched decoder's parity test is `count_ones_and(..) % 2`, one
    /// AND+popcnt per word.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn count_ones_and(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in and-popcount");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// XORs a raw word slice (of exactly the backing width) into `self`.
    #[inline]
    pub(crate) fn xor_assign_words(&mut self, words: &[u64]) {
        xor_words(&mut self.words, words);
    }

    /// Concatenates `self` followed by `other` (whole words at a time:
    /// copy, then OR in the second operand shifted across word boundaries).
    pub fn concat(&self, other: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.len + other.len);
        out.words[..self.words.len()].copy_from_slice(&self.words);
        let base = self.len / WORD_BITS;
        let shift = self.len % WORD_BITS;
        for (i, &w) in other.words.iter().enumerate() {
            if shift == 0 {
                out.words[base + i] = w;
            } else {
                out.words[base + i] |= w << shift;
                if base + i + 1 < out.words.len() {
                    out.words[base + i + 1] |= w >> (WORD_BITS - shift);
                }
            }
        }
        out
    }

    /// The sub-vector of bits `range.start .. range.end` (whole words at a
    /// time: each output word stitches together one or two input words).
    pub fn slice(&self, start: usize, end: usize) -> BitVec {
        assert!(start <= end && end <= self.len);
        let mut out = BitVec::zeros(end - start);
        let base = start / WORD_BITS;
        let shift = start % WORD_BITS;
        let nw = out.words.len();
        for i in 0..nw {
            let mut w = self.words[base + i] >> shift;
            if shift != 0 && base + i + 1 < self.words.len() {
                w |= self.words[base + i + 1] << (WORD_BITS - shift);
            }
            out.words[i] = w;
        }
        out.mask_tail();
        out
    }

    /// Raw little-endian words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Raw words, mutably — for word-aligned serializers that assemble a
    /// vector whole words at a time instead of bit by bit. Bits at
    /// positions `>= len()` must stay zero; callers whose length is not a
    /// multiple of 64 must mask the tail word themselves.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Fills the vector with random bits from the supplied word source.
    pub fn randomize(&mut self, mut next_word: impl FnMut() -> u64) {
        for w in self.words.iter_mut() {
            *w = next_word();
        }
        self.mask_tail();
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;
    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(rhs);
        out
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

/// A growable row-major GF(2) matrix: every row is `cols` bits wide and all
/// rows live in **one contiguous word allocation**, so elimination and
/// sketch sweeps touch memory sequentially instead of chasing per-row
/// `Vec` allocations.
///
/// Used by [`crate::Basis`] for its basis/combination rows and by the
/// sketch decoder for its cell banks.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    cols: usize,
    /// Words per row (`cols.div_ceil(64)`).
    wpr: usize,
    rows: usize,
    words: Vec<u64>,
}

impl Default for BitMatrix {
    /// An empty zero-column matrix.
    fn default() -> Self {
        BitMatrix::new(0)
    }
}

impl BitMatrix {
    /// An empty matrix whose rows will be `cols` bits wide.
    pub fn new(cols: usize) -> Self {
        BitMatrix {
            cols,
            wpr: cols.div_ceil(WORD_BITS),
            rows: 0,
            words: Vec::new(),
        }
    }

    /// An empty matrix with backing storage reserved for `rows` rows.
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        let wpr = cols.div_ceil(WORD_BITS);
        BitMatrix {
            cols,
            wpr,
            rows: 0,
            words: Vec::with_capacity(rows * wpr),
        }
    }

    /// A zero-filled matrix of the given shape.
    pub fn with_rows(rows: usize, cols: usize) -> Self {
        let wpr = cols.div_ceil(WORD_BITS);
        BitMatrix {
            cols,
            wpr,
            rows,
            words: vec![0; rows * wpr],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Words per row (`num_cols().div_ceil(64)`), the stride of the backing
    /// word bank.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// The whole backing word bank, row-major (row `i` occupies words
    /// `i * words_per_row() ..`). Bits past `num_cols()` in each row's last
    /// word are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing word bank, mutably — for sweeps that XOR patterns into
    /// many rows with the borrow taken once. Callers must keep each row's
    /// tail bits (past `num_cols()`) zero.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Bits per row.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Appends a copy of `v` as a new row, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != num_cols()`.
    pub fn push_row(&mut self, v: &BitVec) -> usize {
        assert_eq!(v.len(), self.cols, "row width mismatch");
        self.words.extend_from_slice(v.words());
        self.rows += 1;
        self.rows - 1
    }

    /// The words of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.wpr..(i + 1) * self.wpr]
    }

    /// The words of row `i`, mutably. Callers must keep the tail bits
    /// (past `num_cols()`) zero.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.wpr..(i + 1) * self.wpr]
    }

    /// Fills row `i` with random bits from the supplied word source,
    /// drawing exactly the words [`BitVec::randomize`] draws for a vector
    /// of the same width.
    pub fn randomize_row(&mut self, i: usize, mut next_word: impl FnMut() -> u64) {
        let rem = self.cols % WORD_BITS;
        let row = self.row_mut(i);
        for w in row.iter_mut() {
            *w = next_word();
        }
        if let (Some(last), true) = (row.last_mut(), rem != 0) {
            *last &= (1u64 << rem) - 1;
        }
    }

    /// Zeroes row `i`.
    #[inline]
    pub fn zero_row(&mut self, i: usize) {
        self.row_mut(i).fill(0);
    }

    /// Bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(j < self.cols, "column {j} out of range {}", self.cols);
        (self.row(i)[j / WORD_BITS] >> (j % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(j < self.cols, "column {j} out of range {}", self.cols);
        let w = &mut self.words[i * self.wpr + j / WORD_BITS];
        let mask = 1u64 << (j % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Whether row `i` is all zeros.
    pub fn row_is_zero(&self, i: usize) -> bool {
        self.row(i).iter().all(|&w| w == 0)
    }

    /// Index of the lowest set bit of row `i`, if any.
    pub fn row_first_one(&self, i: usize) -> Option<usize> {
        for (wi, &w) in self.row(i).iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Copies row `i` out into an owned [`BitVec`].
    pub fn row_to_bitvec(&self, i: usize) -> BitVec {
        BitVec::from_words(self.row(i), self.cols)
    }

    /// Copies row `i` into `out`, reusing `out`'s allocation — the
    /// no-allocation companion of [`BitMatrix::row_to_bitvec`] for hot
    /// loops that inspect many rows.
    pub fn read_row_into(&self, i: usize, out: &mut BitVec) {
        out.len = self.cols;
        out.words.clear();
        out.words.extend_from_slice(self.row(i));
    }

    /// `row[dst] ^= row[src]`.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src` (the result would trivially be zero and the
    /// disjoint borrow below would alias).
    pub fn xor_rows(&mut self, dst: usize, src: usize) {
        assert_ne!(dst, src, "xor_rows requires distinct rows");
        let (lo, hi) = (dst.min(src), dst.max(src));
        let (head, tail) = self.words.split_at_mut(hi * self.wpr);
        let lo_row = &mut head[lo * self.wpr..lo * self.wpr + self.wpr];
        let hi_row = &mut tail[..self.wpr];
        if dst < src {
            xor_words(lo_row, hi_row);
        } else {
            xor_words(hi_row, lo_row);
        }
    }

    /// `row[i] ^= v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != num_cols()`.
    #[inline]
    pub fn xor_bitvec_into_row(&mut self, i: usize, v: &BitVec) {
        assert_eq!(v.len(), self.cols, "row width mismatch");
        self.xor_words_into_row(i, v.words());
    }

    /// `row[i] ^= words` — e.g. a row of another bank of the same width.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly one row's worth of words.
    #[inline]
    pub fn xor_words_into_row(&mut self, i: usize, words: &[u64]) {
        assert_eq!(words.len(), self.wpr, "row width mismatch");
        xor_words(self.row_mut(i), words);
    }

    /// XORs one word pattern into `count` **consecutive** rows starting at
    /// `first` — the sketch toggle sweep, which XORs an edge identifier
    /// into levels `0..=lvl` of a unit, all adjacent in the row bank. One
    /// bounds check covers the whole run, versus one per row through
    /// [`BitMatrix::xor_bitvec_into_row`].
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is not exactly one row's worth of words or the
    /// row range is out of bounds.
    #[inline]
    pub fn xor_pattern_into_rows(&mut self, first: usize, count: usize, pattern: &[u64]) {
        assert_eq!(pattern.len(), self.wpr, "pattern width mismatch");
        let start = first * self.wpr;
        let run = &mut self.words[start..start + count * self.wpr];
        for row in run.chunks_exact_mut(self.wpr) {
            for (d, &p) in row.iter_mut().zip(pattern) {
                *d ^= p;
            }
        }
    }

    /// `out ^= row[i]` — the word-parallel reduction step of the basis.
    #[inline]
    pub fn xor_row_into_bitvec(&self, i: usize, out: &mut BitVec) {
        assert_eq!(out.len(), self.cols, "row width mismatch");
        out.xor_assign_words(self.row(i));
    }

    /// XORs another matrix of identical shape into this one, across all
    /// rows in a single word sweep.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn xor_assign(&mut self, other: &BitMatrix) {
        assert_eq!(self.cols, other.cols, "column-count mismatch");
        assert_eq!(self.rows, other.rows, "row-count mismatch");
        xor_words(&mut self.words, &other.words);
    }

    /// Whether every cell is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Empties the matrix and re-shapes it to `cols`-bit rows, keeping the
    /// word allocation — so a [`crate::Basis`] can be reused across decodes
    /// without reallocating its row banks.
    pub fn reset(&mut self, cols: usize) {
        self.cols = cols;
        self.wpr = cols.div_ceil(WORD_BITS);
        self.rows = 0;
        self.words.clear();
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix[{}x{}]", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  {:?}", self.row_to_bitvec(i))?;
            if i + 1 < self.rows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_mut_word_aligned_writes_match_bit_writes() {
        let mut by_bits = BitVec::zeros(128);
        let word = 0xDEAD_BEEF_0BAD_F00Du64;
        for i in 0..64 {
            if (word >> i) & 1 == 1 {
                by_bits.set(64 + i, true);
            }
        }
        let mut by_words = BitVec::zeros(128);
        by_words.words_mut()[1] = word;
        assert_eq!(by_bits, by_words);
        assert_eq!(by_words.words()[1], word);
    }

    #[test]
    fn xor_pattern_into_rows_matches_per_row_xor() {
        let cols = 130; // three words per row, masked tail
        let mut pattern = BitVec::zeros(cols);
        pattern.set(0, true);
        pattern.set(65, true);
        pattern.set(129, true);
        let mut a = BitMatrix::with_rows(8, cols);
        let mut b = BitMatrix::with_rows(8, cols);
        // Pre-fill with distinct junk so the XOR is non-trivial.
        for i in 0..8 {
            a.set(i, i % cols, true);
            b.set(i, i % cols, true);
        }
        a.xor_pattern_into_rows(2, 4, pattern.words());
        for i in 2..6 {
            b.xor_bitvec_into_row(i, &pattern);
        }
        assert_eq!(a, b);
        // Zero-count run is a no-op.
        let before = a.clone();
        a.xor_pattern_into_rows(0, 0, pattern.words());
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic]
    fn xor_pattern_wrong_width_panics() {
        let mut m = BitMatrix::with_rows(4, 64);
        m.xor_pattern_into_rows(0, 2, &[0, 0]); // two words, rows hold one
    }

    #[test]
    fn zeros_and_set_get() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn xor_is_gf2_addition() {
        let a = BitVec::from_bits(&[true, true, false, false]);
        let b = BitVec::from_bits(&[true, false, true, false]);
        let c = &a ^ &b;
        assert_eq!(c, BitVec::from_bits(&[false, true, true, false]));
        // x ^ x = 0
        let z = &a ^ &a;
        assert!(z.is_zero());
    }

    #[test]
    fn xor_assign_matches_xor() {
        let a = BitVec::from_bits(&[true, false, true]);
        let b = BitVec::from_bits(&[true, true, false]);
        let mut c = a.clone();
        c ^= &b;
        assert_eq!(c, &a ^ &b);
    }

    #[test]
    fn xor_into_matches_clone_then_xor() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 63, 64, 65, 200, 513] {
            let mut a = BitVec::zeros(len);
            a.randomize(&mut next);
            let mut b = BitVec::zeros(len);
            b.randomize(&mut next);
            // Deliberately stale/mis-sized output buffer.
            let mut out = BitVec::zeros(7);
            out.randomize(&mut next);
            a.xor_into(&b, &mut out);
            assert_eq!(out, &a ^ &b, "len {len}");
        }
    }

    #[test]
    fn copy_from_and_zero_out() {
        let a = BitVec::from_bits(&[true, false, true, true]);
        let mut b = BitVec::zeros(100);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.zero_out();
        assert!(b.is_zero());
        assert_eq!(b.len(), 4);
    }

    #[test]
    #[should_panic]
    fn xor_length_mismatch_panics() {
        let mut a = BitVec::zeros(3);
        let b = BitVec::zeros(4);
        a.xor_assign(&b);
    }

    #[test]
    fn first_one_and_ones() {
        let mut v = BitVec::zeros(200);
        assert_eq!(v.first_one(), None);
        v.set(70, true);
        v.set(150, true);
        assert_eq!(v.first_one(), Some(70));
        assert_eq!(v.ones().collect::<Vec<_>>(), vec![70, 150]);
    }

    #[test]
    fn first_one_from_resumes_mid_word() {
        let mut v = BitVec::zeros(300);
        v.set(5, true);
        v.set(64, true);
        v.set(200, true);
        assert_eq!(v.first_one_from(0), Some(5));
        assert_eq!(v.first_one_from(5), Some(5));
        assert_eq!(v.first_one_from(6), Some(64));
        assert_eq!(v.first_one_from(64), Some(64));
        assert_eq!(v.first_one_from(65), Some(200));
        assert_eq!(v.first_one_from(201), None);
        assert_eq!(v.first_one_from(299), None);
        assert_eq!(v.first_one_from(1000), None);
    }

    #[test]
    fn ones_iterator_matches_get_sweep() {
        let mut state = 0xFACE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 64, 65, 127, 130, 300] {
            let mut v = BitVec::zeros(len);
            v.randomize(&mut next);
            let via_iter: Vec<usize> = v.ones().collect();
            let via_get: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
            assert_eq!(via_iter, via_get, "len {len}");
        }
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = BitVec::from_bits(&[true, false]);
        let b = BitVec::from_bits(&[false, true, true]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(c.slice(0, 2), a);
        assert_eq!(c.slice(2, 5), b);
    }

    #[test]
    fn from_words_masks_tail() {
        let v = BitVec::from_words(&[u64::MAX], 10);
        assert_eq!(v.count_ones(), 10);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn randomize_respects_length() {
        let mut v = BitVec::zeros(67);
        let mut x = 0u64;
        v.randomize(|| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            !0
        });
        assert_eq!(v.count_ones(), 67);
    }

    #[test]
    fn empty_vector() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert!(v.is_zero());
        assert_eq!(v.ones().count(), 0);
    }

    #[test]
    fn debug_shows_bits() {
        let v = BitVec::from_bits(&[true, false, true]);
        assert_eq!(format!("{v:?}"), "BitVec[101]");
    }

    #[test]
    fn matrix_push_and_roundtrip() {
        let mut m = BitMatrix::new(70);
        assert_eq!(m.num_rows(), 0);
        let mut a = BitVec::zeros(70);
        a.set(3, true);
        a.set(69, true);
        let mut b = BitVec::zeros(70);
        b.set(64, true);
        assert_eq!(m.push_row(&a), 0);
        assert_eq!(m.push_row(&b), 1);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.row_to_bitvec(0), a);
        assert_eq!(m.row_to_bitvec(1), b);
        assert!(m.get(0, 3) && m.get(0, 69) && m.get(1, 64));
        assert!(!m.get(0, 4));
        assert_eq!(m.row_first_one(0), Some(3));
        assert_eq!(m.row_first_one(1), Some(64));
    }

    #[test]
    fn matrix_xor_rows_matches_bitvec_xor() {
        let a = BitVec::from_bits(&[true, true, false, true]);
        let b = BitVec::from_bits(&[false, true, true, false]);
        let mut m = BitMatrix::new(4);
        m.push_row(&a);
        m.push_row(&b);
        m.xor_rows(1, 0);
        assert_eq!(m.row_to_bitvec(1), &a ^ &b);
        assert_eq!(m.row_to_bitvec(0), a);
        m.xor_rows(0, 1);
        assert_eq!(m.row_to_bitvec(0), b);
    }

    #[test]
    fn matrix_row_bitvec_xor_bridges() {
        let mut m = BitMatrix::with_rows(2, 130);
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(129, true);
        m.xor_bitvec_into_row(1, &v);
        assert!(m.row_is_zero(0));
        assert!(!m.row_is_zero(1));
        let mut out = BitVec::zeros(130);
        m.xor_row_into_bitvec(1, &mut out);
        assert_eq!(out, v);
        // XOR in again: cancels.
        m.xor_bitvec_into_row(1, &v);
        assert!(m.is_zero());
    }

    #[test]
    fn matrix_whole_matrix_xor() {
        let mut a = BitMatrix::with_rows(3, 65);
        let mut b = BitMatrix::with_rows(3, 65);
        a.set(0, 64, true);
        a.set(2, 1, true);
        b.set(0, 64, true);
        b.set(1, 7, true);
        a.xor_assign(&b);
        assert!(!a.get(0, 64));
        assert!(a.get(1, 7));
        assert!(a.get(2, 1));
    }

    #[test]
    fn reset_zeroed_reuses_and_resizes() {
        let mut v = BitVec::from_bits(&[true, true, true]);
        v.reset_zeroed(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        v.set(129, true);
        v.reset_zeroed(2);
        assert_eq!(v.len(), 2);
        assert!(v.is_zero());
    }

    #[test]
    fn count_ones_and_matches_materialised_and() {
        let mut state = 0xC0DE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 64, 65, 200] {
            let mut a = BitVec::zeros(len);
            a.randomize(&mut next);
            let mut b = BitVec::zeros(len);
            b.randomize(&mut next);
            let direct = (0..len).filter(|&i| a.get(i) && b.get(i)).count();
            assert_eq!(a.count_ones_and(&b), direct, "len {len}");
        }
    }

    #[test]
    fn matrix_reset_reshapes_in_place() {
        let mut m = BitMatrix::with_rows(3, 65);
        m.set(2, 64, true);
        m.reset(10);
        assert_eq!(m.num_rows(), 0);
        assert_eq!(m.num_cols(), 10);
        let r = m.push_row(&BitVec::from_bits(&[true; 10]));
        assert_eq!(r, 0);
        assert_eq!(m.row_to_bitvec(0).count_ones(), 10);
    }

    /// A bank row drawn by `randomize_row` is the vector `randomize`
    /// draws from the same stream, at every width; row XOR and zeroing
    /// touch only their row.
    #[test]
    fn matrix_row_writes_match_bitvec_writes() {
        for cols in [0, 1, 44, 63, 64, 65, 128, 168] {
            let stream = |mut s: u64| {
                move || {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    s
                }
            };
            let mut m = BitMatrix::with_rows(3, cols);
            m.randomize_row(1, stream(cols as u64));
            let mut v = BitVec::zeros(cols);
            v.randomize(stream(cols as u64));
            assert_eq!(m.row_to_bitvec(1), v, "cols {cols}");
            assert!(m.row_is_zero(0) && m.row_is_zero(2));
            m.xor_words_into_row(2, v.words());
            m.xor_words_into_row(2, m.row(1).to_vec().as_slice());
            assert!(m.row_is_zero(2));
            m.row_mut(0).copy_from_slice(v.words());
            m.zero_row(1);
            assert_eq!(m.row_to_bitvec(0), v);
            assert!(m.row_is_zero(1));
        }
    }

    #[test]
    #[should_panic]
    fn matrix_xor_rows_same_row_panics() {
        let mut m = BitMatrix::with_rows(2, 8);
        m.xor_rows(1, 1);
    }

    #[test]
    #[should_panic]
    fn matrix_push_wrong_width_panics() {
        let mut m = BitMatrix::new(8);
        m.push_row(&BitVec::zeros(9));
    }
}
