//! Property-based tests for GF(2) algebra, including differential tests of
//! the pivot-indexed [`Basis`] against the scan-based
//! [`reference::NaiveBasis`] it replaced, and of the transposed
//! [`NullSpace`] kernel against both.

use ftl_gf2::reference::NaiveBasis;
use ftl_gf2::{Basis, BitMatrix, BitVec, DecodeScratch, NullSpace};
use proptest::prelude::*;

/// SplitMix64. Random columns must come from a nonlinear generator:
/// xorshift words are GF(2)-linear in the seed, so any 65 of them have rank
/// at most 64, which would hide rank bugs past one word of columns.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `f` columns of `b` bits: mostly random, with zero columns, duplicates of
/// earlier columns and XORs of a few earlier columns planted among them, so
/// dependent columns occur even when `b ≥ f`.
fn planted_columns(f: usize, b: usize, seed: u64) -> Vec<BitVec> {
    let mut state = seed;
    let mut cols: Vec<BitVec> = Vec::with_capacity(f);
    for j in 0..f {
        let mut c = BitVec::zeros(b);
        let pick = |state: &mut u64| (splitmix(state) % j.max(1) as u64) as usize;
        match (splitmix(&mut state) % 10, j) {
            (0, _) => {}
            (1, 1..) => c.copy_from(&cols[pick(&mut state)]),
            (2, 1..) => {
                for _ in 0..2 + splitmix(&mut state) % 3 {
                    c.xor_assign(&cols[pick(&mut state)]);
                }
            }
            _ => c.randomize(|| splitmix(&mut state)),
        }
        cols.push(c);
    }
    cols
}

/// Eliminates `cols` with the kernel and with `Basis::insert_with`, and
/// asserts the same rank and the same generators, bit for bit and in the
/// same order; with `naive`, the same against `NaiveBasis` too. Every
/// generator must XOR its columns to zero. Returns the generator count.
fn assert_kernel_matches_oracles(cols: &[BitVec], b: usize, naive: bool) -> usize {
    let f = cols.len();
    let mut ns = NullSpace::new();
    ns.reset(b, cols.len());
    for c in cols {
        ns.push_column(c.words());
    }
    let rank = ns.eliminate();
    let gens = ns.generators();
    assert_eq!(ns.rank(), rank);
    assert_eq!(rank + gens.len(), f, "f = {f}, b = {b}");

    let mut basis = Basis::new(b, f);
    let mut scratch = DecodeScratch::new();
    let mut witnesses = Vec::new();
    for c in cols {
        if !basis.insert_with(c, &mut scratch) {
            witnesses.push(scratch.combo().clone());
        }
    }
    assert_eq!(rank, basis.rank(), "rank vs Basis, f = {f}, b = {b}");
    assert_eq!(gens, witnesses, "generators vs Basis, f = {f}, b = {b}");

    if naive {
        let mut oracle = NaiveBasis::new(b, f);
        let mut naive_witnesses = Vec::new();
        for (j, c) in cols.iter().enumerate() {
            // A column in the span of the earlier ones is dependent; its
            // witness is its certificate plus the column itself.
            if let Some(mut w) = oracle.express(c) {
                w.set(j, true);
                naive_witnesses.push(w);
            }
            oracle.insert(c);
        }
        assert_eq!(rank, oracle.rank(), "rank vs NaiveBasis, f = {f}, b = {b}");
        assert_eq!(
            gens, naive_witnesses,
            "generators vs NaiveBasis, f = {f}, b = {b}"
        );
    }

    for g in &gens {
        assert_eq!(g.len(), f);
        let mut acc = BitVec::zeros(b);
        for i in g.ones() {
            acc.xor_assign(&cols[i]);
        }
        assert!(acc.is_zero(), "generator {g:?} does not XOR to zero");
    }
    gens.len()
}

/// The kernel matches `Basis` and `NaiveBasis` at every word boundary of
/// the column count, with `b` from well below `f` (many generators) to
/// `f + 70`.
#[test]
fn null_space_kernel_matches_basis_and_naive_at_word_boundaries() {
    let mut total_gens = 0;
    for f in [
        0usize, 1, 4, 8, 9, 16, 17, 32, 33, 63, 64, 65, 127, 128, 129, 200,
    ] {
        let mut widths = vec![1, f / 2, f.saturating_sub(1), f, f + 1, f + 40, f + 70];
        widths.retain(|&b| b >= 1);
        widths.dedup();
        for b in widths {
            for seed in 0..2u64 {
                let cols = planted_columns(f, b, seed ^ ((f as u64) << 20) ^ ((b as u64) << 40));
                total_gens += assert_kernel_matches_oracles(&cols, b, true);
            }
        }
    }
    assert!(total_gens > 1000, "only {total_gens} generators exercised");
}

/// A reused kernel gives the same answers as a fresh one: nothing of an
/// earlier, larger system leaks into the next.
#[test]
fn null_space_kernel_reuse_across_shapes_matches_fresh() {
    let mut reused = NullSpace::new();
    let mut state = 0xC0FF_EE00u64;
    for _ in 0..40 {
        let f = (splitmix(&mut state) % 220) as usize;
        let b = 1 + (splitmix(&mut state) % (f as u64 + 70)) as usize;
        let cols = planted_columns(f, b, splitmix(&mut state));
        let mut fresh = NullSpace::new();
        for ns in [&mut reused, &mut fresh] {
            ns.reset(b, cols.len());
            for c in &cols {
                ns.push_column(c.words());
            }
            ns.eliminate();
        }
        assert_eq!(reused.rank(), fresh.rank());
        assert_eq!(reused.generators(), fresh.generators());
    }
}

fn bitvec_strategy(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(|bits| BitVec::from_bits(&bits))
}

proptest! {
    /// XOR at the bit-vector level is XOR bit by bit.
    #[test]
    fn xor_is_bitwise(a in bitvec_strategy(130), b in bitvec_strategy(130)) {
        let x = &a ^ &b;
        for i in 0..130 {
            prop_assert_eq!(x.get(i), a.get(i) ^ b.get(i));
        }
        prop_assert_eq!(x.count_ones(), (0..130).filter(|&i| x.get(i)).count());
    }

    /// XOR is associative, commutative, self-inverse.
    #[test]
    fn xor_group_laws(len in 1usize..200,
                      seed_a in any::<u64>(), seed_b in any::<u64>(), seed_c in any::<u64>()) {
        let mk = |seed: u64| {
            let mut v = BitVec::zeros(len);
            let mut s = seed | 1;
            v.randomize(|| { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s });
            v
        };
        let (a, b, c) = (mk(seed_a), mk(seed_b), mk(seed_c));
        prop_assert_eq!(&(&a ^ &b) ^ &c, &a ^ &(&b ^ &c));
        prop_assert_eq!(&a ^ &b, &b ^ &a);
        prop_assert!((&a ^ &a).is_zero());
        let zero = BitVec::zeros(len);
        prop_assert_eq!(&a ^ &zero, a.clone());
    }

    /// Concat then slice round-trips.
    #[test]
    fn concat_slice_roundtrip(la in 0usize..80, lb in 0usize..80, seed in any::<u64>()) {
        let mut s = seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let mut a = BitVec::zeros(la);
        a.randomize(&mut next);
        let mut b = BitVec::zeros(lb);
        b.randomize(&mut next);
        let c = a.concat(&b);
        prop_assert_eq!(c.slice(0, la), a);
        prop_assert_eq!(c.slice(la, la + lb), b);
        prop_assert_eq!(c.count_ones(), c.ones().count());
    }

    /// Rank never exceeds min(dim, inserted), and inserting a linear
    /// combination never raises it.
    #[test]
    fn rank_bounds(
        dim in 1usize..20,
        vecs in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 1..20), 1..10),
    ) {
        let vecs: Vec<BitVec> = vecs
            .into_iter()
            .map(|mut v| {
                v.resize(dim, false);
                BitVec::from_bits(&v)
            })
            .collect();
        let mut basis = Basis::new(dim, vecs.len() + 1);
        for v in &vecs {
            basis.insert(v);
        }
        prop_assert!(basis.rank() <= dim.min(vecs.len()));
        // XOR of the first two (if present) is dependent.
        if vecs.len() >= 2 {
            let dep = &vecs[0] ^ &vecs[1];
            let before = basis.rank();
            basis.insert(&dep);
            prop_assert_eq!(basis.rank(), before);
        }
    }

    /// express() is consistent: any XOR-combination of inserted vectors is
    /// expressible, and the certificate reproduces it.
    #[test]
    fn express_closure(
        dim in 1usize..16,
        vecs in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 1..16), 1..8),
        mask in any::<u8>(),
    ) {
        let vecs: Vec<BitVec> = vecs
            .into_iter()
            .map(|mut v| {
                v.resize(dim, false);
                BitVec::from_bits(&v)
            })
            .collect();
        let mut basis = Basis::new(dim, vecs.len());
        for v in &vecs {
            basis.insert(v);
        }
        let mut target = BitVec::zeros(dim);
        for (i, v) in vecs.iter().enumerate() {
            if (mask >> (i % 8)) & 1 == 1 {
                target.xor_assign(v);
            }
        }
        let x = basis.express(&target);
        prop_assert!(x.is_some(), "combination of inserted vectors must be in span");
        let x = x.unwrap();
        let mut acc = BitVec::zeros(dim);
        for i in x.ones() {
            acc.xor_assign(&vecs[i]);
        }
        prop_assert_eq!(acc, target);
    }

    /// The pivot-indexed basis is bit-for-bit equivalent to the scan-based
    /// reference: same per-insert independence flags, same rank, and the
    /// same membership answers **and combination certificates** for both
    /// in-span and out-of-span targets.
    #[test]
    fn pivot_indexed_basis_matches_naive_reference(
        dim in 1usize..40,
        vecs in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 1..40), 0..20),
        target in proptest::collection::vec(any::<bool>(), 1..40),
        mask in any::<u16>(),
    ) {
        let vecs: Vec<BitVec> = vecs
            .into_iter()
            .map(|mut v| {
                v.resize(dim, false);
                BitVec::from_bits(&v)
            })
            .collect();
        let capacity = vecs.len() + 1;
        let mut fast = Basis::new(dim, capacity);
        let mut naive = NaiveBasis::new(dim, capacity);
        for v in &vecs {
            prop_assert_eq!(fast.insert(v), naive.insert(v));
            prop_assert_eq!(fast.rank(), naive.rank());
            prop_assert_eq!(fast.num_inserted(), naive.num_inserted());
        }
        // An arbitrary target (may or may not be in span).
        let mut t = target;
        t.resize(dim, false);
        let t = BitVec::from_bits(&t);
        prop_assert_eq!(fast.express(&t), naive.express(&t));
        // A guaranteed-in-span target: XOR of a masked subset.
        let mut in_span = BitVec::zeros(dim);
        for (i, v) in vecs.iter().enumerate() {
            if (mask >> (i % 16)) & 1 == 1 {
                in_span.xor_assign(v);
            }
        }
        prop_assert_eq!(fast.express(&in_span), naive.express(&in_span));
    }

    /// Batched insertion is equivalent to one-at-a-time insertion — same
    /// flags, same rank, same certificates — and to the naive scan-based
    /// basis.
    #[test]
    fn insert_all_matches_sequential_and_naive(
        dim in 1usize..32,
        vecs in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 1..32), 1..16),
        target in proptest::collection::vec(any::<bool>(), 1..32),
    ) {
        let vecs: Vec<BitVec> = vecs
            .into_iter()
            .map(|mut v| {
                v.resize(dim, false);
                BitVec::from_bits(&v)
            })
            .collect();
        let mut batched = Basis::new(dim, vecs.len());
        let batched_flags = batched.insert_all(&vecs);
        let mut sequential = Basis::new(dim, vecs.len());
        let sequential_flags: Vec<bool> = vecs.iter().map(|v| sequential.insert(v)).collect();
        prop_assert_eq!(batched_flags, sequential_flags);
        prop_assert_eq!(batched.rank(), sequential.rank());
        let mut t = target;
        t.resize(dim, false);
        let t = BitVec::from_bits(&t);
        prop_assert_eq!(batched.express(&t), sequential.express(&t));
        let mut naive = NaiveBasis::new(dim, vecs.len());
        for v in &vecs {
            naive.insert(v);
        }
        prop_assert_eq!(batched.express(&t), naive.express(&t));
    }

    /// `xor_into` produces exactly what the old clone-then-`xor_assign`
    /// pattern produced, regardless of the output buffer's prior state.
    #[test]
    fn xor_into_matches_clone_xor_assign(
        len in 1usize..300,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        stale_len in 0usize..80,
    ) {
        let mk = |seed: u64, n: usize| {
            let mut v = BitVec::zeros(n);
            let mut s = seed | 1;
            v.randomize(|| { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s });
            v
        };
        let a = mk(seed_a, len);
        let b = mk(seed_b, len);
        let mut out = mk(seed_a ^ seed_b, stale_len);
        a.xor_into(&b, &mut out);
        let mut cloned = a.clone();
        cloned.xor_assign(&b);
        prop_assert_eq!(out, cloned);
    }

    /// `BitMatrix` rows behave exactly like the `BitVec`s they were built
    /// from: round-trips, first-one scans, row XOR vs `xor_assign`.
    #[test]
    fn bitmatrix_rows_match_bitvec_ops(
        cols in 1usize..200,
        seeds in proptest::collection::vec(any::<u64>(), 2..8),
    ) {
        let rows: Vec<BitVec> = seeds
            .iter()
            .map(|&seed| {
                let mut v = BitVec::zeros(cols);
                let mut s = seed | 1;
                v.randomize(|| { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s });
                v
            })
            .collect();
        let mut m = BitMatrix::new(cols);
        for r in &rows {
            m.push_row(r);
        }
        prop_assert_eq!(m.num_rows(), rows.len());
        prop_assert_eq!(m.num_cols(), cols);
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(m.row_to_bitvec(i), r.clone());
            prop_assert_eq!(m.row_first_one(i), r.first_one());
            prop_assert_eq!(m.row_is_zero(i), r.is_zero());
        }
        // row[0] ^= row[1] matches the BitVec path (old clone + xor_assign).
        let mut expect = rows[0].clone();
        expect.xor_assign(&rows[1]);
        m.xor_rows(0, 1);
        prop_assert_eq!(m.row_to_bitvec(0), expect.clone());
        // Bridging ops: XOR a row into a BitVec and a BitVec into a row.
        let mut out = BitVec::zeros(cols);
        m.xor_row_into_bitvec(0, &mut out);
        prop_assert_eq!(out, expect.clone());
        m.xor_bitvec_into_row(0, &expect);
        prop_assert!(m.row_is_zero(0));
    }

    /// The kernel matches `Basis` on random shapes, zero and duplicate
    /// columns included.
    #[test]
    fn null_space_kernel_matches_basis(
        f in 0usize..260,
        extra in 0usize..330,
        seed in any::<u64>(),
    ) {
        let b = 1 + extra % (f + 70);
        assert_kernel_matches_oracles(&planted_columns(f, b, seed), b, false);
    }
}
