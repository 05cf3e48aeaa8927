//! Fixture: FTL001 and FTL003 cases in the engine crate. Never compiled —
//! only lexed by `tests/self_test.rs`.

use std::collections::BTreeMap;

// ftl-analyzer: hot-path
pub fn hot_kernel(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::new(); // FTL001: Vec::new in a hot fn
    out.push(helper(xs));
    out
}

fn helper(xs: &[u64]) -> u64 {
    // Reached transitively from hot_kernel — still FTL001.
    let copy = xs.to_vec(); // FTL001: .to_vec() in the hot closure
    copy.len() as u64
}

fn untouched(xs: &[u64]) -> Vec<u64> {
    // NOT in the hot closure: allocating here is fine for FTL001.
    xs.to_vec() // cold-alloc-site
}

pub fn lookup(map: &BTreeMap<u64, u64>, k: u64) -> u64 {
    map[&k] // FTL003: map index panics on a missing key
}

pub fn lookup_through_try(map: Option<&BTreeMap<u64, u64>>, k: u64) -> Option<u64> {
    Some(map?[&k]) // FTL003: `?` yields the map
}

pub fn not_map_indexing(xs: &[u64], t: (Vec<u64>,), i: usize) -> u64 {
    // None of these fire: slice indexing is clippy's indexing_slicing,
    // and array literals/patterns of references are not index expressions.
    let refs = [&xs[i], &t.0[i]]; // slice-index-site
    let v = vec![&refs];
    if let [&a, ..] = refs {
        return a + v.len() as u64;
    }
    0
}

// ftl-analyzer: allow(panic-free) fixture: blessed lookup of a key inserted above
pub fn blessed_lookup(map: &BTreeMap<u64, u64>) -> u64 {
    map[&0] // exempted by the fn-level allow above
}

pub fn hidden_in_strings() -> &'static str {
    // None of these fire: banned names live in comments and literals only.
    // map[&k] vec![] Vec::new() — just a comment
    "map[&k] .to_vec() vec![Vec::new()]"
}
