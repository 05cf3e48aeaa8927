//! Fixture: FTL003 covers ftl-server. Never compiled — only lexed by
//! `tests/self_test.rs`.

pub fn route(conns: &std::collections::BTreeMap<u32, u64>, id: u32) -> u64 {
    conns[&id] // FTL003: map index panics on a missing key
}
