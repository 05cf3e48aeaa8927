//! Fixture: FTL003 covers ftl-obs. Never compiled — only lexed by
//! `tests/self_test.rs`.

pub fn by_name(series: &std::collections::BTreeMap<&str, u64>, name: &str) -> u64 {
    series[&name] // FTL003: map index panics on a missing key
}
