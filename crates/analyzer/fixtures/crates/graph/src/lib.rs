//! Fixture: FTL003 does not cover ftl-graph. Never compiled — only lexed
//! by `tests/self_test.rs`.

pub fn degree(deg: &std::collections::BTreeMap<usize, usize>, v: usize) -> usize {
    deg[&v] // out-of-scope-site
}
