//! Fixture: FTL003 in the labels crate, and its test-region exemption.
//! Never compiled — only lexed by `tests/self_test.rs`.

use ftl_seeded::DetHashMap;

pub fn offset_of(index: &DetHashMap<u64, usize>, key: u64) -> usize {
    index[&key] // FTL003: map index panics on a missing key
}

#[cfg(test)]
mod tests {
    // Test code is out of scope.
    #[test]
    fn indexing_is_fine_here() {
        let mut m = ftl_seeded::DetHashMap::default();
        m.insert(1u64, 2usize);
        assert_eq!(m[&1], 2);
    }
}
