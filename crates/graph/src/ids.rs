//! Newtype identifiers for vertices and edges.
//!
//! Using newtypes (rather than bare `usize`) statically prevents mixing up
//! vertex indices, edge indices and port numbers, which all float around the
//! routing code.

use std::fmt;

/// Identifier of a vertex: a dense index in `0..n`.
///
/// The paper assumes vertices carry unique `O(log n)`-bit identifiers in
/// `{1..n}`; we use `0..n`.
///
/// ```
/// use ftl_graph::VertexId;
/// let v = VertexId::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(u32);

impl VertexId {
    /// Creates a vertex id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        VertexId(index as u32)
    }

    /// Returns the dense index of this vertex.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw 32-bit value (used when packing identifiers into label bits).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a vertex id from its raw 32-bit value.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        VertexId(raw)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for VertexId {
    fn from(index: usize) -> Self {
        VertexId::new(index)
    }
}

/// Identifier of an edge: a dense index in `0..m` into [`crate::Graph::edges`].
///
/// Multigraphs are supported, so an edge id (not an endpoint pair) is the
/// canonical identity of an edge; parallel edges get distinct ids.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        EdgeId(index as u32)
    }

    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw 32-bit value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an edge id from its raw 32-bit value.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        EdgeId(raw)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(index: usize) -> Self {
        EdgeId::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeSet;
    use std::hash::{Hash, Hasher};

    #[test]
    fn vertex_id_roundtrip() {
        for i in [0usize, 1, 17, 123_456] {
            let v = VertexId::new(i);
            assert_eq!(v.index(), i);
            assert_eq!(VertexId::from_raw(v.raw()), v);
        }
    }

    #[test]
    fn edge_id_roundtrip() {
        for i in [0usize, 1, 42, 999_999] {
            let e = EdgeId::new(i);
            assert_eq!(e.index(), i);
            assert_eq!(EdgeId::from_raw(e.raw()), e);
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = BTreeSet::new();
        set.insert(VertexId::new(1));
        set.insert(VertexId::new(1));
        set.insert(VertexId::new(2));
        assert_eq!(set.len(), 2);
        let hash = |v: VertexId| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(VertexId::new(1)), hash(VertexId::new(1)));
        assert!(VertexId::new(1) < VertexId::new(2));
        assert!(EdgeId::new(3) > EdgeId::new(0));
    }

    #[test]
    fn debug_formats_are_nonempty() {
        assert_eq!(format!("{:?}", VertexId::new(5)), "v5");
        assert_eq!(format!("{:?}", EdgeId::new(7)), "e7");
        assert_eq!(format!("{}", VertexId::new(5)), "v5");
    }

    #[test]
    fn from_usize_conversions() {
        let v: VertexId = 9usize.into();
        assert_eq!(v, VertexId::new(9));
        let e: EdgeId = 11usize.into();
        assert_eq!(e, EdgeId::new(11));
    }
}
