//! Message-level routing simulation plumbing: traversal accounting, fault
//! discovery on contact, header-size tracking.

use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_seeded::DetHashSet;

/// Outcome of routing one message.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingOutcome {
    /// Whether the message reached its destination.
    pub delivered: bool,
    /// Total weight of all traversed edges (including reversals and
    /// Γ-block detours).
    pub weight: u64,
    /// Total number of edge traversals.
    pub hops: usize,
    /// `dist_{G\F}(s, t)` (ground truth), if finite.
    pub optimal: Option<u64>,
    /// Distance-scale phases entered.
    pub phases: usize,
    /// Trial iterations across all phases (re-sends after discovering a
    /// fault).
    pub iterations: usize,
    /// Number of distinct faulty edges discovered en route.
    pub faults_discovered: usize,
    /// Largest message header observed, in bits.
    pub max_header_bits: usize,
}

impl RoutingOutcome {
    /// Multiplicative stretch `weight / optimal` (`None` when undelivered or
    /// when `s = t`).
    pub fn stretch(&self) -> Option<f64> {
        match (self.delivered, self.optimal) {
            (true, Some(opt)) if opt > 0 => Some(self.weight as f64 / opt as f64),
            (true, Some(0)) => Some(1.0),
            _ => None,
        }
    }
}

/// A moving message cursor over the **host** graph: every traversal is
/// charged, faulty edges refuse to be crossed, and the set of faults touched
/// (i.e. discovered by arriving at an endpoint) is tracked.
#[derive(Debug)]
pub struct Cursor<'a> {
    graph: &'a Graph,
    faults: &'a DetHashSet<EdgeId>,
    /// Current position.
    pub at: VertexId,
    /// Accumulated traversal weight.
    pub weight: u64,
    /// Accumulated hop count.
    pub hops: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at `s`.
    pub fn new(graph: &'a Graph, faults: &'a DetHashSet<EdgeId>, s: VertexId) -> Self {
        Cursor {
            graph,
            faults,
            at: s,
            weight: 0,
            hops: 0,
        }
    }

    /// Whether `e` is faulty; callable only because the cursor is *at* one
    /// of `e`'s endpoints (the discovery model of Section 2).
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not at an endpoint of `e`.
    pub fn probe(&self, e: EdgeId) -> bool {
        assert!(
            self.graph.edge(e).is_incident_to(self.at),
            "probing an edge from afar"
        );
        self.faults.contains(&e)
    }

    /// Crosses edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is faulty or not incident to the current position —
    /// routing logic must `probe` first.
    pub fn cross(&mut self, e: EdgeId) {
        assert!(!self.faults.contains(&e), "crossing a faulty edge");
        let edge = self.graph.edge(e);
        self.at = edge.other(self.at);
        self.weight += edge.weight();
        self.hops += 1;
    }

    /// Round trip to a neighbor and back (the Γ-block label fetch of
    /// Claim 5.7): charges `2·w(e)` without moving.
    ///
    /// # Panics
    ///
    /// Panics if `e` is faulty or not incident.
    pub fn round_trip(&mut self, e: EdgeId) {
        assert!(!self.faults.contains(&e), "round trip over a faulty edge");
        let edge = self.graph.edge(e);
        assert!(edge.is_incident_to(self.at), "round trip from afar");
        self.weight += 2 * edge.weight();
        self.hops += 2;
    }

    /// Retreats along a recorded path (edge ids in forward order), charging
    /// every edge again; used when an attempt aborts and the message returns
    /// to the source.
    pub fn retreat(&mut self, forward_path: &[EdgeId], back_to: VertexId) {
        for &e in forward_path.iter().rev() {
            let edge = self.graph.edge(e);
            self.weight += edge.weight();
            self.hops += 1;
        }
        self.at = back_to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;

    #[test]
    fn cursor_crosses_and_charges() {
        let g = generators::path(4);
        let faults = DetHashSet::default();
        let mut c = Cursor::new(&g, &faults, VertexId::new(0));
        c.cross(EdgeId::new(0));
        c.cross(EdgeId::new(1));
        assert_eq!(c.at, VertexId::new(2));
        assert_eq!(c.weight, 2);
        assert_eq!(c.hops, 2);
    }

    #[test]
    fn probe_detects_faults_at_endpoint() {
        let g = generators::path(3);
        let faults: DetHashSet<EdgeId> = [EdgeId::new(1)].into_iter().collect();
        let c = Cursor::new(&g, &faults, VertexId::new(1));
        assert!(!c.probe(EdgeId::new(0)));
        assert!(c.probe(EdgeId::new(1)));
    }

    #[test]
    #[should_panic]
    fn probe_from_afar_panics() {
        let g = generators::path(4);
        let faults = DetHashSet::default();
        let c = Cursor::new(&g, &faults, VertexId::new(0));
        c.probe(EdgeId::new(2));
    }

    #[test]
    #[should_panic]
    fn crossing_fault_panics() {
        let g = generators::path(3);
        let faults: DetHashSet<EdgeId> = [EdgeId::new(0)].into_iter().collect();
        let mut c = Cursor::new(&g, &faults, VertexId::new(0));
        c.cross(EdgeId::new(0));
    }

    #[test]
    fn round_trip_charges_double() {
        let mut b = ftl_graph::GraphBuilder::new(2);
        b.add_edge(0, 1, 5);
        let g = b.build();
        let faults = DetHashSet::default();
        let mut c = Cursor::new(&g, &faults, VertexId::new(0));
        c.round_trip(EdgeId::new(0));
        assert_eq!(c.at, VertexId::new(0));
        assert_eq!(c.weight, 10);
        assert_eq!(c.hops, 2);
    }

    #[test]
    fn retreat_returns_and_charges() {
        let g = generators::path(4);
        let faults = DetHashSet::default();
        let mut c = Cursor::new(&g, &faults, VertexId::new(0));
        c.cross(EdgeId::new(0));
        c.cross(EdgeId::new(1));
        c.retreat(&[EdgeId::new(0), EdgeId::new(1)], VertexId::new(0));
        assert_eq!(c.at, VertexId::new(0));
        assert_eq!(c.weight, 4);
        assert_eq!(c.hops, 4);
    }

    #[test]
    fn stretch_computation() {
        let o = RoutingOutcome {
            delivered: true,
            weight: 10,
            hops: 10,
            optimal: Some(5),
            phases: 1,
            iterations: 1,
            faults_discovered: 0,
            max_header_bits: 0,
        };
        assert_eq!(o.stretch(), Some(2.0));
        let und = RoutingOutcome {
            delivered: false,
            optimal: None,
            ..o.clone()
        };
        assert_eq!(und.stretch(), None);
    }
}
