//! Unified `f`-FT connectivity labeling for general graphs (Theorem 1.3).
//!
//! Wraps the two per-component constructions (`ftl-cycle-space`,
//! `ftl-sketch`) with the component-id trick of Section 3: every vertex and
//! edge label carries the id of its connected component, the scheme is
//! instantiated once per component, and a query answers "connected" iff the
//! endpoints share a component and the per-component decoder agrees.

use ftl_cycle_space::{CycleSpaceEdgeLabel, CycleSpaceScheme, CycleSpaceVertexLabel};
use ftl_graph::traversal::connected_components;
use ftl_graph::{EdgeId, Graph, InducedSubgraph, VertexId};
use ftl_seeded::Seed;
use ftl_sketch::{SketchEdgeLabel, SketchParams, SketchScheme, SketchVertexLabel};

/// Which of the paper's two constructions backs the labeling.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Cycle-space sampling (Theorem 3.6): `O(f + log n)`-bit labels,
    /// optimal for `f = O(log n)`.
    CycleSpace,
    /// Linear sketches (Theorem 3.7): `O(log³ n)`-bit labels independent of
    /// `f`; also yields a succinct path, enabling routing.
    Sketch,
}

/// Inner per-component vertex label.
#[derive(Debug, Clone, PartialEq)]
enum InnerVertexLabel {
    CycleSpace(CycleSpaceVertexLabel),
    Sketch(SketchVertexLabel),
}

/// Inner per-component edge label.
#[derive(Debug, Clone, PartialEq)]
enum InnerEdgeLabel {
    CycleSpace(CycleSpaceEdgeLabel),
    Sketch(SketchEdgeLabel),
}

/// A vertex label of the unified scheme: component id + inner label.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexLabel {
    component: usize,
    inner: InnerVertexLabel,
}

impl VertexLabel {
    /// The connected-component id carried by the label.
    pub fn component(&self) -> usize {
        self.component
    }
}

/// An edge label of the unified scheme: component id + inner label.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeLabel {
    component: usize,
    inner: InnerEdgeLabel,
}

impl EdgeLabel {
    /// The connected-component id carried by the label.
    pub fn component(&self) -> usize {
        self.component
    }
}

enum InnerScheme {
    CycleSpace(CycleSpaceScheme),
    Sketch(SketchScheme),
}

struct Component {
    sub: InducedSubgraph,
    scheme: InnerScheme,
}

/// An `f`-FT connectivity labeling of a general graph (Theorem 1.3).
pub struct ConnectivityLabeling {
    kind: SchemeKind,
    components: Vec<Component>,
    comp_of_vertex: Vec<usize>,
    comp_of_edge: Vec<usize>,
}

impl ConnectivityLabeling {
    /// Labels `graph` against up to `f` edge faults with the chosen scheme.
    pub fn new(graph: &Graph, kind: SchemeKind, f: usize, seed: Seed) -> Self {
        let (comp_of_vertex, count) = connected_components(graph, &[]);
        let mut components = Vec::with_capacity(count);
        for c in 0..count {
            let verts: Vec<VertexId> = (0..graph.num_vertices())
                .filter(|&i| comp_of_vertex[i] == c)
                .map(VertexId::new)
                .collect();
            let sub = InducedSubgraph::new(graph, &verts, |_| true);
            let comp_seed = seed.derive(c as u64);
            let scheme = match kind {
                SchemeKind::CycleSpace => InnerScheme::CycleSpace(
                    CycleSpaceScheme::label(sub.graph(), f, comp_seed)
                        .expect("component is connected"),
                ),
                SchemeKind::Sketch => {
                    let params = SketchParams::for_graph(sub.graph());
                    InnerScheme::Sketch(
                        SketchScheme::label(sub.graph(), &params, comp_seed)
                            .expect("component is connected"),
                    )
                }
            };
            components.push(Component { sub, scheme });
        }
        let comp_of_edge = graph
            .edge_ids()
            .map(|(_, e)| comp_of_vertex[e.u().index()])
            .collect();
        ConnectivityLabeling {
            kind,
            components,
            comp_of_vertex,
            comp_of_edge,
        }
    }

    /// Which construction backs this labeling.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// The label of vertex `v`.
    pub fn vertex_label(&self, v: VertexId) -> VertexLabel {
        let c = self.comp_of_vertex[v.index()];
        let comp = &self.components[c];
        let lv = comp.sub.to_local_vertex(v).expect("vertex in component");
        let inner = match &comp.scheme {
            InnerScheme::CycleSpace(s) => InnerVertexLabel::CycleSpace(s.vertex_label(lv)),
            InnerScheme::Sketch(s) => InnerVertexLabel::Sketch(s.vertex_label(lv)),
        };
        VertexLabel {
            component: c,
            inner,
        }
    }

    /// The label of edge `e`.
    pub fn edge_label(&self, e: EdgeId) -> EdgeLabel {
        let c = self.comp_of_edge[e.index()];
        let comp = &self.components[c];
        let le = comp.sub.to_local_edge(e).expect("edge in component");
        let inner = match &comp.scheme {
            InnerScheme::CycleSpace(s) => InnerEdgeLabel::CycleSpace(s.edge_label(le)),
            InnerScheme::Sketch(s) => InnerEdgeLabel::Sketch(s.edge_label(le)),
        };
        EdgeLabel {
            component: c,
            inner,
        }
    }

    /// Decodes a `⟨s, t, F⟩` query from labels alone: `true` iff `s` and `t`
    /// are connected in `G \ F` (w.h.p.).
    ///
    /// Fault labels from other components are ignored, as the paper
    /// prescribes; passing more faults than the labeling's `f` budget only
    /// degrades the failure probability of the cycle-space variant.
    pub fn decode(&self, s: &VertexLabel, t: &VertexLabel, faults: &[EdgeLabel]) -> bool {
        if s.component != t.component {
            return false;
        }
        match (&s.inner, &t.inner) {
            (InnerVertexLabel::CycleSpace(ls), InnerVertexLabel::CycleSpace(lt)) => {
                let fl = faults
                    .iter()
                    .filter(|f| f.component == s.component)
                    .filter_map(|f| match &f.inner {
                        InnerEdgeLabel::CycleSpace(l) => Some(l),
                        InnerEdgeLabel::Sketch(_) => None,
                    });
                ftl_cycle_space::decode(ls, lt, fl)
            }
            (InnerVertexLabel::Sketch(ls), InnerVertexLabel::Sketch(lt)) => {
                let fl = faults
                    .iter()
                    .filter(|f| f.component == s.component)
                    .filter_map(|f| match &f.inner {
                        InnerEdgeLabel::Sketch(l) => Some(l),
                        InnerEdgeLabel::CycleSpace(_) => None,
                    });
                ftl_sketch::decode(ls, lt, fl).connected
            }
            _ => panic!("mixed labels from different scheme kinds"),
        }
    }

    /// Longest vertex label in bits (component id included).
    pub fn vertex_label_bits(&self) -> usize {
        let comp_bits = 32;
        comp_bits
            + self
                .components
                .iter()
                .map(|c| match &c.scheme {
                    InnerScheme::CycleSpace(s) => s.vertex_label_bits(),
                    InnerScheme::Sketch(s) => s.vertex_label_bits(),
                })
                .max()
                .unwrap_or(0)
    }

    /// Longest edge label in bits (component id included).
    pub fn edge_label_bits(&self) -> usize {
        let comp_bits = 32;
        comp_bits
            + self
                .components
                .iter()
                .map(|c| match &c.scheme {
                    InnerScheme::CycleSpace(s) => s.edge_label_bits(),
                    InnerScheme::Sketch(s) => s.edge_label_bits(),
                })
                .max()
                .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;
    use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(g: &Graph, kind: SchemeKind, faults: &[EdgeId], seed: u64) {
        let labeling = ConnectivityLabeling::new(g, kind, faults.len(), Seed::new(seed));
        let fl: Vec<EdgeLabel> = faults.iter().map(|&e| labeling.edge_label(e)).collect();
        let mask = forbidden_mask(g, faults);
        for a in 0..g.num_vertices() {
            for b in 0..g.num_vertices() {
                let (s, t) = (VertexId::new(a), VertexId::new(b));
                let truth = connected_avoiding(g, s, t, &mask);
                let got =
                    labeling.decode(&labeling.vertex_label(s), &labeling.vertex_label(t), &fl);
                assert_eq!(got, truth, "{kind:?} pair ({a},{b})");
            }
        }
    }

    #[test]
    fn both_schemes_on_connected_graphs() {
        let g = generators::grid(3, 3);
        for kind in [SchemeKind::CycleSpace, SchemeKind::Sketch] {
            check(&g, kind, &[EdgeId::new(0), EdgeId::new(5)], 3);
        }
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two components: a triangle and a path.
        let mut b = ftl_graph::GraphBuilder::new(6);
        b.add_unit_edge(0, 1);
        b.add_unit_edge(1, 2);
        b.add_unit_edge(2, 0);
        b.add_unit_edge(3, 4);
        b.add_unit_edge(4, 5);
        let g = b.build();
        for kind in [SchemeKind::CycleSpace, SchemeKind::Sketch] {
            check(&g, kind, &[], 1);
            check(&g, kind, &[EdgeId::new(0)], 2);
            check(&g, kind, &[EdgeId::new(3)], 3);
            check(&g, kind, &[EdgeId::new(0), EdgeId::new(4)], 4);
        }
    }

    #[test]
    fn isolated_vertices() {
        let mut b = ftl_graph::GraphBuilder::new(3);
        b.add_unit_edge(0, 1);
        let g = b.build();
        for kind in [SchemeKind::CycleSpace, SchemeKind::Sketch] {
            check(&g, kind, &[EdgeId::new(0)], 5);
        }
    }

    #[test]
    fn random_graphs_random_faults() {
        let mut rng = StdRng::seed_from_u64(12);
        for kind in [SchemeKind::CycleSpace, SchemeKind::Sketch] {
            for trial in 0..6 {
                let g = generators::erdos_renyi(24, 0.1, &mut rng);
                let f = rng.gen_range(0..6).min(g.num_edges());
                let mut faults = Vec::new();
                while faults.len() < f {
                    let e = EdgeId::new(rng.gen_range(0..g.num_edges()));
                    if !faults.contains(&e) {
                        faults.push(e);
                    }
                }
                check(&g, kind, &faults, 100 + trial);
            }
        }
    }

    #[test]
    fn label_size_shapes() {
        let g = generators::grid(5, 5);
        let cs = ConnectivityLabeling::new(&g, SchemeKind::CycleSpace, 8, Seed::new(1));
        let sk = ConnectivityLabeling::new(&g, SchemeKind::Sketch, 8, Seed::new(1));
        // Cycle-space edge labels grow with f; sketch labels do not.
        let cs_big = ConnectivityLabeling::new(&g, SchemeKind::CycleSpace, 64, Seed::new(1));
        let sk_big = ConnectivityLabeling::new(&g, SchemeKind::Sketch, 64, Seed::new(1));
        assert!(cs_big.edge_label_bits() > cs.edge_label_bits());
        assert_eq!(sk_big.edge_label_bits(), sk.edge_label_bits());
        assert_eq!(cs.kind(), SchemeKind::CycleSpace);
        assert_eq!(sk.kind(), SchemeKind::Sketch);
    }

    #[test]
    #[should_panic]
    fn mixed_scheme_labels_rejected() {
        let g = generators::path(3);
        let a = ConnectivityLabeling::new(&g, SchemeKind::CycleSpace, 1, Seed::new(1));
        let b = ConnectivityLabeling::new(&g, SchemeKind::Sketch, 1, Seed::new(1));
        let s = a.vertex_label(VertexId::new(0));
        let t = b.vertex_label(VertexId::new(2));
        a.decode(&s, &t, &[]);
    }
}
