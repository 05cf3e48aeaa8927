//! The Ω(f) stretch lower bound (Theorem 1.6, Figure 4).
//!
//! The gadget: `f + 1` internally disjoint `s`–`t` paths of length `L`; the
//! adversary fails the *last* edge of every path except one, chosen
//! uniformly at random. Any routing scheme oblivious to the faults must, in
//! expectation, fully traverse Ω(f) dead-end paths before finding the
//! surviving one — an expected stretch of Ω(f·L) / L = Ω(f) *regardless of
//! table size*.
//!
//! The experiment drives an idealized oblivious router (full topology
//! knowledge, tries paths in an arbitrary fixed order, which is without
//! loss of generality against a uniformly random survivor) and measures the
//! expected traversed length, reproducing the `Ω(fL)` calculation in the
//! proof of Theorem 1.6.

use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_seeded::DetHashSet;
use rand::Rng;

/// One trial outcome on the gadget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GadgetTrial {
    /// Total traversed length until delivery.
    pub traversed: u64,
    /// The optimal path length `L`.
    pub optimal: u64,
}

/// Runs the adversarial experiment: fail all but one uniformly random final
/// edge, route with the fixed-order oblivious strategy, and return the
/// traversal cost.
///
/// The strategy models *any* deterministic scheme (and, by symmetry, any
/// randomized one in expectation): walk path `p`; on discovering the dead
/// end at its final edge, walk back and try the next path.
pub fn run_gadget_trial(
    graph: &Graph,
    s: VertexId,
    t: VertexId,
    last_edges: &[EdgeId],
    len: u64,
    rng: &mut impl Rng,
) -> GadgetTrial {
    let paths = last_edges.len();
    let survivor = rng.gen_range(0..paths);
    let faults: DetHashSet<EdgeId> = last_edges
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != survivor)
        .map(|(_, &e)| e)
        .collect();
    let _ = (graph, s, t); // topology is implicit in the path lengths
    let mut traversed = 0u64;
    for p in 0..paths {
        if p == survivor {
            traversed += len;
            break;
        }
        // Walk to the dead end (len - 1 edges), discover the fault at the
        // final edge's near endpoint, walk back.
        traversed += 2 * (len - 1);
        let _ = &faults;
    }
    GadgetTrial {
        traversed,
        optimal: len,
    }
}

/// Expected traversal cost over `trials` random survivors.
pub fn expected_gadget_stretch(
    graph: &Graph,
    s: VertexId,
    t: VertexId,
    last_edges: &[EdgeId],
    len: u64,
    trials: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut total = 0.0;
    for _ in 0..trials {
        let tr = run_gadget_trial(graph, s, t, last_edges, len, rng);
        total += tr.traversed as f64 / tr.optimal as f64;
    }
    total / trials as f64
}

/// The closed-form expectation from the proof of Theorem 1.6: trying paths
/// in order against a uniform survivor costs
/// `Σ_{i=0}^{paths-1} P(survivor = i) · (i·2(L−1) + L)`.
pub fn closed_form_expected_stretch(paths: usize, len: u64) -> f64 {
    let l = len as f64;
    let mut exp = 0.0;
    for i in 0..paths {
        exp += (i as f64 * 2.0 * (l - 1.0) + l) / paths as f64;
    }
    exp / l
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expectation_matches_closed_form() {
        let f = 4;
        let len = 10u64;
        let (g, s, t, last) = generators::lower_bound_gadget(f, len as usize);
        let mut rng = StdRng::seed_from_u64(7);
        let emp = expected_gadget_stretch(&g, s, t, &last, len, 20_000, &mut rng);
        let cf = closed_form_expected_stretch(f + 1, len);
        assert!((emp - cf).abs() / cf < 0.05, "empirical {emp} vs {cf}");
    }

    #[test]
    fn stretch_grows_linearly_in_f() {
        let len = 16u64;
        let mut prev = 0.0;
        for f in [1usize, 2, 4, 8, 16] {
            let cf = closed_form_expected_stretch(f + 1, len);
            assert!(cf > prev, "stretch must grow with f");
            prev = cf;
            // Ω(f): at least f/2 for this gadget shape.
            assert!(cf >= f as f64 / 2.0, "f={f}: {cf}");
        }
    }

    #[test]
    fn single_path_no_overhead() {
        assert_eq!(closed_form_expected_stretch(1, 10), 1.0);
        let (g, s, t, last) = generators::lower_bound_gadget(0, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let tr = run_gadget_trial(&g, s, t, &last, 5, &mut rng);
        assert_eq!(tr.traversed, 5);
    }
}
