//! Baselines for Table 1.
//!
//! * [`route_full_information`] — an executable upper-envelope baseline:
//!   every vertex stores the entire graph and adaptively recomputes shortest
//!   paths around the faults it has learned about. Space is Θ(m log n) bits
//!   per vertex; the stretch is what adaptive full knowledge buys you.
//! * [`Table1Row`] / [`analytic_rows`] — the prior-work rows of Table 1
//!   (\[Raj12\], \[CLPR12\], \[Che11\]) evaluated analytically at the experiment's
//!   parameters (substitution S3 in the README's "Substitutions": those
//!   systems have no public implementations; the table compares formulas,
//!   so we evaluate the formulas).

use crate::network::{Cursor, RoutingOutcome};
use ftl_graph::shortest_path::{dijkstra, distance_avoiding};
use ftl_graph::traversal::forbidden_mask;
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_seeded::DetHashSet;

/// Full-information adaptive routing: at every vertex, recompute the
/// shortest path to `t` avoiding all faults *learned so far* (faults are
/// learned by standing at an endpoint); follow it; repeat on discovery.
pub fn route_full_information(
    graph: &Graph,
    s: VertexId,
    t: VertexId,
    faults: &DetHashSet<EdgeId>,
) -> RoutingOutcome {
    let fault_vec: Vec<EdgeId> = faults.iter().copied().collect();
    let mask = forbidden_mask(graph, &fault_vec);
    let optimal = distance_avoiding(graph, s, t, &mask);
    let mut out = RoutingOutcome {
        delivered: false,
        weight: 0,
        hops: 0,
        optimal,
        phases: 0,
        iterations: 0,
        faults_discovered: 0,
        max_header_bits: 64, // (s, t) ids only
    };
    if s == t {
        out.delivered = true;
        return out;
    }
    let mut cursor = Cursor::new(graph, faults, s);
    let mut known = vec![false; graph.num_edges()];
    // Learn faults incident to the current position for free (link-layer
    // visibility), as is standard for adaptive baselines.
    let learn_local = |at: VertexId, known: &mut Vec<bool>, discovered: &mut usize| {
        for nb in graph.neighbors(at) {
            if faults.contains(&nb.edge) && !known[nb.edge.index()] {
                known[nb.edge.index()] = true;
                *discovered += 1;
            }
        }
    };
    learn_local(s, &mut known, &mut out.faults_discovered);
    // Each discovery triggers at most one recomputation; |F| + 1 attempts.
    for _ in 0..=faults.len() {
        out.iterations += 1;
        let dij = dijkstra(graph, cursor.at, &known);
        let Some(path) = dij.path_to(t) else {
            return out; // disconnected from t given current knowledge
        };
        let mut interrupted = false;
        for e in path {
            if cursor.probe(e) {
                known[e.index()] = true;
                out.faults_discovered += 1;
                interrupted = true;
                break;
            }
            cursor.cross(e);
            learn_local(cursor.at, &mut known, &mut out.faults_discovered);
            if cursor.at == t {
                out.weight = cursor.weight;
                out.hops = cursor.hops;
                out.delivered = true;
                return out;
            }
        }
        out.weight = cursor.weight;
        out.hops = cursor.hops;
        if !interrupted {
            break;
        }
    }
    out
}

/// Bits per vertex for the full-information baseline: the entire edge list.
pub fn full_information_table_bits(graph: &Graph) -> usize {
    graph.num_edges() * (2 * 32 + 64)
}

/// An analytic Table-1 row: scheme name, stretch, per-vertex or total table
/// bits (whichever the original paper bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Scheme name as in Table 1.
    pub name: &'static str,
    /// Supported number of faults (`usize::MAX` = any `f`).
    pub max_faults: usize,
    /// Evaluated stretch bound for the given `(k, f)`.
    pub stretch: f64,
    /// Evaluated table size in bits.
    pub table_bits: f64,
    /// Whether `table_bits` is per-vertex (`true`) or total (`false`).
    pub per_vertex: bool,
}

/// Evaluates the prior-work rows of Table 1 at concrete parameters.
///
/// `n` = vertices, `k` = stretch parameter, `f` = faults, `max_deg` =
/// maximum degree, `w` = maximum edge weight.
pub fn analytic_rows(n: usize, k: u32, f: usize, max_deg: usize, w: u64) -> Vec<Table1Row> {
    let nf = n as f64;
    let kf = k as f64;
    let ff = f as f64;
    let lg = nf.log2().max(1.0);
    let lgnw = (nf * w as f64).log2().max(1.0);
    let n1k = nf.powf(1.0 / kf);
    vec![
        Table1Row {
            name: "Rajan [Raj12]",
            max_faults: 1,
            stretch: kf * kf,
            table_bits: (kf * max_deg as f64 + n1k) * lg,
            per_vertex: true,
        },
        Table1Row {
            name: "Chechik et al. [CLPR12]",
            max_faults: 2,
            stretch: kf,
            table_bits: nf.powf(1.0 + 1.0 / kf) * lgnw * lg,
            per_vertex: false,
        },
        Table1Row {
            name: "Chechik [Che11] (total)",
            max_faults: usize::MAX,
            stretch: ff * ff * (ff + lg * lg) * kf,
            table_bits: nf.powf(1.0 + 1.0 / kf) * lgnw * lg,
            per_vertex: false,
        },
        Table1Row {
            name: "Chechik [Che11] (per vertex)",
            max_faults: usize::MAX,
            stretch: ff * ff * (ff + lg * lg) * kf,
            table_bits: max_deg as f64 * n1k * lgnw * lg,
            per_vertex: true,
        },
        Table1Row {
            name: "This paper (per vertex)",
            max_faults: usize::MAX,
            stretch: ff * ff * kf,
            table_bits: ff.powi(3) * n1k * lgnw * lg,
            per_vertex: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn full_info_delivers_when_connected() {
        let g = generators::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let s = VertexId::new(rng.gen_range(0..16));
            let t = VertexId::new(rng.gen_range(0..16));
            let mut faults = DetHashSet::default();
            while faults.len() < 3 {
                faults.insert(EdgeId::new(rng.gen_range(0..g.num_edges())));
            }
            let out = route_full_information(&g, s, t, &faults);
            match out.optimal {
                Some(_) => assert!(out.delivered),
                None => assert!(!out.delivered),
            }
            if let (true, Some(opt)) = (out.delivered, out.optimal) {
                assert!(out.weight >= opt);
                // Full information with |F| faults costs at most
                // (2|F|+1) * opt-ish on these graphs; sanity-bound loosely.
                assert!(out.weight <= (4 * faults.len() as u64 + 4) * opt.max(1));
            }
        }
    }

    #[test]
    fn full_info_zero_faults_is_optimal() {
        let g = generators::grid(3, 5);
        let out = route_full_information(
            &g,
            VertexId::new(0),
            VertexId::new(14),
            &DetHashSet::default(),
        );
        assert!(out.delivered);
        assert_eq!(Some(out.weight), out.optimal);
        assert_eq!(out.stretch(), Some(1.0));
    }

    #[test]
    fn gadget_forces_backtracking() {
        let (g, s, t, last) = generators::lower_bound_gadget(2, 6);
        // Fail all but the last path's final edge.
        let faults: DetHashSet<EdgeId> = last[..2].iter().copied().collect();
        let out = route_full_information(&g, s, t, &faults);
        assert!(out.delivered);
        // It must have paid for at least one wrong path + return.
        assert!(out.weight > out.optimal.unwrap());
    }

    #[test]
    fn analytic_rows_shape() {
        let rows = analytic_rows(1000, 3, 4, 50, 8);
        assert_eq!(rows.len(), 5);
        let ours = rows.last().unwrap();
        let che11 = &rows[3];
        // Our stretch beats Che11's for the same f, k.
        assert!(ours.stretch < che11.stretch);
        // Our per-vertex table is independent of max degree; Che11's grows.
        let rows_hi_deg = analytic_rows(1000, 3, 4, 500, 8);
        assert_eq!(rows_hi_deg.last().unwrap().table_bits, ours.table_bits);
        assert!(rows_hi_deg[3].table_bits > che11.table_bits);
    }

    #[test]
    fn table_bits_positive() {
        let g = generators::grid(3, 3);
        assert!(full_information_table_bits(&g) > 0);
    }
}
