//! Shared plumbing for the experiment harness: workload construction, fault
//! sampling, markdown table emission, and the exit status of a failed
//! check.
//!
//! Each experiment (E1–E11, listed in the README's "Paper-figure binaries"
//! table) is a binary in `src/bin/`; run e.g.
//! `cargo run -p ftl-bench --bin table1 --release`. The binaries are also
//! the harness's only timer: each times the paper operation it reports
//! (labeling, decoding, routing, querying, building) with `Instant` and
//! prints the mean in a wall-clock column.
//!
//! The repo-level view of what these binaries measure lives in
//! `README.md`. The serving stack's benchmark is `perfbench/` (declared in
//! `BENCHMARK.json`); the older JSON reports committed at the repo root
//! are frozen history.

#![forbid(unsafe_code)]

use ftl_graph::{generators, EdgeId, Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named workload graph.
pub struct Workload {
    /// Short name used in result tables.
    pub name: String,
    /// The graph.
    pub graph: Graph,
}

/// The standard graph suite used across experiments.
pub fn standard_suite(rng: &mut StdRng) -> Vec<Workload> {
    vec![
        Workload {
            name: "grid-8x8".into(),
            graph: generators::grid(8, 8),
        },
        Workload {
            name: "er-64".into(),
            graph: generators::connected_random(64, 0.05, 1, rng),
        },
        Workload {
            name: "wgrid-6x6".into(),
            graph: generators::random_weighted_grid(6, 6, 8, rng),
        },
        Workload {
            name: "cycle-64".into(),
            graph: generators::cycle(64),
        },
    ]
}

/// Samples `f` distinct random faulty edges.
///
/// Distinctness is tracked through a `DetHashSet`, so sampling is expected
/// `O(f)` rather than the `O(f·n)` of a linear rescan per draw.
pub fn sample_faults(g: &Graph, f: usize, rng: &mut StdRng) -> Vec<EdgeId> {
    let want = f.min(g.num_edges());
    let mut seen = ftl_seeded::DetHashSet::with_capacity_and_hasher(want, Default::default());
    let mut faults = Vec::with_capacity(want);
    while faults.len() < want {
        let e = EdgeId::new(rng.gen_range(0..g.num_edges()));
        if seen.insert(e) {
            faults.push(e);
        }
    }
    faults
}

/// Samples a random vertex.
pub fn sample_vertex(g: &Graph, rng: &mut StdRng) -> VertexId {
    VertexId::new(rng.gen_range(0..g.num_vertices()))
}

/// Deterministic experiment RNG.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Prints a markdown table: header row then rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Ends a paper-figure binary after its table is printed: when any check
/// failed, prints one line per failed row (naming the row and what it
/// broke) to stderr and exits with status 1.
pub fn exit_on_failed_checks(failed: &[String]) {
    if failed.is_empty() {
        return;
    }
    for row in failed {
        eprintln!("check failed at {row}");
    }
    std::process::exit(1);
}

/// Formats a float compactly.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats bits as KiB when large.
pub fn fmt_bits(bits: usize) -> String {
    if bits >= 8 * 1024 {
        format!("{:.1} KiB", bits as f64 / 8.0 / 1024.0)
    } else {
        format!("{bits} b")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_nonempty_and_connected() {
        let mut r = rng(1);
        for w in standard_suite(&mut r) {
            assert!(ftl_graph::traversal::is_connected(&w.graph), "{}", w.name);
        }
    }

    #[test]
    fn fault_sampling_distinct() {
        let mut r = rng(2);
        let g = generators::grid(4, 4);
        let f = sample_faults(&g, 5, &mut r);
        let set: ftl_seeded::DetHashSet<_> = f.iter().collect();
        assert_eq!(set.len(), f.len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert!(fmt_bits(100).ends_with(" b"));
        assert!(fmt_bits(100_000).ends_with(" KiB"));
    }
}
