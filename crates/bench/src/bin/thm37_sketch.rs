//! E7 / Theorem 3.7: the sketch connectivity labels — label bits O(log^3 n)
//! independent of f, labeling time O~(m), decode time ~O(f), empirical
//! correctness.
//!
//! Exits non-zero, naming the `(n, f)` rows, when any decode disagrees
//! with BFS.

use ftl_graph::generators;
use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
use ftl_seeded::Seed;
use ftl_sketch::{decode, SketchParams, SketchScheme};
use std::time::Instant;

fn main() {
    let mut rng = ftl_bench::rng(0xE7);
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for n in [64usize, 256, 1024] {
        let g = generators::connected_random(n, 8.0 / n as f64, 1, &mut rng);
        let l0 = Instant::now();
        let scheme =
            SketchScheme::label(&g, &SketchParams::for_graph(&g), Seed::new(n as u64)).unwrap();
        let label_time = l0.elapsed();
        for f in [4usize, 16, 64] {
            let trials = 100;
            let mut errors = 0usize;
            let mut decode_time = 0u128;
            for _ in 0..trials {
                let faults = ftl_bench::sample_faults(&g, f, &mut rng);
                let s = ftl_bench::sample_vertex(&g, &mut rng);
                let t = ftl_bench::sample_vertex(&g, &mut rng);
                let fl: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
                let d0 = Instant::now();
                let out = decode(&scheme.vertex_label(s), &scheme.vertex_label(t), &fl);
                decode_time += d0.elapsed().as_nanos();
                let mask = forbidden_mask(&g, &faults);
                if out.connected != connected_avoiding(&g, s, t, &mask) {
                    errors += 1;
                }
            }
            if errors > 0 {
                failed.push(format!(
                    "(n = {n}, f = {f}): {errors}/{trials} decodes disagree with BFS"
                ));
            }
            rows.push(vec![
                n.to_string(),
                f.to_string(),
                ftl_bench::fmt_bits(scheme.edge_label_bits()),
                scheme.vertex_label_bits().to_string(),
                format!("{:.2} ms", label_time.as_secs_f64() * 1000.0),
                format!("{:.1} us", decode_time as f64 / trials as f64 / 1000.0),
                format!("{errors}/{trials}"),
            ]);
        }
    }
    ftl_bench::print_table(
        "E7 / Theorem 3.7: sketch labels (paper: O(log^3 n) bits, independent of f)",
        &[
            "n",
            "f",
            "edge label (tree, max)",
            "vertex label bits",
            "labeling time (per n)",
            "decode time",
            "errors",
        ],
        &rows,
    );
    println!("\nNote: edge label bits are flat across f for fixed n, and grow polylog in n.");
    ftl_bench::exit_on_failed_checks(&failed);
}
