//! E8 / Theorem 1.4: FT approximate distance labels — measured stretch vs
//! the (8k-2)(|F|+1) guarantee, label-size scaling in k, and query time.
//!
//! Exits non-zero, naming the `(k, f)` rows, when the worst stretch
//! exceeds the bound or a query disagrees with the truth on whether `s`
//! and `t` are still connected.

use ftl_core::distance::{DistanceLabeling, DistanceParams};
use ftl_graph::generators;
use ftl_graph::shortest_path::distance_avoiding;
use ftl_graph::traversal::forbidden_mask;
use ftl_seeded::Seed;
use std::time::Instant;

fn main() {
    let mut rng = ftl_bench::rng(0xE8);
    let g = generators::random_weighted_grid(6, 6, 8, &mut rng);
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for k in [1u32, 2, 3, 4] {
        let dl = DistanceLabeling::new(&g, DistanceParams::new(k), Seed::new(k as u64));
        for f in [0usize, 1, 2, 3] {
            let trials = 150;
            let mut worst: f64 = 1.0;
            let mut sum = 0.0;
            let mut cnt = 0usize;
            let mut mism = 0usize;
            let mut query_time = 0u128;
            for _ in 0..trials {
                let faults = ftl_bench::sample_faults(&g, f, &mut rng);
                let s = ftl_bench::sample_vertex(&g, &mut rng);
                let t = ftl_bench::sample_vertex(&g, &mut rng);
                let q0 = Instant::now();
                let est = dl.query(s, t, &faults);
                query_time += q0.elapsed().as_nanos();
                let truth = distance_avoiding(&g, s, t, &forbidden_mask(&g, &faults));
                match (est, truth) {
                    (Some(e), Some(d)) if d > 0 => {
                        let r = e.distance as f64 / d as f64;
                        worst = worst.max(r);
                        sum += r;
                        cnt += 1;
                    }
                    (Some(_), Some(_)) | (None, None) => {}
                    _ => mism += 1,
                }
            }
            let bound = dl.stretch_bound(f);
            if worst > bound as f64 || mism > 0 {
                failed.push(format!(
                    "(k = {k}, f = {f}): worst stretch {worst:.2} vs bound {bound}, {mism} mismatches"
                ));
            }
            rows.push(vec![
                k.to_string(),
                f.to_string(),
                ftl_bench::f2(sum / cnt.max(1) as f64),
                ftl_bench::f2(worst),
                bound.to_string(),
                ftl_bench::fmt_bits(dl.max_vertex_label_bits(&g)),
                mism.to_string(),
                format!("{:.1} us", query_time as f64 / trials as f64 / 1000.0),
            ]);
        }
    }
    ftl_bench::print_table(
        "E8 / Theorem 1.4: distance labels on wgrid-6x6 (paper bound (8k-2)(|F|+1))",
        &[
            "k",
            "f",
            "mean stretch",
            "worst stretch",
            "paper bound",
            "max vertex label",
            "mismatches",
            "query time",
        ],
        &rows,
    );
    ftl_bench::exit_on_failed_checks(&failed);
}
