//! E11 / Definition 4.1 + Proposition 4.2: tree-cover properties — ball
//! coverage, radius bound (2k-1)rho, measured overlap vs k n^{1/k}, build
//! time.
//!
//! Exits non-zero, naming the `(graph, k, rho)` rows, when the max radius
//! exceeds (2k-1)rho or a ball is uncovered.

use ftl_tree_cover::TreeCover;
use std::time::Instant;

fn main() {
    let mut rng = ftl_bench::rng(0xE11);
    let suite = ftl_bench::standard_suite(&mut rng);
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for w in &suite {
        let n = w.graph.num_vertices() as f64;
        for k in [2u32, 3, 4] {
            for rho in [2u64, 4] {
                let b0 = Instant::now();
                let tc = TreeCover::build(&w.graph, &[], rho, k);
                let build_time = b0.elapsed();
                let coverage = tc.validate_coverage(&w.graph, &[]).is_ok();
                let radius_bound = (2 * k as u64 - 1) * rho;
                if tc.max_tree_radius() > radius_bound || !coverage {
                    failed.push(format!(
                        "(graph = {}, k = {k}, rho = {rho}): max radius {} vs bound {radius_bound}, balls covered: {coverage}",
                        w.name,
                        tc.max_tree_radius()
                    ));
                }
                rows.push(vec![
                    w.name.clone(),
                    k.to_string(),
                    rho.to_string(),
                    tc.len().to_string(),
                    format!("{} (<= {radius_bound})", tc.max_tree_radius()),
                    format!(
                        "{} (k n^(1/k) = {:.1})",
                        tc.max_overlap(),
                        k as f64 * n.powf(1.0 / k as f64)
                    ),
                    if coverage {
                        "yes".into()
                    } else {
                        "NO".to_string()
                    },
                    format!("{:.1} us", build_time.as_secs_f64() * 1e6),
                ]);
            }
        }
    }
    ftl_bench::print_table(
        "E11 / Prop 4.2: tree covers (radius <= (2k-1)rho; overlap ~ k n^{1/k})",
        &[
            "graph",
            "k",
            "rho",
            "trees",
            "max radius",
            "max overlap",
            "balls covered",
            "build time",
        ],
        &rows,
    );
    ftl_bench::exit_on_failed_checks(&failed);
}
