//! E9 / Theorem 5.3: forbidden-set routing (faults known) — delivery,
//! stretch vs the (8k-2)(|F|+1) bound, header bits, route time per
//! message.
//!
//! Exits non-zero, naming the `(graph, k, f)` rows, when the worst stretch
//! exceeds the bound or a message is neither delivered nor reported cut.

use ftl_graph::generators;
use ftl_routing::{FtRoutingScheme, RoutingParams};
use ftl_seeded::Seed;
use std::time::Instant;

fn main() {
    let mut rng = ftl_bench::rng(0xE9);
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    let graphs = vec![
        ("grid-5x5", generators::grid(5, 5)),
        ("er-24", generators::connected_random(24, 0.1, 1, &mut rng)),
    ];
    for (name, g) in &graphs {
        for k in [2u32, 3] {
            for f in [1usize, 2, 4] {
                let scheme = FtRoutingScheme::new(g, RoutingParams::new(k, f), Seed::new(77));
                let trials = 40;
                let mut delivered = 0usize;
                let mut cut = 0usize;
                let mut lost = 0usize;
                let mut route_time = 0u128;
                let mut worst: f64 = 1.0;
                let mut sum = 0.0;
                let mut max_header = 0usize;
                for _ in 0..trials {
                    let faults: ftl_seeded::DetHashSet<_> =
                        ftl_bench::sample_faults(g, f, &mut rng)
                            .into_iter()
                            .collect();
                    let s = ftl_bench::sample_vertex(g, &mut rng);
                    let t = ftl_bench::sample_vertex(g, &mut rng);
                    let r0 = Instant::now();
                    let out = scheme.route_forbidden_set(g, s, t, &faults);
                    route_time += r0.elapsed().as_nanos();
                    max_header = max_header.max(out.max_header_bits);
                    match (out.delivered, out.optimal) {
                        (true, Some(_)) => {
                            delivered += 1;
                            if let Some(st) = out.stretch() {
                                worst = worst.max(st);
                                sum += st;
                            }
                        }
                        (false, None) => cut += 1,
                        _ => lost += 1,
                    }
                }
                let bound = scheme.forbidden_set_stretch_bound(f);
                if worst > bound as f64 || lost > 0 {
                    failed.push(format!(
                        "(graph = {name}, k = {k}, f = {f}): worst stretch {worst:.2} vs bound {bound}, {lost} messages neither delivered nor cut"
                    ));
                }
                rows.push(vec![
                    name.to_string(),
                    k.to_string(),
                    f.to_string(),
                    format!("{delivered}+{cut}cut/{trials}"),
                    ftl_bench::f2(sum / delivered.max(1) as f64),
                    ftl_bench::f2(worst),
                    bound.to_string(),
                    ftl_bench::fmt_bits(max_header),
                    format!("{:.1} us", route_time as f64 / trials as f64 / 1000.0),
                ]);
            }
        }
    }
    ftl_bench::print_table(
        "E9 / Theorem 5.3: forbidden-set routing (paper bound (8k-2)(|F|+1))",
        &[
            "graph",
            "k",
            "f",
            "delivered",
            "mean stretch",
            "worst stretch",
            "paper bound",
            "max header",
            "route time",
        ],
        &rows,
    );
    ftl_bench::exit_on_failed_checks(&failed);
}
