//! E10 / Theorems 5.5/5.8: FT routing with unknown faults — stretch vs the
//! 32k(|F|+1)^2 bound, per-vertex table bits, header bits, phase counts.

use ftl_graph::generators;
use ftl_routing::{FtRoutingScheme, RoutingParams};
use ftl_seeded::Seed;

fn main() {
    let mut rng = ftl_bench::rng(0xE10);
    let mut rows = Vec::new();
    let graphs = vec![
        ("grid-5x5", generators::grid(5, 5)),
        ("er-24", generators::connected_random(24, 0.1, 1, &mut rng)),
    ];
    for (name, g) in &graphs {
        for k in [2u32, 3] {
            for f in [1usize, 2, 3] {
                let scheme = FtRoutingScheme::new(g, RoutingParams::new(k, f), Seed::new(88));
                let trials = 30;
                let mut delivered = 0usize;
                let mut cut = 0usize;
                let mut worst: f64 = 1.0;
                let mut sum = 0.0;
                let mut max_header = 0usize;
                let mut sum_iters = 0usize;
                for _ in 0..trials {
                    let faults: ftl_seeded::DetHashSet<_> =
                        ftl_bench::sample_faults(g, f, &mut rng)
                            .into_iter()
                            .collect();
                    let s = ftl_bench::sample_vertex(g, &mut rng);
                    let t = ftl_bench::sample_vertex(g, &mut rng);
                    let out = scheme.route(g, s, t, &faults);
                    max_header = max_header.max(out.max_header_bits);
                    sum_iters += out.iterations;
                    match (out.delivered, out.optimal) {
                        (true, Some(_)) => {
                            delivered += 1;
                            if let Some(st) = out.stretch() {
                                worst = worst.max(st);
                                sum += st;
                            }
                        }
                        (false, None) => cut += 1,
                        other => panic!("delivery mismatch {other:?}"),
                    }
                }
                rows.push(vec![
                    name.to_string(),
                    k.to_string(),
                    f.to_string(),
                    format!("{delivered}+{cut}cut/{trials}"),
                    ftl_bench::f2(sum / delivered.max(1) as f64),
                    ftl_bench::f2(worst),
                    scheme.stretch_bound(f).to_string(),
                    ftl_bench::fmt_bits(scheme.max_table_bits(g)),
                    ftl_bench::fmt_bits(max_header),
                    ftl_bench::f2(sum_iters as f64 / trials as f64),
                ]);
            }
        }
    }
    ftl_bench::print_table(
        "E10 / Theorem 5.8: FT routing, unknown faults (paper bound 32k(|F|+1)^2)",
        &[
            "graph",
            "k",
            "f",
            "delivered",
            "mean stretch",
            "worst stretch",
            "bound",
            "max table",
            "max header",
            "avg iterations",
        ],
        &rows,
    );
}
