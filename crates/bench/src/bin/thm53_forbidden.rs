//! E9 / Theorem 5.3: forbidden-set routing (faults known) — delivery,
//! stretch vs the (8k-2)(|F|+1) bound, header bits.

use ftl_graph::generators;
use ftl_routing::{FtRoutingScheme, RoutingParams};
use ftl_seeded::Seed;

fn main() {
    let mut rng = ftl_bench::rng(0xE9);
    let mut rows = Vec::new();
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
                    let out = scheme.route_forbidden_set(g, s, t, &faults);
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
                    scheme.forbidden_set_stretch_bound(f).to_string(),
                    ftl_bench::fmt_bits(max_header),
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
        ],
        &rows,
    );
}
