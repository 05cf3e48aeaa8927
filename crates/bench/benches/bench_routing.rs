//! Criterion: end-to-end FT routing (Theorem 5.8) and the forbidden-set
//! variant (Theorem 5.3) on a grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftl_graph::generators;
use ftl_routing::{FtRoutingScheme, RoutingParams};
use ftl_seeded::{DetHashSet, Seed};

fn bench_routing(c: &mut Criterion) {
    let mut rng = ftl_bench::rng(4);
    let g = generators::grid(5, 5);
    let mut group = c.benchmark_group("routing");
    for f in [1usize, 2] {
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, f), Seed::new(5));
        let faults: DetHashSet<_> = ftl_bench::sample_faults(&g, f, &mut rng)
            .into_iter()
            .collect();
        let s = ftl_bench::sample_vertex(&g, &mut rng);
        let t = ftl_bench::sample_vertex(&g, &mut rng);
        group.bench_function(BenchmarkId::new("ft_unknown_faults", f), |b| {
            b.iter(|| scheme.route(&g, s, t, &faults))
        });
        group.bench_function(BenchmarkId::new("forbidden_set", f), |b| {
            b.iter(|| scheme.route_forbidden_set(&g, s, t, &faults))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_routing
}
criterion_main!(benches);
