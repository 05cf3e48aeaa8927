//! Criterion: substrate microbenchmarks — component tree (Claim 3.14) and
//! tree covers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftl_graph::{generators, SpanningTree, VertexId};
use ftl_labels::{AncestryLabel, ComponentTree, FaultTreeEdge};
use ftl_tree_cover::TreeCover;

fn bench_substrates(c: &mut Criterion) {
    let mut rng = ftl_bench::rng(5);
    // Component tree build.
    let g = generators::random_tree(4096, &mut rng);
    let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
    let labels: Vec<AncestryLabel> = (0..4096)
        .map(|i| AncestryLabel::of(&tree, VertexId::new(i)))
        .collect();
    let mut group = c.benchmark_group("substrates");
    for f in [16usize, 256] {
        let faults = ftl_bench::sample_faults(&g, f, &mut rng);
        let fte: Vec<FaultTreeEdge> = faults
            .iter()
            .map(|&e| {
                let ed = g.edge(e);
                FaultTreeEdge::from_endpoints(labels[ed.u().index()], labels[ed.v().index()])
                    .unwrap()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("component_tree", f), &fte, |b, fte| {
            b.iter(|| ComponentTree::new(fte, tree.max_time()))
        });
    }
    // Tree cover construction.
    let grid = generators::grid(8, 8);
    for k in [2u32, 3] {
        group.bench_with_input(BenchmarkId::new("tree_cover_k", k), &grid, |b, g| {
            b.iter(|| TreeCover::build(g, &[], 2, k))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_substrates
}
criterion_main!(benches);
