//! Bit-identity of the flat `φ` bank.
//!
//! The cycle-space labels are sampled into one contiguous row bank (one row
//! per edge id) and handed through unchanged to the schemes and the store.
//! These tests pin that construction to the per-edge one it replaced:
//!
//! * the static scheme is compared, label by label and store column by
//!   store column, with a test-only copy of the per-edge construction (one
//!   `BitVec` per edge, subtree sums by cloning);
//! * the live scheme's fresh labelling and its relabel after removals are
//!   compared with the same reference, dead edges masked out;
//! * the live scheme after random and targeted removals, and the stores a
//!   live store publishes through delta freezes, are compared with
//!   fingerprints recorded from the per-edge implementation.
//!
//! Families: grid, path, Barabási–Albert, Erdős–Rényi and a multigraph with
//! self-loops, at `φ` widths on both sides of every word boundary.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::indexing_slicing
)]

use ftl_cycle_space::{CycleSpaceEdgeLabel, CycleSpaceScheme, LiveCycleSpace};
use ftl_engine::{
    full_store_of, store_from_cycle_space, EngineConfig, LabelStore, LabelStoreBuilder, LiveStore,
};
use ftl_gf2::BitVec;
use ftl_graph::{generators, traversal, EdgeId, Graph, GraphBuilder, SpanningTree, VertexId};
use ftl_labels::AncestryLabel;
use ftl_seeded::{splitmix64, Seed};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WIDTHS: [usize; 8] = [1, 16, 44, 63, 64, 65, 128, 168];

fn families() -> Vec<(&'static str, Graph)> {
    let mut loops = GraphBuilder::new(30);
    for i in 0..30 {
        loops.add_unit_edge(i, (i + 1) % 30);
        loops.add_unit_edge(i, (i * 7 + 3) % 30);
    }
    loops.add_unit_edge(0, 0);
    loops.add_unit_edge(4, 5);
    loops.add_unit_edge(17, 17);
    vec![
        ("grid", generators::grid(7, 9)),
        ("path", generators::path(40)),
        (
            "ba",
            generators::barabasi_albert(150, 3, &mut StdRng::seed_from_u64(5)),
        ),
        (
            "er",
            generators::connected_random(150, 6.0 / 150.0, 1, &mut StdRng::seed_from_u64(6)),
        ),
        ("loops", loops.build()),
    ]
}

// ------------------------------------------------- per-edge reference

/// The per-edge construction of Lemma 1.7's labels: one `BitVec` per edge
/// drawn in edge-id order, then tree edges set bottom-up from per-vertex
/// subtree sums.
fn reference_phi(
    graph: &Graph,
    tree: &SpanningTree,
    dead: &[bool],
    b: usize,
    seed: Seed,
) -> Vec<BitVec> {
    let is_dead = |id: EdgeId| dead.get(id.index()).copied().unwrap_or(false);
    let mut stream = seed.stream();
    let mut phi: Vec<BitVec> = Vec::with_capacity(graph.num_edges());
    for (id, _) in graph.edge_ids() {
        let mut v = BitVec::zeros(b);
        if !tree.is_tree_edge(id) && !is_dead(id) {
            v.randomize(&mut stream);
        }
        phi.push(v);
    }
    let mut acc: Vec<BitVec> = vec![BitVec::zeros(b); graph.num_vertices()];
    for (id, e) in graph.edge_ids() {
        if tree.is_tree_edge(id) || is_dead(id) || e.u() == e.v() {
            continue;
        }
        acc[e.u().index()].xor_assign(&phi[id.index()]);
        acc[e.v().index()].xor_assign(&phi[id.index()]);
    }
    for &v in tree.preorder().iter().rev() {
        if let Some((p, e)) = tree.parent(v) {
            let child_acc = acc[v.index()].clone();
            phi[e.index()] = child_acc.clone();
            acc[p.index()].xor_assign(&child_acc);
        }
    }
    phi
}

/// The per-edge labels of the static scheme, `(vertex labels, edge labels)`.
fn reference_labels(
    graph: &Graph,
    b: usize,
    seed: Seed,
) -> (Vec<AncestryLabel>, Vec<CycleSpaceEdgeLabel>) {
    let tree = SpanningTree::bfs_tree(graph, VertexId::new(0)).unwrap();
    let phi = reference_phi(graph, &tree, &[], b, seed.derive(0xC1C));
    let anc: Vec<AncestryLabel> = graph
        .vertices()
        .map(|v| AncestryLabel::of(&tree, v))
        .collect();
    let edges = graph
        .edge_ids()
        .map(|(id, e)| CycleSpaceEdgeLabel {
            phi: phi[id.index()].clone(),
            anc_u: anc[e.u().index()],
            anc_v: anc[e.v().index()],
            is_tree: tree.is_tree_edge(id),
        })
        .collect();
    (anc, edges)
}

#[test]
fn static_bank_equals_the_per_edge_construction() {
    for (name, g) in families() {
        for b in WIDTHS {
            let seed = Seed::new(0xB0 + b as u64);
            let scheme = CycleSpaceScheme::label_with_bits(&g, b, seed).unwrap();
            let (anc, edges) = reference_labels(&g, b, seed);
            for v in g.vertices() {
                assert_eq!(
                    scheme.vertex_label(v).anc,
                    anc[v.index()],
                    "{name} b={b} {v:?}"
                );
            }
            for (id, _) in g.edge_ids() {
                assert_eq!(
                    scheme.edge_label(id),
                    edges[id.index()],
                    "{name} b={b} {id:?}"
                );
            }
            assert_eq!(
                scheme.edge_label_bits(),
                edges
                    .iter()
                    .map(|l| l.bits(scheme.max_time()))
                    .max()
                    .unwrap(),
                "{name} b={b}"
            );
            // The store imported from the bank equals one built from the
            // per-edge labels: columns and bytes.
            for shards in [1, 4, 16] {
                let from_bank = store_from_cycle_space(&scheme, shards).unwrap();
                let mut by_label =
                    LabelStoreBuilder::new(g.num_vertices(), g.num_edges(), b, shards);
                for v in g.vertices() {
                    by_label.put_vertex(v, &scheme.vertex_label(v)).unwrap();
                }
                for (id, _) in g.edge_ids() {
                    by_label.put_edge(id, &edges[id.index()]).unwrap();
                }
                let by_label = by_label.freeze();
                assert_eq!(from_bank, by_label, "{name} b={b} shards={shards}");
                assert_eq!(from_bank.bytes_total(), by_label.bytes_total());
            }
        }
    }
}

/// The live scheme's current labelling equals the reference construction
/// over its alive graph, with the relabel's seed and spread numbering.
fn assert_live_is_reference_relabel(name: &str, live: &LiveCycleSpace, seed: Seed) {
    let g = live.graph();
    let dead = live.forbidden_base();
    let root = live.root();
    let bfs = traversal::bfs(g, root, &dead);
    let tree = SpanningTree::from_bfs(g, root, &bfs);
    let relabel_seed = seed.derive(0x11FE).derive(live.relabels());
    let phi = reference_phi(g, &tree, &dead, live.bits(), relabel_seed);
    let stride = live.vertex_label(root).anc.pre;
    assert_eq!(tree.pre(root), 1);
    for v in live.alive_vertices() {
        let anc = live.vertex_label(v).anc;
        assert_eq!(
            (anc.pre, anc.post),
            (tree.pre(v) * stride, tree.post(v) * stride),
            "{name}: {v:?}"
        );
    }
    for e in live.alive_edges() {
        let label = live.edge_label(e);
        assert_eq!(label.phi, phi[e.index()], "{name}: φ of {e:?}");
        assert_eq!(label.is_tree, tree.is_tree_edge(e), "{name}: {e:?}");
    }
}

// ------------------------------------------------------- fingerprints

fn mix(h: &mut u64, x: u64) {
    *h = splitmix64(*h ^ x);
}

fn mix_anc(h: &mut u64, anc: AncestryLabel) {
    mix(h, (u64::from(anc.pre) << 32) | u64::from(anc.post));
}

/// Every alive label of `live`: ids, ancestry, tree flags and `φ` words.
fn live_fingerprint(live: &LiveCycleSpace) -> u64 {
    let mut h = 0;
    mix(&mut h, live.root().index() as u64);
    for v in live.alive_vertices() {
        mix(&mut h, v.index() as u64);
        mix_anc(&mut h, live.vertex_label(v).anc);
    }
    for e in live.alive_edges() {
        let label = live.edge_label(e);
        mix(&mut h, e.index() as u64);
        mix(&mut h, u64::from(label.is_tree));
        mix_anc(&mut h, label.anc_u);
        mix_anc(&mut h, label.anc_v);
        for &w in label.phi.words() {
            mix(&mut h, w);
        }
    }
    h
}

/// Every column of `store` over `n` vertex and `m` edge ids, its record
/// count and its bytes.
fn store_fingerprint(store: &LabelStore, n: usize, m: usize) -> u64 {
    let mut h = 0;
    for v in 0..n {
        match store.vertex_anc(VertexId::new(v)) {
            Some(anc) => mix_anc(&mut h, anc),
            None => mix(&mut h, u64::MAX),
        }
    }
    for e in 0..m {
        match store.fault_column(EdgeId::new(e)) {
            Some(col) => {
                let (pre, post) = col.tree_interval.unwrap_or((u32::MAX, u32::MAX));
                mix(&mut h, (u64::from(pre) << 32) | u64::from(post));
                for &w in col.phi {
                    mix(&mut h, w);
                }
            }
            None => mix(&mut h, u64::MAX - 1),
        }
    }
    mix(&mut h, store.len() as u64);
    mix(&mut h, store.bytes_total() as u64);
    h
}

/// One removal attempt drawn from `state`: three edges to one vertex.
fn random_removal(live: &mut LiveCycleSpace, state: &mut u64) {
    *state = splitmix64(*state);
    if state.is_multiple_of(4) {
        let alive: Vec<VertexId> = live.alive_vertices().collect();
        let v = alive[(*state >> 8) as usize % alive.len()];
        let _ = live.remove_vertex(v);
    } else {
        let alive: Vec<EdgeId> = live.alive_edges().collect();
        let e = alive[(*state >> 8) as usize % alive.len()];
        let _ = live.remove_edge(e);
    }
}

/// Targeted removals: every alive edge at the highest-degree alive vertex,
/// tree edges first, then that vertex itself.
fn targeted_removals(live: &mut LiveCycleSpace) {
    let g = live.graph().clone();
    let hub = live
        .alive_vertices()
        .max_by_key(|&v| {
            g.neighbors(v)
                .iter()
                .filter(|nb| live.is_alive_edge(nb.edge))
                .count()
        })
        .unwrap();
    let mut incident: Vec<EdgeId> = g
        .neighbors(hub)
        .iter()
        .map(|nb| nb.edge)
        .filter(|&e| live.is_alive_edge(e))
        .collect();
    incident.sort_by_key(|&e| !live.edge_label(e).is_tree);
    for e in incident {
        if live.is_alive_edge(e) {
            let _ = live.remove_edge(e);
        }
    }
    let _ = live.remove_vertex(hub);
}

/// Fingerprints of (fresh, after random removals, after targeted removals,
/// after a forced relabel) for one family, folded over every width: the
/// live labels and the full store of each.
fn live_stages(name: &str, g: &Graph) -> [u64; 4] {
    let mut out = [0u64; 4];
    let config = EngineConfig::default();
    let mut removed = false;
    for b in WIDTHS {
        let seed = Seed::new(0x11 + b as u64);
        let mut live = LiveCycleSpace::with_bits(g, b, seed).unwrap();
        let mut state = 0x5EED ^ b as u64;
        for (stage, slot) in out.iter_mut().enumerate() {
            match stage {
                0 => assert_live_is_reference_relabel(name, &live, seed),
                1 => {
                    (0..25).for_each(|_| random_removal(&mut live, &mut state));
                    removed |= live.num_alive_edges() < g.num_edges();
                }
                2 => targeted_removals(&mut live),
                _ => {
                    live.relabel();
                    assert_live_is_reference_relabel(name, &live, seed);
                }
            }
            assert!(
                live.check_tree() && live.check_circulation(),
                "{name} b={b}"
            );
            mix(slot, live_fingerprint(&live));
            let store = full_store_of(&live, &config).unwrap();
            mix(
                slot,
                store_fingerprint(&store, g.num_vertices(), g.num_edges()),
            );
        }
    }
    assert!(removed, "{name}: no random removal succeeded");
    out
}

/// The stores a live store publishes while losing edges and vertices one
/// swap at a time (delta freezes, with full rebuilds where the live scheme
/// relabels), then after a forced rebuild, folded into one fingerprint.
fn published_stores(g: &Graph, f: usize) -> u64 {
    let mut ls =
        LiveStore::new(g, f, Seed::new(0xE50 + f as u64), EngineConfig::default()).unwrap();
    let (n, m) = (g.num_vertices(), g.num_edges());
    let mut h = store_fingerprint(ls.epochs().current().store(), n, m);
    let mut state = 0xDE17A ^ f as u64;
    for _ in 0..30 {
        state = splitmix64(state);
        let live = ls.live();
        let _ = if state.is_multiple_of(5) {
            let alive: Vec<VertexId> = live.alive_vertices().collect();
            ls.remove_vertex(alive[(state >> 8) as usize % alive.len()])
        } else {
            let alive: Vec<EdgeId> = live.alive_edges().collect();
            ls.remove_edge(alive[(state >> 8) as usize % alive.len()])
        };
        mix(&mut h, ls.epochs().current().number());
        mix(
            &mut h,
            store_fingerprint(ls.epochs().current().store(), n, m),
        );
    }
    ls.rebuild().unwrap();
    mix(
        &mut h,
        store_fingerprint(ls.epochs().current().store(), n, m),
    );
    h
}

/// Recorded from the per-edge implementation: per family, the
/// [`live_stages`] fingerprints and the [`published_stores`] fingerprints
/// at f = 4 and f = 60.
const RECORDED: [(&str, [u64; 4], [u64; 2]); 5] = [
    (
        "grid",
        [
            0x4da4837e1e5b762b,
            0x72985213c6ba55bf,
            0xebb26616defea7dc,
            0x8c8d1e3886b4c70a,
        ],
        [0xe7accb268fed307c, 0xe9559f83f20fd4bc],
    ),
    (
        "path",
        [
            0x52a06f34ceb0f095,
            0x0e906adf69c68874,
            0x0e906adf69c68874,
            0x80a7431fefc6f697,
        ],
        [0xd502713d25de4cda, 0xe181854f0a954410],
    ),
    (
        "ba",
        [
            0xeed445d02beb197f,
            0x73bce1b5c464d9e2,
            0x78a93aaa8357b7f8,
            0xd128b9dae0457f8f,
        ],
        [0x7c97de50f945d4c2, 0xd67b79b55d9bc418],
    ),
    (
        "er",
        [
            0xc1abec36a5b6c94e,
            0x0266cf0d07a73e20,
            0xec97bf0b72654aaf,
            0x174377d2e83b6208,
        ],
        [0x43b8e038bbf2b5c8, 0xacc9d6c53d086294],
    ),
    (
        "loops",
        [
            0xd30781efcac9cbb1,
            0x86377a109454aaf5,
            0x289f926910874ede,
            0x4834569f6034b7a9,
        ],
        [0x412c77042db831a6, 0x2733c5591992fdbb],
    ),
];

#[test]
fn live_bank_matches_the_per_edge_implementation() {
    let mut got = Vec::new();
    for (name, g) in families() {
        let stages = live_stages(name, &g);
        let published = [published_stores(&g, 4), published_stores(&g, 60)];
        got.push((name, stages, published));
    }
    let hex = |xs: &[u64]| {
        let xs: Vec<String> = xs.iter().map(|x| format!("{x:#018x}")).collect();
        xs.join(", ")
    };
    for (name, stages, published) in &got {
        println!("    ({name:?}, [{}], [{}]),", hex(stages), hex(published));
    }
    for ((name, stages, published), (want_name, want_stages, want_published)) in
        got.iter().zip(RECORDED)
    {
        assert_eq!(*name, want_name);
        assert_eq!(*stages, want_stages, "{name}: live stages");
        assert_eq!(*published, want_published, "{name}: published stores");
    }
}
