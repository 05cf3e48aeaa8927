//! Property-based tests for the routing schemes.

use ftl_graph::{EdgeId, Graph, GraphBuilder, SpanningTree, VertexId};
use ftl_routing::baselines::route_full_information;
use ftl_routing::{FtRoutingScheme, NextHop, RoutingParams, TreeRouting};
use ftl_seeded::{DetHashSet, Seed};
use proptest::prelude::*;

fn graph_strategy(max_n: usize) -> impl Strategy<Value = Graph> {
    (
        2usize..max_n,
        proptest::collection::vec((0usize..32, 0usize..32), 0..40),
    )
        .prop_map(|(n, extra)| {
            let mut b = GraphBuilder::new(n);
            for i in 1..n {
                b.add_unit_edge(i / 2, i);
            }
            for (u, v) in extra {
                if u % n != v % n {
                    b.add_unit_edge(u % n, v % n);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tree routing always delivers along the exact tree path.
    #[test]
    fn tree_routing_always_delivers(g in graph_strategy(32), f in 0usize..4,
                                    a in 0usize..32, b in 0usize..32) {
        let n = g.num_vertices();
        let (s, t) = (VertexId::new(a % n), VertexId::new(b % n));
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, f);
        let target = tr.label(t).clone();
        let mut cur = s;
        let mut traversed = Vec::new();
        for _ in 0..2 * n + 2 {
            match TreeRouting::next_hop(tr.table(cur), &target).unwrap() {
                NextHop::Arrived => break,
                NextHop::Port(p) => {
                    let nb = g.port(cur, p as usize).unwrap();
                    traversed.push(nb.edge);
                    cur = nb.vertex;
                }
            }
        }
        prop_assert_eq!(cur, t);
        prop_assert_eq!(traversed, tree.tree_path(s, t));
    }

    /// Γ blocks always contain the child endpoint and at least f+1 members
    /// at high-degree vertices.
    #[test]
    fn gamma_block_invariants(g in graph_strategy(32), f in 0usize..4) {
        let tree = SpanningTree::bfs_tree(&g, VertexId::new(0)).unwrap();
        let tr = TreeRouting::new(&g, &tree, f);
        for (id, _) in g.edge_ids() {
            if !tree.is_tree_edge(id) {
                continue;
            }
            let e = g.edge(id);
            let child = if tree.parent(e.u()).map(|(p, _)| p) == Some(e.v()) {
                e.u()
            } else {
                e.v()
            };
            let parent = e.other(child);
            let members = tr.gamma_members(id);
            prop_assert!(members.contains(&child));
            if tree.children(parent).len() > f + 1 {
                prop_assert!(members.len() > f);
            } else {
                prop_assert!(members.contains(&parent));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end FT routing (unknown faults): delivery iff connected, and
    /// the Theorem 5.8 stretch bound holds.
    #[test]
    fn ft_routing_delivery_and_stretch(
        g in graph_strategy(16),
        fpicks in proptest::collection::vec(0usize..500, 0..3),
        a in 0usize..16,
        b in 0usize..16,
        seed in any::<u64>(),
    ) {
        let n = g.num_vertices();
        let (s, t) = (VertexId::new(a % n), VertexId::new(b % n));
        let mut faults = DetHashSet::default();
        for p in &fpicks {
            faults.insert(EdgeId::new(p % g.num_edges()));
        }
        let f = faults.len().max(1);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, f), Seed::new(seed));
        let out = scheme.route(&g, s, t, &faults);
        match out.optimal {
            None => prop_assert!(!out.delivered),
            Some(opt) => {
                prop_assert!(out.delivered);
                prop_assert!(out.weight <= scheme.stretch_bound(faults.len()) * opt.max(1));
                // The full-information baseline is never worse than the
                // compact scheme's bound either (sanity of the simulator).
                let base = route_full_information(&g, s, t, &faults);
                prop_assert!(base.delivered);
                prop_assert!(base.weight >= opt);
            }
        }
    }
}
