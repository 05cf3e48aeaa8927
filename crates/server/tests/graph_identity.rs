//! Byte-identity of the graphs `parse_graph_spec` builds.
//!
//! Every seeded figure in the repository (paper tables, perfbench inputs,
//! test fault sets) starts from a generated graph, so the generators and
//! the adjacency layout must not move an edge, an edge id or a port. These
//! fingerprints were recorded from the per-vertex adjacency lists and the
//! per-pair `gen_bool` coin; each folds the edge list in id order (both
//! endpoints as inserted, and the weight) and every vertex's port list
//! (neighbor and edge id per port, in port order).

#![allow(clippy::unwrap_used, clippy::print_stdout)]

use ftl_graph::Graph;
use ftl_seeded::splitmix64;
use ftl_server::parse_graph_spec;

/// perfbench's graph seed for its `--seed` (`Seeds::from(seed).graph`).
fn perfbench_graph_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x6A09_E667_F3BC_C908)
}

fn fold(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

/// `(edge-list fingerprint, port-list fingerprint)` of `g`.
fn fingerprints(g: &Graph) -> (u64, u64) {
    let mut edges = fold(0, g.num_edges() as u64);
    for e in g.edges() {
        edges = fold(edges, e.u().index() as u64);
        edges = fold(edges, e.v().index() as u64);
        edges = fold(edges, e.weight());
    }
    let mut ports = fold(0, g.num_vertices() as u64);
    for v in g.vertices() {
        ports = fold(ports, g.degree(v) as u64);
        for nb in g.neighbors(v) {
            ports = fold(ports, nb.vertex.index() as u64);
            ports = fold(ports, nb.edge.index() as u64);
        }
    }
    (edges, ports)
}

#[test]
fn generated_graphs_match_recorded_fingerprints() {
    // (spec, seed, edge-list fingerprint, port-list fingerprint)
    let cases: [(&str, u64, u64, u64); 7] = [
        (
            "er:1024:8",
            perfbench_graph_seed(1),
            0x4d83_91e9_77b7_bc14,
            0x0136_6b29_8d7f_1bb6,
        ),
        ("er:1024:8", 1, 0xaba5_049d_6a3b_6ea8, 0x87e4_7403_1a62_4e0f),
        ("er:64:4", 7, 0x4e39_112e_f128_df7c, 0x9884_b2fb_fcf9_08ac),
        ("er:300:1", 3, 0xa976_7a13_716c_4689, 0xf09d_5c6e_d3bf_4f61),
        ("ba:600:3", 5, 0x2bae_0033_14ac_6fe8, 0x8314_88dd_5f52_5c0d),
        ("grid:5x7", 0, 0x8445_bcae_5caf_63cc, 0xeea2_235e_8378_0d8c),
        ("er:1024:4", 1, 0x78a6_04a1_63da_ad8b, 0xd47b_adba_baee_b5eb),
    ];
    let mut mismatches = Vec::new();
    for (spec, seed, edges, ports) in cases {
        let g = parse_graph_spec(spec, seed).unwrap();
        let got = fingerprints(&g);
        println!(
            "{spec} at seed {seed:#x}: m = {}, edges {:#x}, ports {:#x}",
            g.num_edges(),
            got.0,
            got.1
        );
        if got != (edges, ports) {
            mismatches.push((spec, seed));
        }
    }
    assert!(mismatches.is_empty(), "graphs moved: {mismatches:?}");
}
