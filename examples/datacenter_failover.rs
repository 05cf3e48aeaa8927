//! Datacenter failover: fault-tolerant compact routing on a fat-tree-like
//! topology under random link failures (the Theorem 5.8 scheme end to end).
//!
//! Run with: `cargo run --example datacenter_failover -p ftl-routing --release`

use ftl_graph::{generators, EdgeId, VertexId};
use ftl_routing::baselines::{full_information_table_bits, route_full_information};
use ftl_routing::{FtRoutingScheme, RoutingParams};
use ftl_seeded::{DetHashSet, Seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let (pods, tors, hosts, cores) = (3, 2, 2, 2);
    let g = generators::fat_tree_like(pods, tors, hosts, cores);
    let h0 = generators::fat_tree_first_host(pods, tors, cores);
    let num_hosts = pods * tors * hosts;
    println!(
        "fat-tree-like fabric: {} switches+hosts, {} links, {} hosts",
        g.num_vertices(),
        g.num_edges(),
        num_hosts
    );

    let f = 2;
    let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, f), Seed::new(7));
    println!(
        "preprocessing done: {} distance scales, max table {} bits, labels ~{} bits",
        scheme.num_scales(),
        scheme.max_table_bits(&g),
        scheme.route_label(VertexId::new(h0)).bits()
    );
    println!(
        "(full-information baseline would store {} bits per switch)",
        full_information_table_bits(&g)
    );

    let mut rng = StdRng::seed_from_u64(42);
    let flows = 40;
    let mut delivered = 0;
    let mut disconnected = 0;
    let mut sum_stretch = 0.0;
    let mut max_stretch: f64 = 0.0;
    let mut baseline_sum = 0.0;
    for _ in 0..flows {
        // Random host pair + random link failures.
        let s = VertexId::new(h0 + rng.gen_range(0..num_hosts));
        let t = VertexId::new(h0 + rng.gen_range(0..num_hosts));
        let mut faults: DetHashSet<EdgeId> = DetHashSet::default();
        while faults.len() < f {
            faults.insert(EdgeId::new(rng.gen_range(0..g.num_edges())));
        }
        let out = scheme.route(&g, s, t, &faults);
        if !out.delivered {
            disconnected += 1;
            continue;
        }
        delivered += 1;
        let stretch = out.stretch().unwrap_or(1.0);
        sum_stretch += stretch;
        max_stretch = max_stretch.max(stretch);
        let base = route_full_information(&g, s, t, &faults);
        baseline_sum += base.stretch().unwrap_or(1.0);
    }
    println!("flows: {flows}, delivered: {delivered}, cut off: {disconnected}");
    if delivered > 0 {
        println!(
            "compact-scheme stretch: mean {:.2}, max {:.2} (bound {})",
            sum_stretch / delivered as f64,
            max_stretch,
            scheme.stretch_bound(f)
        );
        println!(
            "full-information baseline mean stretch: {:.2}",
            baseline_sum / delivered as f64
        );
    }
}
