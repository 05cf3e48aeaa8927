//! End-to-end integration tests for the routing stack: preprocessing →
//! labels/tables → message simulation with unknown faults, plus the
//! forbidden-set variant and baseline comparisons.

use ftl_graph::{generators, EdgeId, Graph, VertexId};
use ftl_routing::baselines::route_full_information;
use ftl_routing::{FtRoutingScheme, RoutingParams};
use ftl_seeded::{DetHashSet, Seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_faults(g: &Graph, f: usize, rng: &mut StdRng) -> DetHashSet<EdgeId> {
    let mut faults = DetHashSet::default();
    while faults.len() < f.min(g.num_edges()) {
        faults.insert(EdgeId::new(rng.gen_range(0..g.num_edges())));
    }
    faults
}

#[test]
fn ft_routing_vs_forbidden_set_vs_baseline() {
    let g = generators::grid(4, 4);
    let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 2), Seed::new(31));
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..25 {
        let s = VertexId::new(rng.gen_range(0..16));
        let t = VertexId::new(rng.gen_range(0..16));
        let faults = random_faults(&g, 2, &mut rng);
        let ft = scheme.route(&g, s, t, &faults);
        let fs = scheme.route_forbidden_set(&g, s, t, &faults);
        let base = route_full_information(&g, s, t, &faults);
        assert_eq!(ft.delivered, ft.optimal.is_some());
        assert_eq!(fs.delivered, fs.optimal.is_some());
        assert_eq!(base.delivered, base.optimal.is_some());
        if let Some(opt) = ft.optimal {
            // Forbidden-set (faults known) has the tighter bound.
            assert!(fs.weight <= scheme.forbidden_set_stretch_bound(faults.len()) * opt.max(1));
            assert!(ft.weight <= scheme.stretch_bound(faults.len()) * opt.max(1));
            // Knowing the faults can only help (on the same scheme family).
            // Not a theorem per-instance, so only check the bound ordering:
            assert!(
                scheme.forbidden_set_stretch_bound(faults.len())
                    <= scheme.stretch_bound(faults.len())
            );
        }
    }
}

#[test]
fn routing_on_datacenter_topology() {
    let g = generators::fat_tree_like(3, 2, 2, 2);
    let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 1), Seed::new(33));
    let h0 = generators::fat_tree_first_host(3, 2, 2);
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..15 {
        let s = VertexId::new(h0 + rng.gen_range(0..12));
        let t = VertexId::new(h0 + rng.gen_range(0..12));
        let faults = random_faults(&g, 1, &mut rng);
        let out = scheme.route(&g, s, t, &faults);
        match out.optimal {
            Some(opt) => {
                assert!(out.delivered);
                assert!(out.weight <= scheme.stretch_bound(faults.len()) * opt.max(1));
            }
            None => assert!(!out.delivered),
        }
    }
}

#[test]
fn phases_track_distance_scales() {
    // Nearby destinations should be reached in early phases.
    let g = generators::path(32);
    let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, 1), Seed::new(35));
    let near = scheme.route(
        &g,
        VertexId::new(0),
        VertexId::new(1),
        &DetHashSet::default(),
    );
    let far = scheme.route(
        &g,
        VertexId::new(0),
        VertexId::new(31),
        &DetHashSet::default(),
    );
    assert!(near.delivered && far.delivered);
    assert!(near.phases <= far.phases);
}

#[test]
fn headers_and_tables_within_theory_shape() {
    let g = generators::grid(4, 4);
    let f2 = FtRoutingScheme::new(&g, RoutingParams::new(2, 2), Seed::new(36));
    let f0 = FtRoutingScheme::new(&g, RoutingParams::new(2, 0), Seed::new(36));
    // Table sizes grow with f (more copies, bigger gamma blocks).
    assert!(f2.max_table_bits(&g) > f0.max_table_bits(&g));
    // Routing labels exist for every vertex and are polylog-sized relative
    // to tables.
    for v in g.vertices() {
        let l = f2.route_label(v);
        assert!(l.bits() > 0);
        assert!(l.bits() < f2.max_table_bits(&g));
    }
}

#[test]
fn stress_random_graphs_and_fault_sets() {
    let mut rng = StdRng::seed_from_u64(44);
    for trial in 0..3 {
        let g = generators::connected_random(18, 0.12, 1, &mut rng);
        let f = 1 + (trial as usize % 2);
        let scheme = FtRoutingScheme::new(&g, RoutingParams::new(2, f), Seed::new(50 + trial));
        for _ in 0..10 {
            let s = VertexId::new(rng.gen_range(0..g.num_vertices()));
            let t = VertexId::new(rng.gen_range(0..g.num_vertices()));
            let faults = random_faults(&g, f, &mut rng);
            let out = scheme.route(&g, s, t, &faults);
            match out.optimal {
                Some(opt) => {
                    assert!(out.delivered, "s={s:?} t={t:?} F={faults:?}");
                    assert!(out.weight <= scheme.stretch_bound(faults.len()) * opt.max(1));
                }
                None => assert!(!out.delivered),
            }
        }
    }
}

#[test]
fn lower_bound_gadget_observes_omega_f() {
    use ftl_routing::lower_bound::{closed_form_expected_stretch, expected_gadget_stretch};
    let mut rng = StdRng::seed_from_u64(60);
    for f in [1usize, 3, 7] {
        let len = 8;
        let (g, s, t, last) = generators::lower_bound_gadget(f, len);
        let emp = expected_gadget_stretch(&g, s, t, &last, len as u64, 4000, &mut rng);
        let cf = closed_form_expected_stretch(f + 1, len as u64);
        assert!((emp - cf).abs() / cf < 0.1, "f={f}: {emp} vs {cf}");
        assert!(emp >= f as f64 / 2.0, "Omega(f): f={f} stretch={emp}");
    }
}
