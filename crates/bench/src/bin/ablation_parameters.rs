//! Ablation (substitution S4 in the README's "Substitutions"): the two
//! "w.h.p." knobs the paper leaves as unspecified constants, swept until
//! they visibly fail.
//!
//! (a) Cycle-space slack: with `b = f + slack` cut-detection bits, a wrong
//!     answer (a non-cut XOR-ing to zero) appears with probability
//!     ~`2^f / 2^b = 2^-slack` per query — the error rate should fall off
//!     geometrically in `slack`.
//! (b) Sketch units: with `L` basic units, a Borůvka phase with no
//!     recovered outgoing edge wastes a unit; too few units make the
//!     decoder falsely report "disconnected". The failure rate should
//!     collapse as `L` grows past ~log(f).

use ftl_cycle_space::CycleSpaceScheme;
use ftl_graph::generators;
use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
use ftl_seeded::Seed;
use ftl_sketch::{decode, SketchParams, SketchScheme};

fn main() {
    let mut rng = ftl_bench::rng(0xAB1A);
    let g = generators::connected_random(48, 0.08, 1, &mut rng);
    let f = 8usize;
    let trials = 2000;

    // ---- (a) cycle-space slack sweep ------------------------------------
    let mut rows = Vec::new();
    for slack in [1usize, 2, 4, 8, 16, 32] {
        let mut errors = 0usize;
        for trial in 0..trials {
            let scheme =
                CycleSpaceScheme::label_with_bits(&g, f + slack, Seed::new(trial as u64)).unwrap();
            let faults = ftl_bench::sample_faults(&g, f, &mut rng);
            let s = ftl_bench::sample_vertex(&g, &mut rng);
            let t = ftl_bench::sample_vertex(&g, &mut rng);
            let fl: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
            let got =
                ftl_cycle_space::decode(&scheme.vertex_label(s), &scheme.vertex_label(t), &fl);
            let truth = connected_avoiding(&g, s, t, &forbidden_mask(&g, &faults));
            if got != truth {
                errors += 1;
            }
        }
        rows.push(vec![
            format!("b = f + {slack}"),
            format!("{errors}/{trials}"),
            format!("~2^-{slack}"),
        ]);
    }
    ftl_bench::print_table(
        "Ablation (a): cycle-space slack bits vs decode error rate (f = 8, er-48)",
        &["bit budget", "errors", "analysis"],
        &rows,
    );

    // ---- (b) sketch unit sweep -------------------------------------------
    let mut rows = Vec::new();
    for units in [1usize, 2, 4, 8, 16, 32] {
        let params = SketchParams::for_graph(&g).with_units(units);
        let mut errors = 0usize;
        for trial in 0..trials / 4 {
            let scheme = SketchScheme::label(&g, &params, Seed::new(trial as u64)).unwrap();
            let faults = ftl_bench::sample_faults(&g, f, &mut rng);
            let s = ftl_bench::sample_vertex(&g, &mut rng);
            let t = ftl_bench::sample_vertex(&g, &mut rng);
            let fl: Vec<_> = faults.iter().map(|&e| scheme.edge_label(e)).collect();
            let out = decode(&scheme.vertex_label(s), &scheme.vertex_label(t), &fl);
            let truth = connected_avoiding(&g, s, t, &forbidden_mask(&g, &faults));
            if out.connected != truth {
                errors += 1;
            }
        }
        rows.push(vec![
            units.to_string(),
            format!("{errors}/{}", trials / 4),
            ftl_bench::fmt_bits(params.sketch_bits()),
        ]);
    }
    ftl_bench::print_table(
        "Ablation (b): sketch units L vs decode error rate (f = 8, er-48)",
        &["units L", "errors", "sketch bits"],
        &rows,
    );
    println!("\nReading: both knobs buy reliability geometrically; the library defaults");
    println!("(slack >= 16, L = 4 log n + 8) sit far right of the failure cliff.");
}
