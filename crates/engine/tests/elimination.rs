//! Release-mode timing gate for cold fault-set elimination, timed in the
//! same process on labels shaped like the serving benchmark's
//! (`er:1024:8`): the engine's path, [`EliminatedFaultSet::eliminate_with`]
//! over the transposed null-space kernel with the scratch an `Engine`
//! keeps, against the `Basis` path it replaced, which built a fresh
//! `Basis` per fault set and collected the witnesses of its dependent
//! `insert_with`s.
//!
//! Run explicitly: `cargo test --release -p ftl-engine --test elimination
//! -- --ignored --nocapture`.

// Test code: panicking asserts and progress prints are the point here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout
)]

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EliminatedFaultSet, EliminationScratch, LabelStore};
use ftl_gf2::{Basis, BitVec, DecodeScratch};
use ftl_graph::{generators, EdgeId};
use ftl_seeded::{splitmix64, Seed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// `count` sorted sets of `f` distinct edge ids below `m`.
fn fault_sets(m: usize, f: usize, count: usize, seed: u64) -> Vec<Vec<EdgeId>> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            let mut set = Vec::with_capacity(f);
            while set.len() < f {
                state = splitmix64(state);
                let e = EdgeId::new((state % m as u64) as usize);
                if !set.contains(&e) {
                    set.push(e);
                }
            }
            set.sort_unstable();
            set
        })
        .collect()
}

/// The `Basis` path: rank, null-space witnesses and tree-fault intervals
/// of the sorted fault set `ids`.
#[allow(clippy::type_complexity)]
fn basis_eliminate(
    store: &LabelStore,
    ids: Vec<EdgeId>,
) -> (Vec<EdgeId>, usize, Vec<BitVec>, Vec<(u32, u32, u32)>) {
    let mut basis = Basis::new(store.phi_width(), ids.len());
    let mut scratch = DecodeScratch::new();
    let mut col = BitVec::zeros(0);
    let (mut gens, mut tree) = (Vec::new(), Vec::new());
    for (i, &e) in ids.iter().enumerate() {
        assert!(store.read_phi_into(e, &mut col));
        if !basis.insert_with(&col, &mut scratch) {
            gens.push(scratch.combo().clone());
        }
        if let Some((pre, post)) = store.fault_column(e).unwrap().tree_interval {
            tree.push((i as u32, pre, post));
        }
    }
    (ids, basis.rank(), gens, tree)
}

/// Median over `rounds` of the mean µs per set of `run` over all sets.
fn median_us(rounds: usize, sets: usize, mut run: impl FnMut()) -> f64 {
    let mut per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_secs_f64() * 1e6 / sets as f64
        })
        .collect();
    per_round.sort_by(f64::total_cmp);
    per_round[rounds / 2]
}

/// At f = 128 the engine's elimination must be at least twice as fast as
/// the `Basis` path; at f = 4 it must not be slower. Their ranks and
/// generators are checked equal before anything is timed.
#[test]
#[ignore = "timing gate; run in release mode"]
fn null_space_kernel_beats_basis_elimination() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = generators::connected_random(1024, 8.0 / 1024.0, 1, &mut rng);
    for (f, min_speedup) in [(128, 2.0), (4, 1.0)] {
        let scheme = CycleSpaceScheme::label(&g, f, Seed::new(7)).unwrap();
        let store = store_from_cycle_space(&scheme, 4).unwrap();
        let sets = fault_sets(g.num_edges(), f, 256, 0xE1 ^ f as u64);
        let mut scratch = EliminationScratch::default();
        for ids in &sets {
            let efs =
                EliminatedFaultSet::eliminate_with(ids.clone(), &store, &mut scratch).unwrap();
            let (_, rank, gens, _) = basis_eliminate(&store, ids.clone());
            assert_eq!(efs.rank(), rank);
            let witnesses: Vec<Vec<EdgeId>> = gens
                .iter()
                .map(|g| g.ones().map(|k| ids[k]).collect())
                .collect();
            let certificates: Vec<Vec<EdgeId>> = (0..efs.num_null_generators())
                .map(|k| efs.certificate(k).unwrap())
                .collect();
            assert_eq!(certificates, witnesses);
        }
        // Interleave the two paths so drift in the host's speed hits both.
        let (mut basis_us, mut kernel_us) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            basis_us.push(median_us(9, sets.len(), || {
                for ids in &sets {
                    black_box(basis_eliminate(&store, ids.clone()));
                }
            }));
            kernel_us.push(median_us(9, sets.len(), || {
                for ids in &sets {
                    black_box(
                        EliminatedFaultSet::eliminate_with(ids.clone(), &store, &mut scratch)
                            .unwrap(),
                    );
                }
            }));
        }
        basis_us.sort_by(f64::total_cmp);
        kernel_us.sort_by(f64::total_cmp);
        let (basis_us, kernel_us) = (basis_us[2], kernel_us[2]);
        let speedup = basis_us / kernel_us;
        println!(
            "f = {f} (b = {}): Basis {basis_us:.2} µs, kernel {kernel_us:.2} µs per set ({speedup:.2}x)",
            store.phi_width()
        );
        assert!(
            speedup >= min_speedup,
            "f = {f}: kernel {kernel_us:.2} µs vs Basis {basis_us:.2} µs, \
             want at least {min_speedup}x"
        );
    }
}
