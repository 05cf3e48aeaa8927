//! Fault injection: wire-record corrupters and adversarial removal
//! planners for the chaos suite.
//!
//! Everything here is deterministic under a [`Seed`], so a failing chaos
//! run reproduces exactly. The corrupters mutate *copies* of wire bytes,
//! which reach a store the way a disk or network flip would: through
//! [`LabelStoreBuilder::put_bytes`](crate::LabelStoreBuilder::put_bytes),
//! the import boundary that must refuse them.
//!
//! The removal planners mirror the DRFE-R evaluation: uniform random
//! churn versus **targeted** removal of the highest-degree survivors (the
//! attack that collapses stale-table routing, and the reason the epoch
//! store re-verifies ground-truth reachability after every swap).

use ftl_cycle_space::LiveCycleSpace;
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::wire::HEADER_BYTES;
use ftl_seeded::Seed;

/// Flips `count` randomly chosen bits anywhere in `bytes`.
pub fn flip_random_bits(bytes: &mut [u8], count: usize, seed: Seed) {
    if bytes.is_empty() {
        return;
    }
    let mut rng = seed.stream();
    for _ in 0..count {
        let bit = (rng() % (bytes.len() as u64 * 8)) as usize;
        if let Some(b) = bytes.get_mut(bit / 8) {
            *b ^= 1 << (bit % 8);
        }
    }
}

/// Overwrites `count` randomly chosen bytes with random values.
pub fn corrupt_random_bytes(bytes: &mut [u8], count: usize, seed: Seed) {
    if bytes.is_empty() {
        return;
    }
    let mut rng = seed.stream();
    for _ in 0..count {
        let i = (rng() % bytes.len() as u64) as usize;
        let value = rng() as u8;
        if let Some(b) = bytes.get_mut(i) {
            *b = value;
        }
    }
}

/// Truncates a record to its first `keep` bytes.
pub fn truncate_record(bytes: &mut Vec<u8>, keep: usize) {
    bytes.truncate(keep);
}

/// Inflates the declared payload bit-length in the wire header by
/// `extra_bits` without growing the buffer — the classic "length field
/// lies" corruption. Returns false (and does nothing) if the record is too
/// short to even hold a header.
pub fn oversize_declared_bits(bytes: &mut [u8], extra_bits: u32) -> bool {
    let Some((header, _)) = bytes.split_first_chunk_mut::<HEADER_BYTES>() else {
        return false;
    };
    let [_, _, _, _, len_field @ ..] = header;
    *len_field = u32::from_le_bytes(*len_field)
        .saturating_add(extra_bits)
        .to_le_bytes();
    true
}

/// How a removal round picks its victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalModel {
    /// Uniform over the alive population.
    Random,
    /// Highest alive degree first — correlated, adversarial removal of the
    /// best-connected survivors.
    Targeted,
}

/// Alive degree of `v`: alive incident edges (self-loops count once).
fn alive_degree(live: &LiveCycleSpace, v: VertexId) -> usize {
    live.graph()
        .neighbors(v)
        .iter()
        .filter(|nb| live.is_alive_edge(nb.edge))
        .count()
}

/// Plans `count` distinct edge removals over the alive edges.
pub fn plan_edge_removals(
    live: &LiveCycleSpace,
    count: usize,
    model: RemovalModel,
    seed: Seed,
) -> Vec<EdgeId> {
    let mut alive: Vec<EdgeId> = live.alive_edges().collect();
    match model {
        RemovalModel::Random => {
            seeded_shuffle(&mut alive, seed);
        }
        RemovalModel::Targeted => {
            // Heaviest endpoints first; seeded shuffle breaks ties
            // deterministically.
            seeded_shuffle(&mut alive, seed);
            alive.sort_by_key(|&e| {
                let edge = live.graph().edge(e);
                let d = alive_degree(live, edge.u()) + alive_degree(live, edge.v());
                std::cmp::Reverse(d)
            });
        }
    }
    alive.truncate(count);
    alive
}

/// Plans `count` distinct vertex removals over the alive vertices (the
/// current tree root is never planned — removing it is legal but always
/// costs a full rebuild, which a *planner* shouldn't force).
pub fn plan_vertex_removals(
    live: &LiveCycleSpace,
    count: usize,
    model: RemovalModel,
    seed: Seed,
) -> Vec<VertexId> {
    let mut alive: Vec<VertexId> = live
        .alive_vertices()
        .filter(|&v| v != live.root())
        .collect();
    match model {
        RemovalModel::Random => {
            seeded_shuffle(&mut alive, seed);
        }
        RemovalModel::Targeted => {
            seeded_shuffle(&mut alive, seed);
            alive.sort_by_key(|&v| std::cmp::Reverse(alive_degree(live, v)));
        }
    }
    alive.truncate(count);
    alive
}

/// Fisher–Yates with the workspace's seeded stream.
fn seeded_shuffle<T>(items: &mut [T], seed: Seed) {
    let mut rng = seed.stream();
    for i in (1..items.len()).rev() {
        let j = (rng() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;
    use ftl_labels::wire::WireLabel;
    use ftl_labels::AncestryLabel;

    #[test]
    fn oversized_length_is_rejected_by_decoding() {
        let mut bytes = AncestryLabel { pre: 3, post: 9 }.to_wire();
        assert!(oversize_declared_bits(&mut bytes, 64));
        assert!(AncestryLabel::from_wire(&bytes).is_err());
    }

    #[test]
    fn truncation_is_rejected_by_decoding() {
        let mut bytes = AncestryLabel { pre: 3, post: 9 }.to_wire();
        let keep = bytes.len() - 1;
        truncate_record(&mut bytes, keep);
        assert!(AncestryLabel::from_wire(&bytes).is_err());
    }

    #[test]
    fn planners_are_deterministic_and_distinct() {
        let g = generators::grid(5, 5);
        let live = LiveCycleSpace::new(&g, 4, Seed::new(1)).unwrap();
        for model in [RemovalModel::Random, RemovalModel::Targeted] {
            let a = plan_edge_removals(&live, 6, model, Seed::new(9));
            let b = plan_edge_removals(&live, 6, model, Seed::new(9));
            assert_eq!(a, b);
            let mut dedup = a.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 6, "{model:?} plan repeats edges");
        }
        let vs = plan_vertex_removals(&live, 4, RemovalModel::Targeted, Seed::new(2));
        assert_eq!(vs.len(), 4);
        assert!(!vs.contains(&live.root()));
    }

    #[test]
    fn targeted_picks_heaviest_first() {
        let g = generators::star(8); // center has degree 7
        let live = LiveCycleSpace::new(&g, 4, Seed::new(3)).unwrap();
        let center = VertexId::new(0);
        if live.root() != center {
            let vs = plan_vertex_removals(&live, 1, RemovalModel::Targeted, Seed::new(4));
            assert_eq!(vs, vec![center]);
        }
        // Every edge of a star touches the center, so any targeted edge
        // plan is "heaviest" trivially; just check shape.
        let es = plan_edge_removals(&live, 3, RemovalModel::Targeted, Seed::new(5));
        assert_eq!(es.len(), 3);
    }
}
