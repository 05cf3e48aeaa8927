//! The live-churn workload driver: rounds of structural removals through a
//! [`LiveStore`], transient-fault query traffic through an epoch-following
//! [`Engine`], and every answer checked against BFS ground truth — the
//! DRFE-R-style experiment loop, aimed at the engine instead of a bare
//! decoder. Also home to the nearest-rank percentile that `ftl-server`'s
//! loadgen reads its p50/p99 with.

use crate::batch::ConnQuery;
use crate::engine::{BatchRequest, Engine, EngineError};
use crate::epoch::LiveStore;
use crate::inject::{plan_edge_removals, plan_vertex_removals, RemovalModel};
use ftl_graph::traversal::connected_avoiding;
use ftl_graph::{EdgeId, VertexId};
use ftl_seeded::Seed;
use std::time::Instant;

/// The nearest-rank percentile of an **ascending-sorted** sample array:
/// the smallest sample with at least `⌈p·n⌉` samples at or below it
/// (0 for an empty array; `p` is a fraction, e.g. `0.99`).
///
/// Nearest-rank never interpolates and never picks below the true rank —
/// in particular `p = 0.99` over a handful of samples returns the maximum
/// rather than silently truncating toward the median, which is how an
/// earlier index formula reported a p99 *below* the mean.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len()) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// A uniformly drawn element of `xs`; `None` only when `xs` is empty.
fn pick<T: Copy>(xs: &[T], rng: &mut impl FnMut() -> u64) -> Option<T> {
    let i = rng() % (xs.len() as u64).max(1);
    xs.get(i as usize).copied()
}

/// Marks (or clears) every edge of `fs` in a forbidden-edge mask.
fn set_mask(mask: &mut [bool], fs: &[EdgeId], forbidden: bool) {
    for e in fs {
        if let Some(m) = mask.get_mut(e.index()) {
            *m = forbidden;
        }
    }
}

/// Shape of a live-churn scenario: structural removals (not just fault
/// sets) every round, served through an epoch-following engine over a
/// [`LiveStore`], with **always-on** BFS ground-truth verification — the
/// DRFE-R loop with real topology churn instead of rebuilt tables.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Scenario name (appears in reports).
    pub name: String,
    /// Rounds of churn.
    pub rounds: usize,
    /// Edges structurally removed per round (bridges are skipped).
    pub edge_removals_per_round: usize,
    /// Vertices structurally removed per round (cut vertices are skipped).
    pub vertex_removals_per_round: usize,
    /// How victims are chosen.
    pub model: RemovalModel,
    /// Transient fault sets queried per round (on top of the structural
    /// removals already baked into the epoch).
    pub fault_sets_per_round: usize,
    /// Faults per transient fault set.
    pub f: usize,
    /// Queries per fault set per round.
    pub queries_per_fault_set: usize,
    /// Seed for victim planning, fault draws, and query endpoints.
    pub seed: u64,
}

impl ChurnConfig {
    /// A small default shape: random removals, light per-round traffic.
    pub fn new(name: &str, f: usize) -> Self {
        ChurnConfig {
            name: name.to_string(),
            rounds: 8,
            edge_removals_per_round: 4,
            vertex_removals_per_round: 1,
            model: RemovalModel::Random,
            fault_sets_per_round: 3,
            f,
            queries_per_fault_set: 24,
            seed: 0xC4B2,
        }
    }
}

/// One churn round's observations — one output row.
#[derive(Debug, Clone)]
pub struct ChurnRoundReport {
    /// Round index.
    pub round: usize,
    /// Edges actually removed this round.
    pub removed_edges: usize,
    /// Vertices actually removed this round.
    pub removed_vertices: usize,
    /// Planned removals skipped (bridge / cut-vertex / already dead).
    pub skipped: usize,
    /// Epoch published at the end of the round's removals.
    pub epoch: u64,
    /// Whether any swap this round fell back to a full rebuild.
    pub full_rebuild: bool,
    /// Records re-encoded across this round's delta swaps.
    pub delta_upserts: usize,
    /// Records evicted across this round's delta swaps.
    pub delta_removals: usize,
    /// Total mutate + freeze + publish wall time this round, nanoseconds —
    /// the per-round rebuild latency.
    pub swap_ns: u64,
    /// Queries answered this round.
    pub queries: usize,
    /// Fraction answered "connected".
    pub reachable_fraction: f64,
    /// Disagreements with BFS ground truth (verification is always on).
    pub mismatches: usize,
    /// Query-serving wall time this round, nanoseconds.
    pub elapsed_ns: u64,
}

/// Everything a churn run produced.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Scenario name.
    pub name: String,
    /// Per-round rows.
    pub rounds: Vec<ChurnRoundReport>,
    /// Total queries across rounds.
    pub total_queries: usize,
    /// Total ground-truth disagreements (must be 0).
    pub mismatches: usize,
    /// Epoch current after the last round.
    pub final_epoch: u64,
    /// Rounds whose swaps all stayed on the delta path.
    pub delta_rounds: usize,
    /// Rounds where some swap fell back to a full rebuild.
    pub full_rebuild_rounds: usize,
}

/// Runs a live-churn scenario: every round plans removals under the
/// configured [`RemovalModel`], applies them to the [`LiveStore`] (one
/// epoch swap per removal kind), then pushes transient-fault query traffic
/// through `engine` and checks **every** answer against a BFS over the
/// surviving topology. The engine should be epoch-following (built with
/// [`Engine::over_epochs`] on `store.epochs()`), otherwise it keeps
/// serving the pre-churn snapshot and verification will fail.
///
/// # Errors
///
/// Propagates any [`EngineError`] from the batches.
pub fn run_churn_scenario(
    store: &mut LiveStore,
    engine: &mut Engine,
    cfg: &ChurnConfig,
) -> Result<ChurnReport, EngineError> {
    let seed = Seed::new(cfg.seed);
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut total_queries = 0usize;
    let mut mismatches_total = 0usize;
    let mut delta_rounds = 0usize;
    let mut full_rebuild_rounds = 0usize;
    for round in 0..cfg.rounds {
        let round_seed = seed.derive(round as u64);
        // --- structural churn: remove victims, publish epochs ---
        let edge_plan = plan_edge_removals(
            store.live(),
            cfg.edge_removals_per_round,
            cfg.model,
            round_seed.derive(1),
        );
        let (edge_swap, edge_skipped) = store.remove_edges(&edge_plan)?;
        let vertex_plan = plan_vertex_removals(
            store.live(),
            cfg.vertex_removals_per_round,
            cfg.model,
            round_seed.derive(2),
        );
        let (vertex_swap, vertex_skipped) = store.remove_vertices(&vertex_plan)?;
        let skipped = edge_skipped.len() + vertex_skipped.len();
        let mut full_rebuild = false;
        let mut delta_upserts = 0usize;
        let mut delta_removals = 0usize;
        for swap in [&edge_swap, &vertex_swap] {
            match swap.path {
                crate::epoch::SwapPath::Delta { upserts, removals } => {
                    delta_upserts += upserts;
                    delta_removals += removals;
                }
                crate::epoch::SwapPath::FullRebuild => full_rebuild = true,
            }
        }
        if full_rebuild {
            full_rebuild_rounds += 1;
        } else {
            delta_rounds += 1;
        }
        // --- traffic over the survivors ---
        let live = store.live();
        let alive_edges: Vec<EdgeId> = live.alive_edges().collect();
        let alive_vertices: Vec<VertexId> = live.alive_vertices().collect();
        let mut rng = round_seed.derive(3).stream();
        let mut fault_sets = Vec::with_capacity(cfg.fault_sets_per_round);
        let mut queries = Vec::with_capacity(cfg.fault_sets_per_round * cfg.queries_per_fault_set);
        for v in 0..cfg.fault_sets_per_round {
            let mut fs = Vec::with_capacity(cfg.f);
            while fs.len() < cfg.f.min(alive_edges.len()) {
                if let Some(e) = pick(&alive_edges, &mut rng) {
                    if !fs.contains(&e) {
                        fs.push(e);
                    }
                }
            }
            fault_sets.push(fs);
            for _ in 0..cfg.queries_per_fault_set {
                let s = pick(&alive_vertices, &mut rng);
                let t = pick(&alive_vertices, &mut rng);
                if let (Some(s), Some(t)) = (s, t) {
                    queries.push(ConnQuery { s, t, fault_set: v });
                }
            }
        }
        let req = BatchRequest {
            fault_sets,
            queries,
        };
        let start = Instant::now();
        let resp = engine.execute(&req)?;
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        // --- always-on ground truth: BFS over alive topology minus the
        // query's transient faults; every answer must agree ---
        let mut round_mismatches = 0usize;
        let mut reachable = 0usize;
        let mut mask = live.forbidden_base();
        for (fi, fs) in req.fault_sets.iter().enumerate() {
            set_mask(&mut mask, fs, true);
            for (q, r) in req
                .queries
                .iter()
                .zip(&resp.results)
                .filter(|(q, _)| q.fault_set == fi)
            {
                if r.connected {
                    reachable += 1;
                }
                if connected_avoiding(live.graph(), q.s, q.t, &mask) != r.connected {
                    round_mismatches += 1;
                }
            }
            set_mask(&mut mask, fs, false);
        }
        total_queries += resp.results.len();
        mismatches_total += round_mismatches;
        rounds.push(ChurnRoundReport {
            round,
            removed_edges: edge_plan.len() - edge_skipped.len(),
            removed_vertices: vertex_plan.len() - vertex_skipped.len(),
            skipped,
            epoch: vertex_swap.epoch.max(edge_swap.epoch),
            full_rebuild,
            delta_upserts,
            delta_removals,
            swap_ns: edge_swap.elapsed_ns + vertex_swap.elapsed_ns,
            queries: resp.results.len(),
            reachable_fraction: reachable as f64 / resp.results.len().max(1) as f64,
            mismatches: round_mismatches,
            elapsed_ns,
        });
    }
    Ok(ChurnReport {
        name: cfg.name.clone(),
        rounds,
        total_queries,
        mismatches: mismatches_total,
        final_epoch: store.epochs().current().number(),
        delta_rounds,
        full_rebuild_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use ftl_graph::generators;
    use ftl_seeded::Seed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nearest_rank_percentiles_on_known_distribution() {
        // 1..=100: the nearest-rank pN of n=100 samples is exactly N.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_nearest_rank(&samples, 0.50), 50.0);
        assert_eq!(percentile_nearest_rank(&samples, 0.99), 99.0);
        assert_eq!(percentile_nearest_rank(&samples, 1.0), 100.0);
        assert_eq!(percentile_nearest_rank(&samples, 0.001), 1.0);
        assert_eq!(percentile_nearest_rank(&samples, 0.0), 1.0);
        // Small arrays: p99 of six samples is the maximum — the old
        // truncating index formula returned the 5th-smallest here, which
        // is how a p99 below the mean got reported.
        let six = [10.0, 11.0, 12.0, 13.0, 14.0, 500.0];
        assert_eq!(percentile_nearest_rank(&six, 0.99), 500.0);
        assert_eq!(percentile_nearest_rank(&six, 0.5), 12.0);
        // p99 can no longer fall below the median for any sample array.
        assert!(percentile_nearest_rank(&six, 0.99) >= percentile_nearest_rank(&six, 0.5));
        assert_eq!(percentile_nearest_rank(&[], 0.99), 0.0);
        assert_eq!(percentile_nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn churn_scenario_verifies_every_round_against_ground_truth() {
        let g = generators::grid(6, 6);
        let mut store = LiveStore::new(&g, 4, Seed::new(0xC0A1), EngineConfig::default()).unwrap();
        let mut engine = Engine::over_epochs(
            std::sync::Arc::clone(store.epochs()),
            EngineConfig::default(),
        );
        let mut cfg = ChurnConfig::new("grid-churn", 3);
        cfg.rounds = 5;
        let report = run_churn_scenario(&mut store, &mut engine, &cfg).unwrap();
        assert_eq!(report.mismatches, 0, "engine disagreed with BFS truth");
        assert_eq!(report.rounds.len(), 5);
        assert!(report.final_epoch > 1, "no epoch was ever published");
        assert!(report.total_queries > 0);
        let removed: usize = report
            .rounds
            .iter()
            .map(|r| r.removed_edges + r.removed_vertices)
            .sum();
        assert!(removed > 0, "churn rounds removed nothing");
        assert!(report.rounds.iter().all(|r| r.mismatches == 0));
    }

    #[test]
    fn churn_scenario_targeted_model_stays_correct() {
        let g = generators::barabasi_albert(60, 3, &mut StdRng::seed_from_u64(7));
        let mut store = LiveStore::new(&g, 4, Seed::new(0xC0A2), EngineConfig::default()).unwrap();
        let mut engine = Engine::over_epochs(
            std::sync::Arc::clone(store.epochs()),
            EngineConfig::default(),
        );
        let mut cfg = ChurnConfig::new("ba-targeted-churn", 3);
        cfg.rounds = 4;
        cfg.model = RemovalModel::Targeted;
        cfg.edge_removals_per_round = 6;
        cfg.vertex_removals_per_round = 2;
        let report = run_churn_scenario(&mut store, &mut engine, &cfg).unwrap();
        assert_eq!(report.mismatches, 0);
        assert!(report.final_epoch > 1);
    }

    #[test]
    fn stale_engine_fails_churn_verification() {
        // An engine pinned to epoch 1 (NOT epoch-following) keeps serving
        // the pre-churn labels; the always-on verification must notice.
        let g = generators::complete(10);
        let mut store = LiveStore::new(&g, 3, Seed::new(0xC0A3), EngineConfig::default()).unwrap();
        let stale_store = std::sync::Arc::clone(store.epochs().current().store());
        let mut stale = Engine::with_shared(stale_store, EngineConfig::default());
        let mut cfg = ChurnConfig::new("stale", 3);
        cfg.rounds = 4;
        cfg.edge_removals_per_round = 8;
        cfg.vertex_removals_per_round = 2;
        // The stale engine answers from the dead topology; if the run
        // completes at all, the truth check must have caught it.
        if let Ok(r) = run_churn_scenario(&mut store, &mut stale, &cfg) {
            assert!(r.mismatches > 0, "stale snapshot escaped detection");
        }
    }
}
