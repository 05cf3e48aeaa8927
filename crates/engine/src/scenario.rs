//! Scenario workloads for the engine: fault-model generators, multi-round
//! churn, and a driver that reports throughput, per-query latency,
//! reachability, and (optionally) routed stretch — the DRFE-R-style
//! experiment loop, aimed at the engine instead of a bare decoder.

use crate::batch::ConnQuery;
use crate::engine::{BatchRequest, Engine, EngineError};
use crate::epoch::LiveStore;
use crate::inject::{plan_edge_removals, plan_vertex_removals, RemovalModel};
use ftl_graph::traversal::{connected_avoiding, forbidden_mask};
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_routing::FtRoutingScheme;
use ftl_seeded::Seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
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
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How a round's fault sets are drawn.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum FaultModel {
    /// Faults sampled uniformly over the edge set.
    Uniform,
    /// Faults concentrated on edges incident to the highest-degree
    /// vertices — a targeted attack on the hubs.
    HighDegree,
}

/// One scenario's shape.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario name (appears in reports).
    pub name: String,
    /// Faults per fault set.
    pub f: usize,
    /// Rounds of churn.
    pub rounds: usize,
    /// Fault-set variants per round (variant 0 is the round's base set;
    /// further variants swap one fault each — the "nearby fault set"
    /// traffic that makes the elimination cache earn its keep).
    pub fault_sets_per_round: usize,
    /// Queries per fault set per round.
    pub queries_per_fault_set: usize,
    /// Fraction of the base fault set replaced between rounds
    /// (0.0 = static faults, 1.0 = fresh set each round).
    pub churn: f64,
    /// The fault generator.
    pub model: FaultModel,
    /// RNG seed.
    pub seed: u64,
    /// Check every answer against a graph traversal and count mismatches
    /// (slow; for correctness-focused runs).
    pub verify: bool,
    /// Routed s–t pairs sampled per round for stretch measurement through a
    /// fault-tolerant routing scheme (0 = skip).
    pub stretch_samples: usize,
}

impl ScenarioConfig {
    /// A small default shape: uniform faults, light churn, no verification.
    pub fn new(name: &str, f: usize) -> Self {
        ScenarioConfig {
            name: name.to_string(),
            f,
            rounds: 5,
            fault_sets_per_round: 4,
            queries_per_fault_set: 32,
            churn: 0.25,
            model: FaultModel::Uniform,
            seed: 0xF17,
            verify: false,
            stretch_samples: 0,
        }
    }
}

/// Per-round observations.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index.
    pub round: usize,
    /// Queries answered this round.
    pub queries: usize,
    /// Fraction of queries answered "connected".
    pub reachable_fraction: f64,
    /// Wall time of the round's batches, nanoseconds.
    pub elapsed_ns: u64,
    /// Disagreements with ground truth (only counted when verifying).
    pub mismatches: usize,
}

/// Routed-stretch summary over the sampled pairs.
#[derive(Debug, Clone)]
pub struct StretchStats {
    /// Delivered routes measured.
    pub samples: usize,
    /// Mean observed stretch (routed weight / optimal weight).
    pub mean: f64,
    /// Worst observed stretch.
    pub max: f64,
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Workload graph name.
    pub graph: String,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Faults per set.
    pub f: usize,
    /// Per-round observations.
    pub rounds: Vec<RoundReport>,
    /// Total queries across rounds.
    pub total_queries: usize,
    /// Total batch wall time, nanoseconds.
    pub total_elapsed_ns: u64,
    /// Queries per second over the batch wall time.
    pub throughput_qps: f64,
    /// Mean per-query latency, nanoseconds.
    pub latency_mean_ns: f64,
    /// Median of the per-batch per-query latencies, nanoseconds.
    pub latency_p50_ns: f64,
    /// 99th percentile of the per-batch per-query latencies, nanoseconds.
    pub latency_p99_ns: f64,
    /// Fraction of all queries answered "connected".
    pub reachable_fraction: f64,
    /// Eliminations actually run.
    pub eliminations: usize,
    /// Fault sets served from the cache.
    pub cache_hits: usize,
    /// Ground-truth disagreements (0 unless verifying).
    pub mismatches: usize,
    /// Routed stretch, when sampled.
    pub stretch: Option<StretchStats>,
}

impl ScenarioReport {
    /// Serializes the report as a JSON object (hand-rolled; the workspace
    /// is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", self.name));
        s.push_str(&format!("      \"graph\": \"{}\",\n", self.graph));
        s.push_str(&format!(
            "      \"n\": {}, \"m\": {}, \"f\": {},\n",
            self.n, self.m, self.f
        ));
        s.push_str(&format!(
            "      \"total_queries\": {},\n",
            self.total_queries
        ));
        s.push_str(&format!(
            "      \"throughput_qps\": {:.0},\n",
            self.throughput_qps
        ));
        s.push_str(&format!(
            "      \"latency_mean_ns\": {:.0},\n",
            self.latency_mean_ns
        ));
        s.push_str(&format!(
            "      \"latency_p50_ns\": {:.0},\n",
            self.latency_p50_ns
        ));
        s.push_str(&format!(
            "      \"latency_p99_ns\": {:.0},\n",
            self.latency_p99_ns
        ));
        s.push_str(&format!(
            "      \"reachable_fraction\": {:.4},\n",
            self.reachable_fraction
        ));
        s.push_str(&format!("      \"eliminations\": {},\n", self.eliminations));
        s.push_str(&format!("      \"cache_hits\": {},\n", self.cache_hits));
        s.push_str(&format!("      \"mismatches\": {},\n", self.mismatches));
        match &self.stretch {
            None => s.push_str("      \"stretch\": null,\n"),
            Some(st) => s.push_str(&format!(
                "      \"stretch\": {{ \"samples\": {}, \"mean\": {:.2}, \"max\": {:.2} }},\n",
                st.samples, st.mean, st.max
            )),
        }
        s.push_str("      \"rounds\": [\n");
        for (i, r) in self.rounds.iter().enumerate() {
            s.push_str(&format!(
                "        {{ \"round\": {}, \"queries\": {}, \"reachable_fraction\": {:.4}, \"elapsed_ns\": {}, \"mismatches\": {} }}{}\n",
                r.round,
                r.queries,
                r.reachable_fraction,
                r.elapsed_ns,
                r.mismatches,
                if i + 1 < self.rounds.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str("    }");
        s
    }
}

/// Draws up to `f` distinct faults under the model, avoiding `exclude`.
/// Returns fewer when the graph cannot supply `f` fresh edges.
fn draw_faults(
    g: &Graph,
    f: usize,
    model: FaultModel,
    rng: &mut StdRng,
    exclude: &HashSet<EdgeId>,
) -> Vec<EdgeId> {
    let fresh_edges = g.num_edges().saturating_sub(exclude.len());
    let want = f.min(fresh_edges);
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(want);
    match model {
        FaultModel::Uniform => {
            while out.len() < want {
                let e = EdgeId::new(rng.gen_range(0..g.num_edges()));
                if seen.insert(e) {
                    out.push(e);
                }
            }
        }
        FaultModel::HighDegree => {
            // Rank vertices by degree; fail random edges incident to the
            // top hubs until the budget is spent. Walking every hub
            // guarantees termination even when the top hubs' edges are all
            // excluded.
            let mut by_degree: Vec<VertexId> = g.vertices().collect();
            by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            'outer: for &hub in &by_degree {
                let mut ports: Vec<EdgeId> = g.neighbors(hub).iter().map(|nb| nb.edge).collect();
                // Shuffle the hub's ports so repeated draws vary.
                for i in (1..ports.len()).rev() {
                    ports.swap(i, rng.gen_range(0..=i));
                }
                for e in ports {
                    if seen.insert(e) {
                        out.push(e);
                        if out.len() == want {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Replaces `ceil(churn * f)` members of `base` with fresh draws.
fn churn_faults(
    g: &Graph,
    base: &[EdgeId],
    churn: f64,
    model: FaultModel,
    rng: &mut StdRng,
) -> Vec<EdgeId> {
    let f = base.len();
    let replace = ((churn * f as f64).ceil() as usize).min(f);
    if replace == 0 {
        return base.to_vec();
    }
    let mut out = base.to_vec();
    // Evict `replace` random members…
    for _ in 0..replace {
        out.swap_remove(rng.gen_range(0..out.len()));
    }
    // …and refill from the model, avoiding the survivors.
    let survivors: HashSet<EdgeId> = out.iter().copied().collect();
    out.extend(draw_faults(g, f - out.len(), model, rng, &survivors));
    out
}

/// A fault-set variant: the base with one member swapped.
fn variant_of(g: &Graph, base: &[EdgeId], rng: &mut StdRng) -> Vec<EdgeId> {
    if base.is_empty() || g.num_edges() <= base.len() {
        return base.to_vec();
    }
    let mut out = base.to_vec();
    let at = rng.gen_range(0..out.len());
    loop {
        let e = EdgeId::new(rng.gen_range(0..g.num_edges()));
        if !out.contains(&e) {
            out[at] = e;
            return out;
        }
    }
}

/// Runs one scenario against an engine, returning the full report. The
/// request stream depends only on `cfg`, never on the engine, so two runs
/// of the same config see identical traffic.
///
/// `routing` supplies the stretch measurements when
/// [`ScenarioConfig::stretch_samples`] is non-zero; pass `None` to skip.
///
/// # Errors
///
/// Propagates any [`EngineError`] from the batches.
pub fn run_scenario(
    graph: &Graph,
    graph_name: &str,
    engine: &mut Engine,
    routing: Option<&FtRoutingScheme>,
    cfg: &ScenarioConfig,
) -> Result<ScenarioReport, EngineError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut base = draw_faults(graph, cfg.f, cfg.model, &mut rng, &HashSet::new());
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut batch_latencies: Vec<f64> = Vec::new();
    let mut total_queries = 0usize;
    let mut total_elapsed = 0u64;
    let mut total_reachable = 0usize;
    let mut eliminations = 0usize;
    let mut cache_hits = 0usize;
    let mut mismatches_total = 0usize;
    let mut stretch_samples = 0usize;
    let mut stretch_sum = 0.0f64;
    let mut stretch_max = 0.0f64;

    for round in 0..cfg.rounds {
        if round > 0 {
            base = churn_faults(graph, &base, cfg.churn, cfg.model, &mut rng);
        }
        // One request per fault set: the per-request wall time over its
        // query count is one per-query latency sample.
        let mut round_elapsed = 0u64;
        let mut round_queries = 0usize;
        let mut round_reachable = 0usize;
        let mut round_mismatches = 0usize;
        for v in 0..cfg.fault_sets_per_round {
            let fs = if v == 0 {
                base.clone()
            } else {
                variant_of(graph, &base, &mut rng)
            };
            let queries: Vec<ConnQuery> = (0..cfg.queries_per_fault_set)
                .map(|_| ConnQuery {
                    s: VertexId::new(rng.gen_range(0..graph.num_vertices())),
                    t: VertexId::new(rng.gen_range(0..graph.num_vertices())),
                    fault_set: 0,
                })
                .collect();
            let req = BatchRequest {
                fault_sets: vec![fs.clone()],
                queries,
            };
            let start = Instant::now();
            let resp = engine.execute(&req)?;
            let elapsed = start.elapsed().as_nanos() as u64;
            round_elapsed += elapsed;
            round_queries += resp.results.len();
            if !resp.results.is_empty() {
                batch_latencies.push(elapsed as f64 / resp.results.len() as f64);
            }
            eliminations += resp.stats.eliminations;
            cache_hits += resp.stats.cache_hits;
            round_reachable += resp.results.iter().filter(|r| r.connected).count();
            if cfg.verify {
                let mask = forbidden_mask(graph, &fs);
                for (q, r) in req.queries.iter().zip(&resp.results) {
                    if connected_avoiding(graph, q.s, q.t, &mask) != r.connected {
                        round_mismatches += 1;
                    }
                }
            }
        }
        if let Some(rt) = routing {
            let faults: HashSet<EdgeId> = base.iter().copied().collect();
            for _ in 0..cfg.stretch_samples {
                let s = VertexId::new(rng.gen_range(0..graph.num_vertices()));
                let t = VertexId::new(rng.gen_range(0..graph.num_vertices()));
                let out = rt.route(graph, s, t, &faults);
                if let (true, Some(opt)) = (out.delivered, out.optimal) {
                    if s != t && opt > 0 {
                        let stretch = out.weight as f64 / opt as f64;
                        stretch_samples += 1;
                        stretch_sum += stretch;
                        stretch_max = stretch_max.max(stretch);
                    }
                }
            }
        }
        total_queries += round_queries;
        total_elapsed += round_elapsed;
        total_reachable += round_reachable;
        mismatches_total += round_mismatches;
        rounds.push(RoundReport {
            round,
            queries: round_queries,
            reachable_fraction: round_reachable as f64 / round_queries.max(1) as f64,
            elapsed_ns: round_elapsed,
            mismatches: round_mismatches,
        });
    }

    batch_latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| percentile_nearest_rank(&batch_latencies, p);
    Ok(ScenarioReport {
        name: cfg.name.clone(),
        graph: graph_name.to_string(),
        n: graph.num_vertices(),
        m: graph.num_edges(),
        f: cfg.f,
        rounds,
        total_queries,
        total_elapsed_ns: total_elapsed,
        throughput_qps: total_queries as f64 / (total_elapsed.max(1) as f64 / 1e9),
        latency_mean_ns: total_elapsed as f64 / total_queries.max(1) as f64,
        latency_p50_ns: pct(0.5),
        latency_p99_ns: pct(0.99),
        reachable_fraction: total_reachable as f64 / total_queries.max(1) as f64,
        eliminations,
        cache_hits,
        mismatches: mismatches_total,
        stretch: (stretch_samples > 0).then(|| StretchStats {
            samples: stretch_samples,
            mean: stretch_sum / stretch_samples as f64,
            max: stretch_max,
        }),
    })
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

impl ChurnReport {
    /// Serializes the report as a JSON object (hand-rolled; the workspace
    /// is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", self.name));
        s.push_str(&format!(
            "      \"total_queries\": {},\n",
            self.total_queries
        ));
        s.push_str(&format!("      \"mismatches\": {},\n", self.mismatches));
        s.push_str(&format!("      \"final_epoch\": {},\n", self.final_epoch));
        s.push_str(&format!(
            "      \"delta_rounds\": {}, \"full_rebuild_rounds\": {},\n",
            self.delta_rounds, self.full_rebuild_rounds
        ));
        s.push_str("      \"rounds\": [\n");
        for (i, r) in self.rounds.iter().enumerate() {
            s.push_str(&format!(
                "        {{ \"round\": {}, \"removed_edges\": {}, \"removed_vertices\": {}, \"skipped\": {}, \"epoch\": {}, \"full_rebuild\": {}, \"delta_upserts\": {}, \"delta_removals\": {}, \"swap_ns\": {}, \"queries\": {}, \"reachable_fraction\": {:.4}, \"mismatches\": {}, \"elapsed_ns\": {} }}{}\n",
                r.round,
                r.removed_edges,
                r.removed_vertices,
                r.skipped,
                r.epoch,
                r.full_rebuild,
                r.delta_upserts,
                r.delta_removals,
                r.swap_ns,
                r.queries,
                r.reachable_fraction,
                r.mismatches,
                r.elapsed_ns,
                if i + 1 < self.rounds.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str("    }");
        s
    }
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
                let e = alive_edges[(rng() % alive_edges.len() as u64) as usize];
                if !fs.contains(&e) {
                    fs.push(e);
                }
            }
            fault_sets.push(fs);
            for _ in 0..cfg.queries_per_fault_set {
                queries.push(ConnQuery {
                    s: alive_vertices[(rng() % alive_vertices.len() as u64) as usize],
                    t: alive_vertices[(rng() % alive_vertices.len() as u64) as usize],
                    fault_set: v,
                });
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
            for &e in fs {
                mask[e.index()] = true;
            }
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
            for &e in fs {
                mask[e.index()] = false;
            }
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
    use ftl_cycle_space::CycleSpaceScheme;
    use ftl_graph::generators;
    use ftl_seeded::Seed;

    fn engine_for(g: &Graph, f: usize) -> Engine {
        let scheme = CycleSpaceScheme::label(g, f, Seed::new(77)).unwrap();
        Engine::from_cycle_space(&scheme, EngineConfig::default()).unwrap()
    }

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
    fn verified_uniform_churn_run_has_no_mismatches() {
        let g = generators::grid(4, 4);
        let mut engine = engine_for(&g, 4);
        let mut cfg = ScenarioConfig::new("uniform-churn", 4);
        cfg.rounds = 4;
        cfg.fault_sets_per_round = 3;
        cfg.queries_per_fault_set = 20;
        cfg.churn = 0.5;
        cfg.verify = true;
        let report = run_scenario(&g, "grid-4x4", &mut engine, None, &cfg).unwrap();
        assert_eq!(report.mismatches, 0, "engine disagreed with ground truth");
        assert_eq!(report.total_queries, 4 * 3 * 20);
        assert!(report.reachable_fraction > 0.0 && report.reachable_fraction <= 1.0);
        assert!(report.throughput_qps > 0.0);
        assert!(report.latency_p50_ns <= report.latency_p99_ns);
        assert_eq!(report.rounds.len(), 4);
    }

    #[test]
    fn high_degree_attack_reduces_reachability_below_uniform_on_star() {
        // On a star, hub-targeted faults must disconnect more pairs than
        // the same number of uniform faults does on a richer graph; at the
        // very least the run must complete and report sane numbers.
        let g = generators::star(20);
        let mut engine = engine_for(&g, 6);
        let mut cfg = ScenarioConfig::new("hub-attack", 6);
        cfg.model = FaultModel::HighDegree;
        cfg.rounds = 3;
        cfg.verify = true;
        let report = run_scenario(&g, "star-20", &mut engine, None, &cfg).unwrap();
        assert_eq!(report.mismatches, 0);
        assert!(
            report.reachable_fraction < 1.0,
            "hub faults must cut someone off"
        );
    }

    #[test]
    fn static_faults_hit_the_cache_across_rounds() {
        let g = generators::grid(4, 4);
        let mut engine = engine_for(&g, 3);
        let mut cfg = ScenarioConfig::new("static", 3);
        cfg.rounds = 5;
        cfg.fault_sets_per_round = 1;
        cfg.churn = 0.0;
        let report = run_scenario(&g, "grid-4x4", &mut engine, None, &cfg).unwrap();
        // Round 1 eliminates; rounds 2..5 reuse the cached basis.
        assert_eq!(report.eliminations, 1);
        assert_eq!(report.cache_hits, 4);
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
        let json = report.to_json();
        assert!(json.contains("\"swap_ns\""));
        assert!(json.contains("\"final_epoch\""));
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

    #[test]
    fn stretch_measured_through_routing_scheme() {
        let g = generators::grid(3, 3);
        let mut engine = engine_for(&g, 2);
        let routing = FtRoutingScheme::new(&g, ftl_routing::RoutingParams::new(2, 2), Seed::new(5));
        let mut cfg = ScenarioConfig::new("stretch", 2);
        cfg.rounds = 2;
        cfg.stretch_samples = 8;
        let report = run_scenario(&g, "grid-3x3", &mut engine, Some(&routing), &cfg).unwrap();
        let st = report
            .stretch
            .clone()
            .expect("sampled routes must yield stretch");
        assert!(st.samples > 0);
        assert!(st.mean >= 1.0, "stretch cannot beat the optimum");
        assert!(st.max >= st.mean);
        let json = report.to_json();
        assert!(json.contains("\"stretch\""));
        assert!(json.contains("\"throughput_qps\""));
    }
}
