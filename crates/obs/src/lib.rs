//! `ftl-obs` — zero-allocation metrics and stage tracing for the serving
//! pipeline.
//!
//! A dependency-free observability layer shared by `ftl-cycle-space`,
//! `ftl-engine`, and `ftl-server` (full catalog and stage model in
//! `docs/observability.md`):
//!
//! - [`Counter`] / [`Gauge`] — relaxed `AtomicU64`s.
//! - [`Histogram`] — fixed-bucket log-scale (8 sub-buckets per power of
//!   two, ≤ 12.5 % bucketization error) with nearest-rank percentile
//!   readout matching `ftl_engine::percentile_nearest_rank` semantics.
//! - [`Stage`] / [`StageSet`] / [`Span`] — RAII wall-clock spans over the
//!   serving pipeline's stages (frame read → window wait → admission →
//!   elimination → answer → response write).
//! - [`Registry`] — the static metric catalog. [`global()`] is the
//!   process-wide instance every pipeline layer records into;
//!   `Registry::new()` builds isolated instances for tests.
//! - [`expo`] — Prometheus-style text exposition (the cold read side,
//!   served over the wire as `MetricsResponse 0x51`).
//!
//! # Disciplines
//!
//! Recording is hot-path-safe by construction: atomics only (clippy's
//! lock wall), zero allocation (`ftl-analyzer` FTL001, proven by the
//! engine's counting-allocator test running with instrumentation
//! enabled), no panicking constructs (clippy's panic-free set). The whole record side compiles to
//! empty inline stubs under the `no-obs` feature (forwarded by the
//! consuming crates), so the uninstrumented bench baseline is
//! recoverable from the same sources.

#![forbid(unsafe_code)]

pub mod expo;
#[cfg(not(feature = "no-obs"))]
mod record;
#[cfg(not(feature = "no-obs"))]
pub use record::{Counter, Gauge, Histogram, Span, StageSet, BUCKETS};
#[cfg(feature = "no-obs")]
mod record_noop;
#[cfg(feature = "no-obs")]
pub use record_noop::{Counter, Gauge, Histogram, Span, StageSet};

/// The pipeline stages whose wall-clock is attributed by [`Span`]s.
///
/// The first and last stages bracket a request's life inside the server;
/// `Elimination` is recorded by the engine itself (per Gaussian
/// elimination, i.e. per fault-set cache miss), the rest by the server's
/// reader and executor threads.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Blocking read of one request frame off the socket (includes the
    /// wait for the client to send it).
    FrameRead,
    /// Admission (`Batcher::submit`): the window-lock hold that charges
    /// the budget and joins the window.
    Admission,
    /// From successful admission to the executor taking the request's
    /// window (the accumulation-window wait).
    WindowWait,
    /// One Gaussian elimination of a fault set (cache misses only; hits
    /// skip this stage entirely).
    Elimination,
    /// Per-query answer time: an executed window's engine time divided by
    /// its query count (recorded once per window).
    Answer,
    /// Writing one response frame through the connection's writer slot.
    ResponseWrite,
}

impl Stage {
    /// How many stages exist.
    pub const COUNT: usize = 6;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::FrameRead,
        Stage::Admission,
        Stage::WindowWait,
        Stage::Elimination,
        Stage::Answer,
        Stage::ResponseWrite,
    ];

    /// The stable label value used in the exposition
    /// (`ftl_stage_ns{stage="..."}`).
    pub fn name(self) -> &'static str {
        match self {
            Stage::FrameRead => "frame_read",
            Stage::Admission => "admission",
            Stage::WindowWait => "window_wait",
            Stage::Elimination => "elimination",
            Stage::Answer => "answer",
            Stage::ResponseWrite => "response_write",
        }
    }

    /// Dense index into a [`StageSet`].
    #[cfg_attr(feature = "no-obs", allow(dead_code))]
    pub(crate) fn index(self) -> usize {
        match self {
            Stage::FrameRead => 0,
            Stage::Admission => 1,
            Stage::WindowWait => 2,
            Stage::Elimination => 3,
            Stage::Answer => 4,
            Stage::ResponseWrite => 5,
        }
    }
}

/// Engine-side counters: answered queries and cache effectiveness.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Queries answered (all batches, all engines in the process).
    pub queries: Counter,
    /// Fault-set Gaussian eliminations performed (= cache misses).
    pub eliminations: Counter,
    /// Fault sets served from the elimination cache.
    pub cache_hits: Counter,
}

impl EngineMetrics {
    /// Zeroed counters (const: usable in statics).
    pub const fn new() -> Self {
        EngineMetrics {
            queries: Counter::new(),
            eliminations: Counter::new(),
            cache_hits: Counter::new(),
        }
    }

    /// Folds one executed batch's stats in (three relaxed adds).
    #[inline]
    pub fn record_batch(&self, queries: u64, eliminations: u64, cache_hits: u64) {
        self.queries.add(queries);
        self.eliminations.add(eliminations);
        self.cache_hits.add(cache_hits);
    }
}

/// Epoch-store metrics: publication progress, engine lag, and swap cost.
#[derive(Debug, Default)]
pub struct EpochMetrics {
    /// Latest epoch number published by the `EpochStore`.
    pub published: Gauge,
    /// Latest epoch number an engine pinned for a batch.
    pub pinned: Gauge,
    /// Wall-clock nanoseconds per `LiveStore` swap (mutation batch →
    /// published epoch), whichever path built it.
    pub swap_ns: Histogram,
    /// Swaps that took the incremental delta-freeze path.
    pub delta_swaps: Counter,
    /// Swaps that fell back to a full label rebuild.
    pub full_rebuilds: Counter,
}

impl EpochMetrics {
    /// Zeroed metrics (const: usable in statics).
    pub const fn new() -> Self {
        EpochMetrics {
            published: Gauge::new(),
            pinned: Gauge::new(),
            swap_ns: Histogram::new(),
            delta_swaps: Counter::new(),
            full_rebuilds: Counter::new(),
        }
    }

    /// How far the most recently pinned engine trails publication
    /// (0 until both sides have reported).
    pub fn lag(&self) -> u64 {
        let pinned = self.pinned.get();
        if pinned == 0 {
            return 0;
        }
        self.published.get().saturating_sub(pinned)
    }
}

/// Live-labeling (dynamic cycle-space) metrics.
#[derive(Debug, Default)]
pub struct LiveMetrics {
    /// Full relabel-from-scratch fallbacks (seed-pool exhaustion or
    /// non-incremental mutations) across every `LiveCycleSpace`.
    pub relabels: Counter,
}

impl LiveMetrics {
    /// Zeroed counters (const: usable in statics).
    pub const fn new() -> Self {
        LiveMetrics {
            relabels: Counter::new(),
        }
    }
}

/// Chaos-proxy fault counters (`ftl-chaos`): events *fired*, not merely
/// planned, so a scrape accounts for exactly the faults a run injected.
#[derive(Debug, Default)]
pub struct ChaosMetrics {
    /// Connections accepted by any chaos proxy in the process.
    pub connections: Counter,
    /// Connection resets fired (immediate + mid-stream).
    pub resets: Counter,
    /// Black holes engaged (accepted, never forwarded).
    pub blackholes: Counter,
    /// Garbage-byte splices fired.
    pub garbage: Counter,
    /// Connections run under split/throttle shaping.
    pub shaped: Counter,
}

impl ChaosMetrics {
    /// Zeroed counters (const: usable in statics).
    pub const fn new() -> Self {
        ChaosMetrics {
            connections: Counter::new(),
            resets: Counter::new(),
            blackholes: Counter::new(),
            garbage: Counter::new(),
            shaped: Counter::new(),
        }
    }
}

/// Resilient-client counters (`ftl_server::client`): the retry loop's
/// externally visible decisions.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Request attempts retried after an I/O error, timeout, or
    /// retryable status.
    pub retries: Counter,
    /// Reconnects performed (a retry that had to re-dial).
    pub reconnects: Counter,
    /// Backoff sleeps taken before a retry.
    pub backoffs: Counter,
    /// `DeadlineExceeded` responses received.
    pub deadline_exceeded: Counter,
    /// Requests abandoned after exhausting every attempt.
    pub giveups: Counter,
}

impl ClientMetrics {
    /// Zeroed counters (const: usable in statics).
    pub const fn new() -> Self {
        ClientMetrics {
            retries: Counter::new(),
            reconnects: Counter::new(),
            backoffs: Counter::new(),
            deadline_exceeded: Counter::new(),
            giveups: Counter::new(),
        }
    }
}

/// The metric catalog: per-stage latency histograms plus the engine,
/// epoch, and live-labeling families.
///
/// [`global()`] returns the static process-wide registry that the
/// instrumented pipeline records into; isolated instances
/// (`Registry::new()`) exist so tests can assert exact sums without
/// cross-test interference. Server-side counters (`ftl_server_*`) are
/// per-server-instance and live in `ftl_server::ServerStats`, built from
/// the same primitives; its scrape renders them after
/// [`Registry::render_into`].
#[derive(Debug, Default)]
pub struct Registry {
    /// Per-stage wall-clock histograms.
    pub stages: StageSet,
    /// Engine query and cache counters.
    pub engine: EngineMetrics,
    /// Epoch publication and swap metrics.
    pub epoch: EpochMetrics,
    /// Live-labeling counters.
    pub live: LiveMetrics,
    /// Chaos-proxy fault counters.
    pub chaos: ChaosMetrics,
    /// Resilient-client retry counters.
    pub client: ClientMetrics,
}

impl Registry {
    /// A zeroed registry (const: usable in statics).
    pub const fn new() -> Self {
        Registry {
            stages: StageSet::new(),
            engine: EngineMetrics::new(),
            epoch: EpochMetrics::new(),
            live: LiveMetrics::new(),
            chaos: ChaosMetrics::new(),
            client: ClientMetrics::new(),
        }
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry every instrumented pipeline layer records
/// into.
// ftl-analyzer: hot-path
#[inline]
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(all(test, not(feature = "no-obs")))]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_read_back() {
        let r = Registry::new();
        r.engine.record_batch(10, 2, 8);
        r.engine.record_batch(5, 0, 5);
        assert_eq!(r.engine.queries.get(), 15);
        assert_eq!(r.engine.eliminations.get(), 2);
        assert_eq!(r.engine.cache_hits.get(), 13);
        r.epoch.published.set(7);
        assert_eq!(r.epoch.published.get(), 7);
    }

    #[test]
    fn epoch_lag_needs_both_sides() {
        let r = Registry::new();
        r.epoch.published.set(9);
        assert_eq!(r.epoch.lag(), 0, "no engine pinned yet: lag undefined");
        r.epoch.pinned.set(6);
        assert_eq!(r.epoch.lag(), 3);
        r.epoch.pinned.set(12);
        assert_eq!(r.epoch.lag(), 0, "pinned ahead of a stale read saturates");
    }

    #[test]
    fn histogram_percentiles_match_nearest_rank_on_a_known_distribution() {
        // 1..=1000 uniformly: nearest-rank p50 is the 500th sample (500),
        // p99 the 990th (990). The log buckets report the bucket's upper
        // bound, at most 12.5% above.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!((500..=563).contains(&p50), "p50 = {p50}");
        assert!((990..=1113).contains(&p99), "p99 = {p99}");
        // Extremes clamp like percentile_nearest_rank: rank 1 and rank n.
        assert_eq!(h.percentile(0.0), 1, "small values are bucketed exactly");
        assert!(h.percentile(1.0) >= 1000);
    }

    #[test]
    fn histogram_is_exact_below_sixteen() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 9, 15] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 3);
        assert_eq!(h.percentile(1.0), 15);
        assert_eq!(Histogram::new().percentile(0.5), 0, "empty reads 0");
    }

    #[test]
    fn histogram_buckets_are_monotone_and_total() {
        // Every index round-trips: a value lands in a bucket whose bounds
        // contain it, and bucket upper bounds are non-decreasing.
        let mut last_high = 0u64;
        for i in 0..BUCKETS {
            let high = record::bucket_high(i);
            assert!(high >= last_high, "bucket {i} not monotone");
            last_high = high;
            assert_eq!(record::bucket_index(high), i, "upper bound of {i}");
            if i + 1 < BUCKETS {
                assert_eq!(record::bucket_index(high + 1), i + 1);
            }
        }
        assert_eq!(record::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn spans_record_into_their_stage() {
        let stages = StageSet::new();
        {
            let _outer = Span::enter(&stages, Stage::FrameRead);
            let _inner = Span::enter(&stages, Stage::Elimination);
        }
        assert_eq!(stages.get(Stage::FrameRead).count(), 1);
        assert_eq!(stages.get(Stage::Elimination).count(), 1);
        assert_eq!(stages.get(Stage::Answer).count(), 0);
    }

    #[test]
    fn hammered_registry_sums_are_exact() {
        // The concurrency contract: N threads × M records lose nothing.
        let r = std::sync::Arc::new(Registry::new());
        let threads = 8u64;
        let per_thread = 50_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        r.engine.queries.inc();
                        r.stages.record(Stage::Answer, t * per_thread + i);
                        r.live.relabels.add(2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = threads * per_thread;
        assert_eq!(r.engine.queries.get(), total);
        assert_eq!(r.live.relabels.get(), 2 * total);
        let h = r.stages.get(Stage::Answer);
        assert_eq!(h.count(), total);
        // Sum of 0..threads*per_thread, exactly — no sample dropped.
        assert_eq!(h.sum(), total * (total - 1) / 2);
    }

    #[test]
    fn exposition_renders_every_family_and_parses() {
        let r = Registry::new();
        r.engine.record_batch(4, 1, 3);
        r.epoch.published.set(2);
        r.epoch.pinned.set(2);
        r.epoch.swap_ns.record(1_000);
        r.epoch.delta_swaps.inc();
        r.stages.record(Stage::WindowWait, 500);
        let text = r.render();
        for series in [
            "ftl_stage_ns{stage=\"frame_read\",quantile=\"0.5\"}",
            "ftl_stage_ns_count{stage=\"window_wait\"} 1",
            "ftl_engine_queries_total 4",
            "ftl_engine_cache_hits_total 3",
            "ftl_engine_cache_hit_ratio 0.750000",
            "ftl_epoch_published 2",
            "ftl_epoch_lag 0",
            "ftl_epoch_swap_ns_count 1",
            "ftl_epoch_delta_swaps_total 1",
            "ftl_live_relabels_total 0",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
        // Every non-comment line is `name_or_labels value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparseable line: {line}");
            assert!(parts.next().is_some_and(|n| n.starts_with("ftl_")));
        }
    }
}
