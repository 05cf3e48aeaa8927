//! `ftl-obs` — zero-allocation metrics and stage tracing for the serving
//! pipeline.
//!
//! A dependency-free set of recording primitives (full catalog and stage
//! model in `docs/observability.md`):
//!
//! - [`Counter`] / [`Gauge`] — relaxed `AtomicU64`s.
//! - [`Histogram`] — fixed-bucket log-scale (8 sub-buckets per power of
//!   two, ≤ 12.5 % bucketization error) with nearest-rank percentile
//!   readout matching `ftl_engine::percentile_nearest_rank` semantics.
//! - [`Stage`] / [`StageSet`] / [`Span`] — RAII wall-clock spans over the
//!   serving pipeline's stages (frame read → admission → window wait →
//!   elimination → answer → response write).
//! - [`expo`] — Prometheus-style text exposition (the cold read side,
//!   served over the wire as `MetricsResponse 0x51`).
//!
//! The crate holds no metric state of its own. Each owner keeps the
//! metrics it records: a server's `ftl_server::stats::ServerStats` (its
//! stages, engine counters and request totals) and an
//! `ftl_engine::EpochStore` (its swap cost and counts). A scrape renders
//! the server's registry and the epoch store it serves, so co-resident
//! servers never see each other's traffic.
//!
//! # Disciplines
//!
//! Recording is hot-path-safe by construction: atomics only (clippy's
//! lock wall), zero allocation (proven by the engine's counting-allocator
//! test running with instrumentation enabled), no panicking constructs
//! (clippy's panic-free set). The whole record side compiles to
//! empty inline stubs under the `no-obs` feature (which `ftl-server`
//! forwards), so the uninstrumented bench baseline is recoverable from the
//! same sources.

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
/// The first and last stages bracket a request's life inside the server.
/// All are recorded by the server's reader and executor threads;
/// `Elimination` samples are the engine's own timings (one per Gaussian
/// elimination, i.e. per fault-set cache miss), folded in after each
/// engine call.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Blocking read of one request frame off the socket (includes the
    /// wait for the client to send it).
    FrameRead,
    /// Admission (`Batcher::submit_all`): the window-lock hold that
    /// charges the budget and joins the window, shared evenly by the
    /// requests one read delivered.
    Admission,
    /// From successful admission to the executor taking the request's
    /// window (the accumulation-window wait).
    WindowWait,
    /// One Gaussian elimination of a fault set (cache misses only; hits
    /// skip this stage entirely).
    Elimination,
    /// Per-query answer time: one engine call's wall time minus the
    /// eliminations it ran, divided by the queries it answered. Recorded
    /// once per engine call (one per request), weighted by its query
    /// count (one sample per query), so it excludes what `Elimination`
    /// counts.
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

#[cfg(all(test, not(feature = "no-obs")))]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_read_back() {
        let c = Counter::new();
        c.add(10);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 15);
        assert_eq!(Counter::default().get(), 0);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(g.get(), 3, "a gauge is last-writer-wins, not a max");
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
        // A weighted record is that many plain ones.
        let w = Histogram::new();
        w.record_n(9, 3);
        w.record_n(2, 0);
        w.record(1);
        assert_eq!((w.count(), w.sum()), (4, 28));
        assert_eq!((w.percentile(0.25), w.percentile(0.5)), (1, 9));
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
        // The concurrency contract: N threads × M records into one
        // registry built from the primitives lose nothing.
        #[derive(Default)]
        struct Metrics {
            queries: Counter,
            relabels: Counter,
            stages: StageSet,
        }
        let r = std::sync::Arc::new(Metrics::default());
        let threads = 8u64;
        let per_thread = 50_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        r.queries.inc();
                        r.stages.record(Stage::Answer, t * per_thread + i);
                        r.relabels.add(2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = threads * per_thread;
        assert_eq!(r.queries.get(), total);
        assert_eq!(r.relabels.get(), 2 * total);
        let h = r.stages.get(Stage::Answer);
        assert_eq!(h.count(), total);
        // Sum of 0..threads*per_thread, exactly — no sample dropped.
        assert_eq!(h.sum(), total * (total - 1) / 2);
    }

    #[test]
    fn exposition_renders_every_family_and_parses() {
        let h = Histogram::new();
        h.record(1_000);
        let mut text = String::new();
        expo::counter(&mut text, "ftl_engine_queries_total", 4);
        expo::gauge(&mut text, "ftl_epoch_published", 2);
        expo::type_line(&mut text, "ftl_engine_cache_hit_ratio", "gauge");
        expo::sample_f64(&mut text, "ftl_engine_cache_hit_ratio", &[], 0.75);
        expo::type_line(&mut text, "ftl_epoch_swap_ns", "summary");
        expo::histogram(&mut text, "ftl_epoch_swap_ns", &[], &h);
        expo::type_line(&mut text, "ftl_stage_ns", "summary");
        expo::histogram(
            &mut text,
            "ftl_stage_ns",
            &[("stage", Stage::WindowWait.name())],
            &h,
        );
        for series in [
            "# TYPE ftl_engine_queries_total counter\nftl_engine_queries_total 4\n",
            "# TYPE ftl_epoch_published gauge\nftl_epoch_published 2\n",
            "ftl_engine_cache_hit_ratio 0.750000",
            "ftl_epoch_swap_ns{quantile=\"0.5\"} 1023",
            "ftl_epoch_swap_ns_count 1",
            "ftl_epoch_swap_ns_sum 1000",
            "ftl_stage_ns{stage=\"window_wait\",quantile=\"0.99\"} 1023",
            "ftl_stage_ns_count{stage=\"window_wait\"} 1",
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
