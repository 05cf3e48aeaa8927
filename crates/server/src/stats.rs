//! The server's metrics registry: per-tenant and server-wide serving
//! counters, the pipeline's stage latencies and the engine's counters,
//! built on `ftl-obs`.
//!
//! One registry per server: every counter here is an [`ftl_obs::Counter`]
//! and every latency distribution an [`ftl_obs::Histogram`], so the
//! shutdown [`StatsSnapshot`] is a *view* over the registry, and
//! [`ServerStats::render_text`] renders the whole exposition a
//! `MetricsRequest 0x50` scrape gets back — this registry plus the swap
//! metrics of the [`EpochStore`] the server serves. Nothing is
//! process-global, so co-resident servers (every loopback test, or two
//! `ftl-serve`s in one process) never report each other's traffic.
//!
//! Hot-path updates are cheap: server-wide counters are single relaxed
//! atomic adds, per-tenant counters take one short `locked::Slot` hold.
//! Latency goes straight into a fixed log-bucket histogram — there is no
//! raw-sample buffer, so (unlike the first-N-samples cap this replaced)
//! a long run's percentiles reflect *every* sample, not the warm-up.
//! Readout is nearest-rank (`ftl_engine::percentile_nearest_rank`
//! semantics over the buckets, ≤ 12.5 % bucketization error). Per-tenant
//! state is bounded: past [`MAX_TENANTS`] distinct ids, later ids share
//! one `tenant="other"` series. Under the `no-obs` feature the obs
//! primitives are compiled-out stubs and every series reads zero.

use crate::locked::Slot;
use ftl_engine::{BatchStats, EpochStore};
use ftl_obs::{expo, Counter, Gauge, Histogram, Stage, StageSet};
use ftl_seeded::DetHashMap;
use std::sync::Arc;

/// Most tenant ids a server tracks one by one. Requests from ids first
/// seen after that are folded into one `tenant="other"` series, so a
/// client cycling through wire `tenant_id`s cannot grow the registry (≈ 4
/// KiB of histogram per tenant) or the scrape without bound.
pub const MAX_TENANTS: usize = 256;

#[derive(Debug, Default)]
struct TenantCounters {
    requests: Counter,
    queries: Counter,
    rejects: Counter,
    // Boxed: ~4 KiB of buckets per tenant, allocated once on the
    // tenant's first request (under the Slot hold, off the record path's
    // steady state).
    latency_ns: Box<Histogram>,
}

impl TenantCounters {
    fn snapshot(&self, tenant: u32) -> TenantSnapshot {
        TenantSnapshot {
            tenant,
            requests: self.requests.get(),
            queries: self.queries.get(),
            rejects: self.rejects.get(),
            p50_ms: self.latency_ns.percentile(0.5) as f64 / 1e6,
            p99_ms: self.latency_ns.percentile(0.99) as f64 / 1e6,
        }
    }
}

/// The per-tenant counters: the first [`MAX_TENANTS`] ids by id, every
/// later one in `other`.
#[derive(Debug, Default)]
struct Tenants {
    by_id: DetHashMap<u32, TenantCounters>,
    other: Option<TenantCounters>,
}

impl Tenants {
    /// The counters a request from `tenant` records into.
    fn counters(&mut self, tenant: u32) -> &TenantCounters {
        if self.by_id.len() < MAX_TENANTS || self.by_id.contains_key(&tenant) {
            self.by_id.entry(tenant).or_default()
        } else {
            self.other.get_or_insert_with(TenantCounters::default)
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSnapshot {
    /// The tenant id from the request frames.
    pub tenant: u32,
    /// Requests answered `Ok`.
    pub requests: u64,
    /// Queries answered across those requests.
    pub queries: u64,
    /// Requests rejected by admission control (`ServerBusy`).
    pub rejects: u64,
    /// Nearest-rank median service latency (submit → response written),
    /// milliseconds.
    pub p50_ms: f64,
    /// Nearest-rank 99th-percentile service latency, milliseconds.
    pub p99_ms: f64,
}

/// A point-in-time view of every counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Accumulation windows executed.
    pub batches: u64,
    /// Fault sets the engine resolved, one per request that reached it:
    /// its eliminations plus its elimination-cache hits
    /// (`ftl_engine_eliminations_total + ftl_engine_cache_hits_total`).
    pub groups: u64,
    /// Queries answered `Ok` (answer written), all tenants.
    pub queries: u64,
    /// Requests answered `Ok` (answer written), all tenants.
    pub requests: u64,
    /// `ServerBusy` rejects, all tenants.
    pub rejects: u64,
    /// Requests that came back `EngineFailed`.
    pub engine_errors: u64,
    /// Connections dropped for protocol violations (bad magic, oversize
    /// frame, truncation, malformed payload).
    pub frame_errors: u64,
    /// Connections dropped because a response write failed — in practice
    /// a write timeout against a client that stopped reading its
    /// responses (counts drop *events*; concurrent executors may record
    /// more than one for the same connection).
    pub slow_client_drops: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Requests answered `DeadlineExceeded` because their TTL expired
    /// before execution (window-boundary expiry plus watchdog releases).
    pub deadline_drops: u64,
    /// Requests force-released by the batcher watchdog (queued longer
    /// than `ServerConfig::watchdog_after`).
    pub watchdog_fires: u64,
    /// Answers dropped unsent because their connection was already closed.
    pub answers_dropped_closed: u64,
    /// Answers dropped because their write failed (the connection is
    /// forfeited).
    pub answers_dropped_write_failed: u64,
    /// Per-tenant breakdown, sorted by tenant id: the first
    /// [`MAX_TENANTS`] ids the server saw.
    pub tenants: Vec<TenantSnapshot>,
    /// Every tenant id first seen after the first [`MAX_TENANTS`], folded
    /// into one series (`tenant="other"` in the scrape); `None` until
    /// that happens. Its `tenant` field is 0 and names no tenant.
    pub other_tenants: Option<TenantSnapshot>,
}

/// Why an answer was dropped unsent.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// The connection was closed before the answer's run was written.
    Closed,
    /// The run's write failed.
    WriteFailed,
}

/// The server's registry, shared by readers, executors, and the acceptor.
///
/// Per server instance: it holds the request totals, the pipeline's
/// stage latencies and the engine's counters of this server alone, and
/// renders the swap metrics of the [`EpochStore`] this server serves.
#[derive(Debug)]
pub struct ServerStats {
    epochs: Arc<EpochStore>,
    /// Per-stage wall-clock histograms of this server's pipeline.
    pub(crate) stages: StageSet,
    batches: Counter,
    queries: Counter,
    requests: Counter,
    rejects: Counter,
    engine_errors: Counter,
    frame_errors: Counter,
    slow_client_drops: Counter,
    connections_accepted: Counter,
    deadline_drops: Counter,
    watchdog_fires: Counter,
    answers_dropped_closed: Counter,
    answers_dropped_write_failed: Counter,
    engine_queries: Counter,
    engine_eliminations: Counter,
    engine_cache_hits: Counter,
    /// Epoch the most recent engine call pinned.
    epoch_pinned: Gauge,
    tenants: Slot<Tenants>,
}

impl ServerStats {
    /// Fresh zeroed counters for a server over `epochs`.
    pub fn new(epochs: Arc<EpochStore>) -> Self {
        ServerStats {
            epochs,
            stages: StageSet::new(),
            batches: Counter::new(),
            queries: Counter::new(),
            requests: Counter::new(),
            rejects: Counter::new(),
            engine_errors: Counter::new(),
            frame_errors: Counter::new(),
            slow_client_drops: Counter::new(),
            connections_accepted: Counter::new(),
            deadline_drops: Counter::new(),
            watchdog_fires: Counter::new(),
            answers_dropped_closed: Counter::new(),
            answers_dropped_write_failed: Counter::new(),
            engine_queries: Counter::new(),
            engine_eliminations: Counter::new(),
            engine_cache_hits: Counter::new(),
            epoch_pinned: Gauge::new(),
            tenants: Slot::default(),
        }
    }

    /// Records a request answered `Ok` whose answer was written.
    pub fn record_ok(&self, tenant: u32, queries: usize, latency_ns: u64) {
        self.requests.inc();
        self.queries.add(queries as u64);
        self.tenants.with(|t| {
            let c = t.counters(tenant);
            c.requests.inc();
            c.queries.add(queries as u64);
            c.latency_ns.record(latency_ns);
        });
    }

    /// Records an admission-control reject.
    pub fn record_reject(&self, tenant: u32) {
        self.rejects.inc();
        self.tenants.with(|t| t.counters(tenant).rejects.inc());
    }

    /// Records one executed accumulation window.
    pub fn record_batch(&self) {
        self.batches.inc();
    }

    /// Folds in what one engine call did, given its wall time `call_ns`:
    /// its query and cache counters, one `elimination` stage sample per
    /// elimination (the call's elimination time split evenly; the
    /// executor runs one request per call, so there is at most one), one
    /// `answer` sample per answered query (the rest of the call's time
    /// split evenly), and the epoch it pinned.
    pub fn record_engine(&self, call: &BatchStats, call_ns: u64) {
        let (queries, eliminations) = (call.queries as u64, call.eliminations as u64);
        self.engine_queries.add(queries);
        self.engine_eliminations.add(eliminations);
        self.engine_cache_hits.add(call.cache_hits as u64);
        if let Some(each) = call.elimination_ns.checked_div(eliminations) {
            self.stages.record_n(Stage::Elimination, each, eliminations);
        }
        let answer_ns = call_ns.saturating_sub(call.elimination_ns);
        if let Some(each) = answer_ns.checked_div(queries) {
            self.stages.record_n(Stage::Answer, each, queries);
        }
        self.epoch_pinned.set(call.epoch);
    }

    /// Records a request whose engine call failed.
    pub fn record_engine_error(&self) {
        self.engine_errors.inc();
    }

    /// Records a connection dropped for a protocol violation.
    pub fn record_frame_error(&self) {
        self.frame_errors.inc();
    }

    /// Records a connection dropped because a response write failed
    /// (write timeout against a stalled reader).
    pub fn record_slow_drop(&self) {
        self.slow_client_drops.inc();
    }

    /// Records an accepted connection.
    pub fn record_connection(&self) {
        self.connections_accepted.inc();
    }

    /// Records a request answered `DeadlineExceeded` (TTL expired before
    /// execution).
    pub fn record_deadline_drop(&self) {
        self.deadline_drops.inc();
    }

    /// Records a request force-released by the batcher watchdog.
    pub fn record_watchdog_fire(&self) {
        self.watchdog_fires.inc();
    }

    /// Records `answers` answers dropped unsent for `reason`.
    pub fn record_dropped(&self, reason: DropReason, answers: u64) {
        match reason {
            DropReason::Closed => self.answers_dropped_closed.add(answers),
            DropReason::WriteFailed => self.answers_dropped_write_failed.add(answers),
        }
    }

    /// Snapshots every counter, summarizing latencies to p50/p99.
    pub fn snapshot(&self) -> StatsSnapshot {
        let (mut tenants, other_tenants) = self.tenants.with(|t| {
            let ids: Vec<TenantSnapshot> = t.by_id.iter().map(|(&id, c)| c.snapshot(id)).collect();
            (ids, t.other.as_ref().map(|c| c.snapshot(0)))
        });
        tenants.sort_by_key(|t| t.tenant);
        StatsSnapshot {
            batches: self.batches.get(),
            groups: self.engine_eliminations.get() + self.engine_cache_hits.get(),
            queries: self.queries.get(),
            requests: self.requests.get(),
            rejects: self.rejects.get(),
            engine_errors: self.engine_errors.get(),
            frame_errors: self.frame_errors.get(),
            slow_client_drops: self.slow_client_drops.get(),
            connections_accepted: self.connections_accepted.get(),
            deadline_drops: self.deadline_drops.get(),
            watchdog_fires: self.watchdog_fires.get(),
            answers_dropped_closed: self.answers_dropped_closed.get(),
            answers_dropped_write_failed: self.answers_dropped_write_failed.get(),
            tenants,
            other_tenants,
        }
    }

    /// The full scrape text — what a `MetricsRequest 0x50` gets back: the
    /// stage latencies, the engine's query and cache counters, the epoch
    /// gauges and swap metrics of the served [`EpochStore`], then the
    /// `ftl_server_*` totals and the per-tenant breakdown.
    ///
    /// The server totals are read *before* the pipeline families are
    /// rendered, so a scrape never counts a request whose stage samples
    /// it lacks (each request's stages are recorded before its totals).
    pub fn render_text(&self) -> String {
        let totals = [
            ("ftl_server_batches_total", &self.batches),
            ("ftl_server_requests_total", &self.requests),
            ("ftl_server_queries_total", &self.queries),
            ("ftl_server_rejects_total", &self.rejects),
            ("ftl_server_engine_errors_total", &self.engine_errors),
            ("ftl_server_frame_errors_total", &self.frame_errors),
            (
                "ftl_server_slow_client_drops_total",
                &self.slow_client_drops,
            ),
            ("ftl_server_connections_total", &self.connections_accepted),
            ("ftl_server_deadline_drops_total", &self.deadline_drops),
            ("ftl_server_watchdog_fires_total", &self.watchdog_fires),
        ]
        .map(|(name, c)| (name, c.get()));
        let dropped = [
            ("closed", &self.answers_dropped_closed),
            ("write_failed", &self.answers_dropped_write_failed),
        ]
        .map(|(reason, c)| (reason, c.get()));
        let mut out = String::with_capacity(8 << 10);
        self.render_pipeline(&mut out);
        for (name, value) in totals {
            expo::counter(&mut out, name, value);
        }
        expo::type_line(&mut out, "ftl_server_answers_dropped_total", "counter");
        for (reason, value) in dropped {
            expo::sample(
                &mut out,
                "ftl_server_answers_dropped_total",
                &[("reason", reason)],
                value,
            );
        }
        self.tenants.with(|t| {
            let mut ids: Vec<u32> = t.by_id.keys().copied().collect();
            ids.sort_unstable();
            for family in [
                "ftl_server_tenant_requests_total",
                "ftl_server_tenant_queries_total",
                "ftl_server_tenant_rejects_total",
            ] {
                expo::type_line(&mut out, family, "counter");
            }
            expo::type_line(&mut out, "ftl_server_tenant_latency_ns", "summary");
            let named = ids
                .into_iter()
                .filter_map(|id| Some((id.to_string(), t.by_id.get(&id)?)));
            let other = t.other.as_ref().map(|c| ("other".to_string(), c));
            for (tenant, c) in named.chain(other) {
                render_tenant(&mut out, &tenant, c);
            }
        });
        out
    }

    /// The stage, engine, epoch and relabel families.
    fn render_pipeline(&self, out: &mut String) {
        expo::stages(out, &self.stages);

        let hits = self.engine_cache_hits.get();
        let eliminations = self.engine_eliminations.get();
        expo::counter(out, "ftl_engine_queries_total", self.engine_queries.get());
        expo::counter(out, "ftl_engine_eliminations_total", eliminations);
        expo::counter(out, "ftl_engine_cache_hits_total", hits);
        expo::type_line(out, "ftl_engine_cache_hit_ratio", "gauge");
        let lookups = hits + eliminations;
        let ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        expo::sample_f64(out, "ftl_engine_cache_hit_ratio", &[], ratio);

        let published = self.epochs.current().number();
        let pinned = self.epoch_pinned.get();
        let swaps = self.epochs.metrics();
        expo::gauge(out, "ftl_epoch_published", published);
        expo::gauge(out, "ftl_epoch_pinned", pinned);
        expo::gauge(out, "ftl_epoch_lag", epoch_lag(published, pinned));
        expo::counter(out, "ftl_epoch_delta_swaps_total", swaps.delta_swaps.get());
        expo::counter(
            out,
            "ftl_epoch_full_rebuilds_total",
            swaps.full_rebuilds.get(),
        );
        expo::type_line(out, "ftl_epoch_swap_ns", "summary");
        expo::histogram(out, "ftl_epoch_swap_ns", &[], &swaps.swap_ns);

        expo::counter(out, "ftl_live_relabels_total", swaps.relabels.get());
    }
}

/// How far the most recently pinned engine call trails publication (0
/// until an engine call has pinned).
fn epoch_lag(published: u64, pinned: u64) -> u64 {
    if pinned == 0 {
        return 0;
    }
    published.saturating_sub(pinned)
}

/// One tenant's samples, labeled `tenant`.
fn render_tenant(out: &mut String, tenant: &str, c: &TenantCounters) {
    let labels = [("tenant", tenant)];
    for (family, counter) in [
        ("ftl_server_tenant_requests_total", &c.requests),
        ("ftl_server_tenant_queries_total", &c.queries),
        ("ftl_server_tenant_rejects_total", &c.rejects),
    ] {
        expo::sample(out, family, &labels, counter.get());
    }
    expo::histogram(out, "ftl_server_tenant_latency_ns", &labels, &c.latency_ns);
}

#[cfg(all(test, not(feature = "no-obs")))]
mod tests {
    use super::*;
    use crate::frame::MAX_METRICS_BYTES;
    use ftl_engine::LabelStoreBuilder;

    /// A registry over an empty one-epoch store.
    fn stats() -> ServerStats {
        let store = LabelStoreBuilder::new(0, 0, 8, 1).freeze();
        ServerStats::new(Arc::new(EpochStore::new(Arc::new(store))))
    }

    #[test]
    fn percentiles_and_counters_aggregate_per_tenant() {
        let s = stats();
        for i in 1..=100u64 {
            s.record_ok(7, 4, i * 1_000_000); // 1ms..100ms
        }
        s.record_reject(7);
        s.record_ok(9, 1, 5_000_000);
        s.record_batch();
        let snap = s.snapshot();
        assert_eq!(snap.requests, 101);
        assert_eq!(snap.queries, 401);
        assert_eq!(snap.rejects, 1);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.other_tenants, None, "two tenants fit the cap");
        let t7 = &snap.tenants[0];
        assert_eq!((t7.tenant, t7.requests, t7.rejects), (7, 100, 1));
        // Nearest-rank over log buckets: within the 12.5% bucket bound of
        // the exact sample percentiles (50ms, 99ms).
        assert!((t7.p50_ms - 50.0).abs() <= 50.0 * 0.125, "{}", t7.p50_ms);
        assert!((t7.p99_ms - 99.0).abs() <= 99.0 * 0.125, "{}", t7.p99_ms);
    }

    #[test]
    fn late_run_latencies_still_influence_percentiles() {
        // Regression for the first-N-samples cap this module used to
        // carry: a warm-up of fast requests followed by a much longer
        // steady state of slow ones must report steady-state percentiles.
        // (With a capped buffer keeping only the earliest samples, p99
        // would stay at the 1ms warm-up value forever.)
        let s = stats();
        for _ in 0..1_000 {
            s.record_ok(3, 1, 1_000_000); // 1ms warm-up
        }
        for _ in 0..99_000 {
            s.record_ok(3, 1, 100_000_000); // 100ms steady state
        }
        let snap = s.snapshot();
        let t = &snap.tenants[0];
        assert_eq!(t.requests, 100_000);
        assert!(t.p50_ms >= 80.0, "p50 stuck at warm-up: {}", t.p50_ms);
        assert!(t.p99_ms >= 80.0, "p99 stuck at warm-up: {}", t.p99_ms);
    }

    #[test]
    fn scrape_text_carries_server_and_pipeline_families() {
        let s = stats();
        s.record_ok(2, 8, 2_000_000);
        s.record_connection();
        s.record_dropped(DropReason::Closed, 3);
        // A 40.8 µs call: 40 µs of elimination, 100 ns for each of its
        // 8 answers.
        s.record_engine(
            &BatchStats {
                queries: 8,
                fault_sets: 1,
                eliminations: 1,
                cache_hits: 0,
                elimination_ns: 40_000,
                epoch: 1,
            },
            40_800,
        );
        assert_eq!(s.snapshot().groups, 1, "one fault set resolved");
        let text = s.render_text();
        for series in [
            // Pipeline side: this registry's stages and engine counters,
            // and the served epoch store.
            "# TYPE ftl_stage_ns summary",
            "ftl_stage_ns_count{stage=\"elimination\"} 1\n",
            "ftl_stage_ns_sum{stage=\"elimination\"} 40000\n",
            "ftl_stage_ns_count{stage=\"answer\"} 8\n",
            "ftl_stage_ns_sum{stage=\"answer\"} 800\n",
            "ftl_engine_queries_total 8\n",
            "ftl_engine_eliminations_total 1\n",
            "ftl_engine_cache_hit_ratio 0.000000",
            "ftl_epoch_published 1\n",
            "ftl_epoch_pinned 1\n",
            "ftl_epoch_lag 0\n",
            "ftl_epoch_swap_ns_count 0\n",
            "ftl_live_relabels_total 0\n",
            // Server side.
            "ftl_server_requests_total 1",
            "ftl_server_queries_total 8",
            "ftl_server_connections_total 1",
            "# TYPE ftl_server_answers_dropped_total counter\n",
            "ftl_server_answers_dropped_total{reason=\"closed\"} 3\n",
            "ftl_server_answers_dropped_total{reason=\"write_failed\"} 0\n",
            "ftl_server_tenant_requests_total{tenant=\"2\"} 1",
            "ftl_server_tenant_latency_ns_count{tenant=\"2\"} 1",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
    }

    #[test]
    fn epoch_lag_needs_both_sides() {
        assert_eq!(epoch_lag(9, 0), 0, "no engine pinned yet: lag undefined");
        assert_eq!(epoch_lag(9, 6), 3);
        assert_eq!(
            epoch_lag(9, 12),
            0,
            "pinned ahead of a stale read saturates"
        );
    }

    #[test]
    fn ten_thousand_tenants_fold_past_the_cap_and_still_sum_to_the_totals() {
        let s = stats();
        let tenants = 10_000u32;
        for id in 0..tenants {
            // Ids spread over the whole u32 range, each with its own
            // request shape, so the folded series is a real sum.
            let tenant = id.wrapping_mul(2_654_435_761);
            s.record_ok(tenant, 1 + id as usize % 3, 1_000 + id as u64);
            if id % 7 == 0 {
                s.record_reject(tenant);
            }
        }
        let snap = s.snapshot();
        // Server totals stay exact.
        let queries: u64 = (0..tenants).map(|id| 1 + id as u64 % 3).sum();
        let rejects = (0..tenants).filter(|id| id % 7 == 0).count() as u64;
        assert_eq!(snap.requests, tenants as u64);
        assert_eq!(snap.queries, queries);
        assert_eq!(snap.rejects, rejects);
        // The first MAX_TENANTS ids keep their own series; the rest share
        // one, and together they account for every request.
        assert_eq!(snap.tenants.len(), MAX_TENANTS);
        let other = snap.other_tenants.clone().expect("ids past the cap fold");
        let series = snap.tenants.iter().chain(std::iter::once(&other));
        let sum = |f: fn(&TenantSnapshot) -> u64| series.clone().map(f).sum::<u64>();
        assert_eq!(sum(|t| t.requests), snap.requests);
        assert_eq!(sum(|t| t.queries), snap.queries);
        assert_eq!(sum(|t| t.rejects), snap.rejects);
        assert_eq!(other.requests, (tenants as usize - MAX_TENANTS) as u64);
        // A tracked id keeps its own series after the cap is reached.
        let first = snap.tenants.iter().find(|t| t.tenant == 0).unwrap();
        s.record_ok(0, 1, 1_000);
        let again = s.snapshot();
        let first_again = again.tenants.iter().find(|t| t.tenant == 0).unwrap();
        assert_eq!(first_again.requests, first.requests + 1);

        // The scrape stays bounded and whole: it fits a metrics frame,
        // carries the folded series, and its last line is complete.
        let text = s.render_text();
        assert!(
            text.len() < MAX_METRICS_BYTES,
            "{} bytes of scrape",
            text.len()
        );
        assert!(text.contains("ftl_server_tenant_requests_total{tenant=\"other\"}"));
        let last = text.lines().last().unwrap_or_default();
        assert!(text.ends_with('\n'), "scrape cut mid-line: `{last}`");
        assert!(
            last.starts_with("ftl_server_tenant_latency_ns_sum{tenant=\"other\"} "),
            "last line: `{last}`"
        );
        let tenant_lines = text
            .lines()
            .filter(|l| l.starts_with("ftl_server_tenant_requests_total{"))
            .count();
        assert_eq!(tenant_lines, MAX_TENANTS + 1);
    }
}
