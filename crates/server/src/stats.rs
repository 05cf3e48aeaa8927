//! Per-tenant and server-wide serving counters, built on `ftl-obs`.
//!
//! One metrics system: every counter here is an [`ftl_obs::Counter`] and
//! every latency distribution an [`ftl_obs::Histogram`], the same
//! primitives the pipeline's stage spans and engine counters use — so
//! the shutdown [`StatsSnapshot`] is a *view* over the registry, and
//! [`ServerStats::render_text`] appends the `ftl_server_*` families to
//! the process-wide exposition to answer a `MetricsRequest 0x50` scrape.
//!
//! Hot-path updates are cheap: server-wide counters are single relaxed
//! atomic adds, per-tenant counters take one short `locked::Slot` hold.
//! Latency goes straight into a fixed log-bucket histogram — there is no
//! raw-sample buffer, so (unlike the first-N-samples cap this replaced)
//! a long run's percentiles reflect *every* sample, not the warm-up.
//! Readout is nearest-rank (`ftl_engine::percentile_nearest_rank`
//! semantics over the buckets, ≤ 12.5 % bucketization error). Under the
//! `no-obs` feature the obs primitives are compiled-out stubs and every
//! series reads zero.

use crate::locked::Slot;
use ftl_obs::{expo, Counter, Histogram};
use ftl_seeded::DetHashMap;

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

/// One tenant's snapshot.
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
    /// Fault-set groups executed across those windows (`batches <=
    /// groups <= requests` when batching is working).
    pub groups: u64,
    /// Queries answered `Ok`, all tenants.
    pub queries: u64,
    /// Requests answered `Ok`, all tenants.
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
    /// Requests force-released by the batcher watchdog (stuck beyond N×
    /// the window duration).
    pub watchdog_fires: u64,
    /// Per-tenant breakdown, sorted by tenant id.
    pub tenants: Vec<TenantSnapshot>,
}

/// The live counters, shared by readers, executors, and the acceptor.
///
/// Per-server-instance (not process-global) so co-resident servers —
/// every loopback test, or two `ftl-serve`s in one process — keep exact,
/// independent counts. The process-global pipeline metrics (stages,
/// engine, epochs) live in [`ftl_obs::global`]; a scrape stitches both.
#[derive(Debug, Default)]
pub struct ServerStats {
    batches: Counter,
    groups: Counter,
    queries: Counter,
    requests: Counter,
    rejects: Counter,
    engine_errors: Counter,
    frame_errors: Counter,
    slow_client_drops: Counter,
    connections_accepted: Counter,
    deadline_drops: Counter,
    watchdog_fires: Counter,
    tenants: Slot<DetHashMap<u32, TenantCounters>>,
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Records a request answered `Ok`.
    pub fn record_ok(&self, tenant: u32, queries: usize, latency_ns: u64) {
        self.requests.inc();
        self.queries.add(queries as u64);
        self.tenants.with(|t| {
            let c = t.entry(tenant).or_default();
            c.requests.inc();
            c.queries.add(queries as u64);
            c.latency_ns.record(latency_ns);
        });
    }

    /// Records an admission-control reject.
    pub fn record_reject(&self, tenant: u32) {
        self.rejects.inc();
        self.tenants
            .with(|t| t.entry(tenant).or_default().rejects.inc());
    }

    /// Records one executed accumulation window of `groups` fault-set
    /// groups.
    pub fn record_batch(&self, groups: usize) {
        self.batches.inc();
        self.groups.add(groups as u64);
    }

    /// Records a request whose group failed in the engine.
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

    /// Snapshots every counter, summarizing latencies to p50/p99.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut tenants: Vec<TenantSnapshot> = self.tenants.with(|t| {
            t.iter()
                .map(|(&tenant, c)| TenantSnapshot {
                    tenant,
                    requests: c.requests.get(),
                    queries: c.queries.get(),
                    rejects: c.rejects.get(),
                    p50_ms: c.latency_ns.percentile(0.5) as f64 / 1e6,
                    p99_ms: c.latency_ns.percentile(0.99) as f64 / 1e6,
                })
                .collect()
        });
        tenants.sort_by_key(|t| t.tenant);
        StatsSnapshot {
            batches: self.batches.get(),
            groups: self.groups.get(),
            queries: self.queries.get(),
            requests: self.requests.get(),
            rejects: self.rejects.get(),
            engine_errors: self.engine_errors.get(),
            frame_errors: self.frame_errors.get(),
            slow_client_drops: self.slow_client_drops.get(),
            connections_accepted: self.connections_accepted.get(),
            deadline_drops: self.deadline_drops.get(),
            watchdog_fires: self.watchdog_fires.get(),
            tenants,
        }
    }

    /// The full scrape text: the process-wide pipeline families
    /// ([`ftl_obs::Registry::render_into`] on the global registry — stage
    /// latencies, engine cache counters, epoch gauges) followed by this
    /// server's `ftl_server_*` families and the per-tenant breakdown.
    /// This is what a `MetricsRequest 0x50` gets back.
    ///
    /// The server totals are read *before* the pipeline families are
    /// rendered, so a scrape never counts a request whose stage samples
    /// it lacks (each request's stages are recorded before its totals).
    pub fn render_text(&self) -> String {
        let totals = [
            ("ftl_server_batches_total", &self.batches),
            ("ftl_server_groups_total", &self.groups),
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
        let mut out = String::with_capacity(8 << 10);
        ftl_obs::global().render_into(&mut out);
        for (name, value) in totals {
            expo::counter(&mut out, name, value);
        }
        self.tenants.with(|t| {
            let mut ids: Vec<u32> = t.keys().copied().collect();
            ids.sort_unstable();
            for family in [
                "ftl_server_tenant_requests_total",
                "ftl_server_tenant_queries_total",
                "ftl_server_tenant_rejects_total",
            ] {
                expo::type_line(&mut out, family, "counter");
            }
            expo::type_line(&mut out, "ftl_server_tenant_latency_ns", "summary");
            for id in ids {
                let Some(c) = t.get(&id) else { continue };
                let tenant = id.to_string();
                let labels = [("tenant", tenant.as_str())];
                expo::sample(
                    &mut out,
                    "ftl_server_tenant_requests_total",
                    &labels,
                    c.requests.get(),
                );
                expo::sample(
                    &mut out,
                    "ftl_server_tenant_queries_total",
                    &labels,
                    c.queries.get(),
                );
                expo::sample(
                    &mut out,
                    "ftl_server_tenant_rejects_total",
                    &labels,
                    c.rejects.get(),
                );
                expo::histogram(
                    &mut out,
                    "ftl_server_tenant_latency_ns",
                    &labels,
                    &c.latency_ns,
                );
            }
        });
        out
    }
}

#[cfg(all(test, not(feature = "no-obs")))]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_counters_aggregate_per_tenant() {
        let s = ServerStats::new();
        for i in 1..=100u64 {
            s.record_ok(7, 4, i * 1_000_000); // 1ms..100ms
        }
        s.record_reject(7);
        s.record_ok(9, 1, 5_000_000);
        s.record_batch(3);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 101);
        assert_eq!(snap.queries, 401);
        assert_eq!(snap.rejects, 1);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.groups, 3);
        assert_eq!(snap.tenants.len(), 2);
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
        let s = ServerStats::new();
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
        let s = ServerStats::new();
        s.record_ok(2, 8, 2_000_000);
        s.record_connection();
        let text = s.render_text();
        for series in [
            // Pipeline side, from the global registry.
            "# TYPE ftl_stage_ns summary",
            "ftl_engine_cache_hit_ratio",
            "ftl_epoch_lag",
            // Server side, from this instance.
            "ftl_server_requests_total 1",
            "ftl_server_queries_total 8",
            "ftl_server_connections_total 1",
            "ftl_server_tenant_requests_total{tenant=\"2\"} 1",
            "ftl_server_tenant_latency_ns_count{tenant=\"2\"} 1",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
    }
}
