//! Prometheus-style text exposition.
//!
//! Rendering is the *cold* side of the crate: it allocates freely (one
//! `String`), walks every bucket, and computes nearest-rank quantiles.
//! Nothing here is ever called from the record path. The format is the
//! Prometheus text format's counter/gauge/summary subset — one
//! `# TYPE` line per family, then `name{label="value"} 123` samples —
//! which is what `ftl-loadgen`'s scrape table and the loopback tests
//! parse. Label values are trusted identifiers (stage names, tenant
//! ids), so no escaping is performed.

use crate::{Histogram, Registry, Stage};
use std::fmt::Write;

/// The quantiles every histogram family exposes.
pub const QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Appends a `# TYPE` header for a family.
pub fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one sample line with optional labels.
pub fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    push_name(out, name, labels);
    let _ = writeln!(out, " {value}");
}

/// Appends one floating-point sample line with optional labels.
pub fn sample_f64(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    push_name(out, name, labels);
    let _ = writeln!(out, " {value:.6}");
}

/// Appends a single unlabeled counter family: type line plus sample.
pub fn counter(out: &mut String, name: &str, value: u64) {
    type_line(out, name, "counter");
    sample(out, name, &[], value);
}

/// Appends a single unlabeled gauge family: type line plus sample.
pub fn gauge(out: &mut String, name: &str, value: u64) {
    type_line(out, name, "gauge");
    sample(out, name, &[], value);
}

/// Appends one histogram's summary samples (quantiles, `_count`, `_sum`)
/// under `name` with `labels`. The family's `# TYPE name summary` line is
/// the caller's job (emit it once, then call this per label set).
pub fn histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &Histogram) {
    for q in QUANTILES {
        let mut qbuf = String::new();
        let _ = write!(qbuf, "{q}");
        push_name(out, name, labels);
        push_extra_label(out, labels.is_empty(), "quantile", &qbuf);
        let _ = writeln!(out, " {}", h.percentile(q));
    }
    let mut with_suffix = String::with_capacity(name.len() + 6);
    with_suffix.push_str(name);
    with_suffix.push_str("_count");
    sample(out, &with_suffix, labels, h.count());
    with_suffix.truncate(name.len());
    with_suffix.push_str("_sum");
    sample(out, &with_suffix, labels, h.sum());
}

fn push_name(out: &mut String, name: &str, labels: &[(&str, &str)]) {
    out.push_str(name);
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Re-opens the label braces written by [`push_name`] to append one more
/// label (the quantile), or opens them fresh when there were none.
fn push_extra_label(out: &mut String, had_none: bool, k: &str, v: &str) {
    if had_none {
        let _ = write!(out, "{{{k}=\"{v}\"}}");
    } else if out.ends_with('}') {
        out.pop();
        let _ = write!(out, ",{k}=\"{v}\"}}");
    }
}

impl Registry {
    /// Appends every pipeline-side series to `out`: the per-stage latency
    /// summaries, the engine's query and cache counters (plus the
    /// derived hit ratio), the epoch gauges and swap-latency summary, and
    /// the live-labeling relabel count. `ftl-server` appends its own
    /// `ftl_server_*` families after this to form a complete scrape.
    pub fn render_into(&self, out: &mut String) {
        type_line(out, "ftl_stage_ns", "summary");
        for stage in Stage::ALL {
            histogram(
                out,
                "ftl_stage_ns",
                &[("stage", stage.name())],
                self.stages.get(stage),
            );
        }

        counter(out, "ftl_engine_queries_total", self.engine.queries.get());
        counter(
            out,
            "ftl_engine_eliminations_total",
            self.engine.eliminations.get(),
        );
        counter(
            out,
            "ftl_engine_cache_hits_total",
            self.engine.cache_hits.get(),
        );
        type_line(out, "ftl_engine_cache_hit_ratio", "gauge");
        let hits = self.engine.cache_hits.get();
        let lookups = hits + self.engine.eliminations.get();
        let ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        sample_f64(out, "ftl_engine_cache_hit_ratio", &[], ratio);

        gauge(out, "ftl_epoch_published", self.epoch.published.get());
        gauge(out, "ftl_epoch_pinned", self.epoch.pinned.get());
        gauge(out, "ftl_epoch_lag", self.epoch.lag());
        counter(
            out,
            "ftl_epoch_delta_swaps_total",
            self.epoch.delta_swaps.get(),
        );
        counter(
            out,
            "ftl_epoch_full_rebuilds_total",
            self.epoch.full_rebuilds.get(),
        );
        type_line(out, "ftl_epoch_swap_ns", "summary");
        histogram(out, "ftl_epoch_swap_ns", &[], &self.epoch.swap_ns);

        counter(out, "ftl_live_relabels_total", self.live.relabels.get());

        counter(
            out,
            "ftl_chaos_connections_total",
            self.chaos.connections.get(),
        );
        counter(out, "ftl_chaos_resets_total", self.chaos.resets.get());
        counter(
            out,
            "ftl_chaos_blackholes_total",
            self.chaos.blackholes.get(),
        );
        counter(out, "ftl_chaos_garbage_total", self.chaos.garbage.get());
        counter(out, "ftl_chaos_shaped_total", self.chaos.shaped.get());

        counter(out, "ftl_client_retries_total", self.client.retries.get());
        counter(
            out,
            "ftl_client_reconnects_total",
            self.client.reconnects.get(),
        );
        counter(out, "ftl_client_backoffs_total", self.client.backoffs.get());
        counter(
            out,
            "ftl_client_deadline_exceeded_total",
            self.client.deadline_exceeded.get(),
        );
        counter(out, "ftl_client_giveups_total", self.client.giveups.get());
    }

    /// [`render_into`](Registry::render_into) as a fresh string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}
