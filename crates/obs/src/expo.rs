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

use crate::{Histogram, Stage, StageSet};
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

/// Appends the `ftl_stage_ns` summary family: one label set per stage,
/// in pipeline order.
pub fn stages(out: &mut String, stages: &StageSet) {
    type_line(out, "ftl_stage_ns", "summary");
    for stage in Stage::ALL {
        histogram(
            out,
            "ftl_stage_ns",
            &[("stage", stage.name())],
            stages.get(stage),
        );
    }
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
