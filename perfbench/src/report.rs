//! Summary statistics, scrape readers, and the one-line JSON result.

use ftl_server::StageRow;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The value of an unlabelled sample `name value` in a text exposition.
pub fn scrape_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let (n, v) = l.rsplit_once(' ')?;
            (n == name).then(|| v.parse::<f64>().ok())?
        })
        .unwrap_or(0.0)
}

/// Mean per sample of `stage` between two scrapes, µs.
pub fn stage_mean_us(before: &[StageRow], after: &[StageRow], stage: &str) -> f64 {
    let find = |rows: &[StageRow]| {
        rows.iter()
            .find(|r| r.stage == stage)
            .map_or((0, 0), |r| (r.count, r.sum_ns))
    };
    let (c0, s0) = find(before);
    let (c1, s1) = find(after);
    let count = c1.saturating_sub(c0);
    if count == 0 {
        return 0.0;
    }
    s1.saturating_sub(s0) as f64 / count as f64 / 1e3
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A flat JSON object of string values.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `(steal, total)` CPU time of the whole machine so far, in clock ticks,
/// from the first line of `/proc/stat`; zeros where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen by the hypervisor between consecutive
/// `cpu_ticks` samples; 0 where no time was accounted.
pub fn steal_shares(samples: &[(u64, u64)]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| {
            let total = w[1].1.saturating_sub(w[0].1);
            w[1].0.saturating_sub(w[0].0) as f64 / total.max(1) as f64
        })
        .collect()
}
