//! The write side: one-edge removals published through `LiveStore` on a
//! fixed schedule, beside the read load.

use crate::report::{median, Metrics};
use ftl_engine::{full_store_of, LiveStore, SwapPath};
use ftl_graph::EdgeId;
use std::time::{Duration, Instant};

/// One published removal.
#[derive(Debug, Clone, Copy)]
pub struct Swap {
    /// When `remove_edges` was called, ns after `t0`.
    pub at_ns: u64,
    /// `remove_edges` call to return (the new epoch is published by then).
    pub call_ns: u64,
    pub epoch: u64,
    pub edge: EdgeId,
    pub path: SwapPath,
    /// The store's own account of the swap (`SwapReport::elapsed_ns`).
    pub report_ns: u64,
}

#[derive(Debug, Default)]
pub struct ChurnLog {
    pub swaps: Vec<Swap>,
    /// Removals the live labeling refused (they would disconnect).
    pub skipped: u64,
}

impl ChurnLog {
    /// `(epoch, edge)` of every published removal, epochs ascending.
    pub fn removals(&self) -> Vec<(u64, EdgeId)> {
        self.swaps.iter().map(|s| (s.epoch, s.edge)).collect()
    }

    fn remove(&mut self, live: &mut LiveStore, e: EdgeId, t0: Instant) -> Result<(), String> {
        let start = Instant::now();
        let (report, skipped) = live
            .remove_edges(&[e])
            .map_err(|err| format!("remove edge {}: {err}", e.index()))?;
        let call_ns = start.elapsed().as_nanos() as u64;
        if skipped.is_empty() {
            self.swaps.push(Swap {
                at_ns: start.saturating_duration_since(t0).as_nanos() as u64,
                call_ns,
                epoch: report.epoch,
                edge: e,
                path: report.path,
                report_ns: report.elapsed_ns,
            });
        } else {
            self.skipped += 1;
        }
        Ok(())
    }
}

/// Removes `plan[k]` at `t0 + (k + 1) · every`, until `until`.
pub fn run_writer(
    live: &mut LiveStore,
    plan: &[EdgeId],
    t0: Instant,
    every: Duration,
    until: Instant,
) -> Result<ChurnLog, String> {
    let mut log = ChurnLog::default();
    for (k, &e) in plan.iter().enumerate() {
        let due = t0 + every * (k as u32 + 1);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        log.remove(live, e, t0)?;
    }
    Ok(log)
}

/// Median `remove_edges` call time of the swaps made in `[from_ns, to_ns)`,
/// ms.
pub fn swap_p50_ms(log: &ChurnLog, from_ns: u64, to_ns: u64) -> f64 {
    let mut calls: Vec<f64> = log
        .swaps
        .iter()
        .filter(|s| (from_ns..to_ns).contains(&s.at_ns))
        .map(|s| s.call_ns as f64 / 1e6)
        .collect();
    median(&mut calls)
}

/// The store-side per-layer metrics of a churn log, measured on the live
/// store it left behind. Forces one full rebuild at the end, so
/// `swap_full_ms` is defined even when churn never fell back to one.
pub fn store_metrics(
    log: &ChurnLog,
    live: &mut LiveStore,
    from_ns: u64,
    to_ns: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let window = |s: &&Swap| (from_ns..to_ns).contains(&s.at_ns);
    let mut delta: Vec<f64> = Vec::new();
    let mut full: Vec<f64> = Vec::new();
    let mut full_rebuilds = 0u64;
    for s in log.swaps.iter().filter(window) {
        match s.path {
            SwapPath::Delta { .. } => delta.push(s.report_ns as f64 / 1e6),
            SwapPath::FullRebuild => {
                full_rebuilds += 1;
                full.push(s.report_ns as f64 / 1e6);
            }
        }
    }
    let config = live.config();
    let served = live.epochs().current().store().bytes_total() as f64;
    let fresh = full_store_of(live.live(), &config)
        .map_err(|e| e.to_string())?
        .bytes_total() as f64;
    let rebuild_ns = live.measure_full_rebuild_ns().map_err(|e| e.to_string())?;
    if full.is_empty() {
        let forced = live.rebuild().map_err(|e| e.to_string())?;
        full.push(forced.elapsed_ns as f64 / 1e6);
    }

    // Epoch progress across the window: publications, and the longest
    // stretch (window edges included) with none.
    let mut stamps: Vec<u64> = log.swaps.iter().filter(window).map(|s| s.at_ns).collect();
    stamps.insert(0, from_ns);
    stamps.push(to_ns);
    let gap_max = stamps.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);

    m.put("engine.swap_delta_ms", median(&mut delta), "ms");
    m.put("engine.swap_full_ms", median(&mut full), "ms");
    m.put("engine.full_rebuilds", full_rebuilds as f64, "count");
    m.put("engine.removals_skipped", log.skipped as f64, "count");
    m.put("engine.rebuild_ms", rebuild_ns as f64 / 1e6, "ms");
    m.put("engine.store_bytes_ratio", served / fresh.max(1.0), "ratio");
    m.put(
        "engine.epochs_published",
        (stamps.len() - 2) as f64,
        "count",
    );
    m.put("engine.epoch_gap_max_ms", gap_max as f64 / 1e6, "ms");
    Ok(())
}
