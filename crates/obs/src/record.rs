//! The recording primitives: atomic counters, gauges, log-bucket
//! histograms, and stage spans.
//!
//! Everything here sits on the serving hot path, so the record side is
//! held to three invariants (enforced by clippy lints and `ftl-analyzer`
//! FTL001):
//!
//! - **zero allocation** — a record is at most two `fetch_add`s; the
//!   histogram storage is a fixed array baked into the static registry.
//! - **lock-free** — relaxed atomics only; readers race recorders and
//!   see a slightly stale but internally monotone view.
//! - **panic-free** — no indexing, no unwraps; an (impossible)
//!   out-of-range bucket index drops the sample instead of panicking.
//!
//! This module is replaced wholesale by [`crate::record_noop`] under the
//! `no-obs` feature; keep the two APIs identical.

use crate::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A zeroed counter (const: usable in statics).
    pub const fn new() -> Self {
        Counter {
            v: AtomicU64::new(0),
        }
    }

    /// Adds one.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A last-writer-wins level (epoch numbers, sizes).
#[derive(Debug)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge (const: usable in statics).
    pub const fn new() -> Self {
        Gauge {
            v: AtomicU64::new(0),
        }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Sub-bucket resolution: 2^3 = 8 buckets per power of two, bounding the
/// bucketization error of any readout at 12.5 % (values below 16 are
/// exact — their buckets are single integers).
const SUB_BITS: u32 = 3;

/// Bucket count covering all of `u64`: 8 unit buckets for values 0..8,
/// then 8 per octave for octaves 3..=63.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A fixed-size log-scale histogram of `u64` samples (by convention
/// nanoseconds).
///
/// Recording is one `fetch_add` into a bucket plus one into the running
/// sum; no sample buffer exists, so unlike a capped raw-sample vector
/// every sample of an arbitrarily long run influences the percentiles.
/// Readout follows `ftl_engine::percentile_nearest_rank` semantics over
/// the bucketized distribution: the rank is `ceil(p * n)` clamped to
/// `1..=n`, and the reported value is the inclusive upper bound of the
/// bucket holding that rank.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// The bucket holding `v`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = (v >> (msb - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
    (octave << SUB_BITS) | sub
}

/// The inclusive upper bound of bucket `i` (saturating at `u64::MAX` for
/// the top octave).
pub(crate) fn bucket_high(i: usize) -> u64 {
    if i < (1 << SUB_BITS) {
        return i as u64;
    }
    let msb = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
    let base = 1u64 << msb;
    let step = base >> SUB_BITS;
    let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
    base.saturating_add(step.saturating_mul(sub + 1))
        .saturating_sub(1)
}

// A const *template* (not shared state): `[ZERO; BUCKETS]` stamps out
// BUCKETS fresh atomics — the standard idiom for const-initializing an
// atomic array.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    /// An empty histogram (const: usable in statics — ~4 KiB of buckets).
    pub const fn new() -> Self {
        Histogram {
            counts: [ZERO; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn record(&self, v: u64) {
        // ftl-analyzer: allow(hot-alloc) bounded array lookup of an atomic bucket — no allocation
        if let Some(c) = self.counts.get(bucket_index(v)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile over the bucketized distribution; `0` when
    /// empty. Overestimates the true sample by at most 12.5 % (exact for
    /// samples below 16).
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c.load(Ordering::Relaxed));
            if cum >= rank {
                return bucket_high(i);
            }
        }
        bucket_high(BUCKETS - 1)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// One histogram per [`Stage`].
#[derive(Debug)]
pub struct StageSet {
    hists: [Histogram; Stage::COUNT],
}

/// Fallback target so [`StageSet::get`] never has to panic (the index is
/// a `Stage` discriminant, so the miss is unreachable in practice).
static EMPTY: Histogram = Histogram::new();

impl StageSet {
    /// Empty histograms for every stage (const: usable in statics).
    pub const fn new() -> Self {
        // Template const, same idiom as `ZERO` above.
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Histogram = Histogram::new();
        StageSet {
            hists: [H; Stage::COUNT],
        }
    }

    /// Records a wall-clock delta (nanoseconds) against `stage`.
    // ftl-analyzer: hot-path
    #[inline]
    pub fn record(&self, stage: Stage, ns: u64) {
        // ftl-analyzer: allow(hot-alloc) bounded array lookup of a per-stage histogram — no allocation
        if let Some(h) = self.hists.get(stage.index()) {
            h.record(ns);
        }
    }

    /// The histogram backing `stage`.
    pub fn get(&self, stage: Stage) -> &Histogram {
        self.hists.get(stage.index()).unwrap_or(&EMPTY)
    }
}

impl Default for StageSet {
    fn default() -> Self {
        StageSet::new()
    }
}

/// An RAII stage timer: measures from [`Span::enter`] to drop and records
/// the delta into the stage's histogram.
///
/// ```
/// let stages = ftl_obs::StageSet::new();
/// {
///     let _span = ftl_obs::Span::enter(&stages, ftl_obs::Stage::Elimination);
///     // ... timed work ...
/// }
/// assert_eq!(stages.get(ftl_obs::Stage::Elimination).count(), 1);
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing `stage`.
    #[inline]
    pub fn enter(stages: &'a StageSet, stage: Stage) -> Span<'a> {
        Span::over(stages.get(stage))
    }

    /// Starts timing into an explicit histogram.
    #[inline]
    pub fn over(hist: &'a Histogram) -> Span<'a> {
        Span {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}
