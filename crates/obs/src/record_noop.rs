//! The `no-obs` build of the recording primitives: every type is
//! zero-sized, every record is an empty inline stub, every read returns
//! zero, and no clock is ever touched — instrumented call sites compile
//! to nothing, so the bench baseline is bit-for-bit the uninstrumented
//! pipeline.
//!
//! Keep this API identical to [`crate::record`].

use crate::Stage;
use std::marker::PhantomData;

/// A monotonically increasing event count (compiled out: always 0).
#[derive(Debug, Default)]
pub struct Counter {}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter {}
    }

    /// Adds one (no-op).
    #[inline]
    pub fn inc(&self) {}

    /// Adds `n` (no-op).
    #[inline]
    pub fn add(&self, _n: u64) {}

    /// The current total (always 0).
    pub fn get(&self) -> u64 {
        0
    }
}

/// A last-writer-wins level (compiled out: always 0).
#[derive(Debug, Default)]
pub struct Gauge {}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge {}
    }

    /// Sets the level (no-op).
    #[inline]
    pub fn set(&self, _v: u64) {}

    /// The current level (always 0).
    pub fn get(&self) -> u64 {
        0
    }
}

/// A log-scale histogram (compiled out: no storage, always empty).
#[derive(Debug, Default)]
pub struct Histogram {}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {}
    }

    /// Records one sample (no-op).
    #[inline]
    pub fn record(&self, _v: u64) {}

    /// Records `n` samples of one value (no-op).
    #[inline]
    pub fn record_n(&self, _v: u64, _n: u64) {}

    /// Samples recorded so far (always 0).
    pub fn count(&self) -> u64 {
        0
    }

    /// Sum of all recorded samples (always 0).
    pub fn sum(&self) -> u64 {
        0
    }

    /// Nearest-rank percentile (always 0).
    pub fn percentile(&self, _p: f64) -> u64 {
        0
    }
}

/// One histogram per [`Stage`] (compiled out).
#[derive(Debug, Default)]
pub struct StageSet {}

static EMPTY: Histogram = Histogram::new();

impl StageSet {
    /// Empty histograms for every stage.
    pub const fn new() -> Self {
        StageSet {}
    }

    /// Records a wall-clock delta against `stage` (no-op).
    #[inline]
    pub fn record(&self, _stage: Stage, _ns: u64) {}

    /// Records `n` samples of one delta against `stage` (no-op).
    #[inline]
    pub fn record_n(&self, _stage: Stage, _ns: u64, _n: u64) {}

    /// The histogram backing `stage` (always empty).
    pub fn get(&self, _stage: Stage) -> &Histogram {
        &EMPTY
    }
}

/// An RAII stage timer (compiled out: reads no clock, records nothing).
#[derive(Debug)]
pub struct Span<'a> {
    _p: PhantomData<&'a ()>,
}

impl<'a> Span<'a> {
    /// Starts timing `stage` (no-op).
    #[inline]
    pub fn enter(_stages: &'a StageSet, _stage: Stage) -> Span<'a> {
        Span { _p: PhantomData }
    }

    /// Starts timing into an explicit histogram (no-op).
    #[inline]
    pub fn over(_hist: &'a Histogram) -> Span<'a> {
        Span { _p: PhantomData }
    }
}
