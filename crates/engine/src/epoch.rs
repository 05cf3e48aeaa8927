//! Epoch-versioned label stores: lock-free snapshot-swap publication and
//! the delta-freeze pipeline driving it.
//!
//! The store itself is build-then-freeze (see [`crate::store`]); this
//! module adds the *versioning* layer that lets the topology change while
//! queries are in flight:
//!
//! * An [`Epoch`] is an immutable pair `(number, Arc<LabelStore>)`.
//! * An [`EpochStore`] publishes epochs by **atomic pointer swap**: a
//!   reader takes a brief read-lock only to clone the current `Arc` —
//!   never across a query — so in-flight batches always complete against
//!   the consistent snapshot they pinned, and a publish never waits for
//!   readers to drain.
//! * A [`LiveStore`] owns a [`LiveCycleSpace`] (the incrementally
//!   maintained labeling) plus an `EpochStore`, and turns each removal
//!   into either a **delta-freeze** — rewriting only the labels the
//!   mutation actually dirtied, in copies of the shards they land in, and
//!   sharing every other shard with the previous epoch — or a full
//!   rebuild when the live scheme had to relabel from scratch. Which path
//!   ran, and how long the whole mutate-and-publish took, is reported per
//!   swap in a [`SwapReport`] and accumulated in the epoch store's
//!   [`SwapMetrics`].
//!
//! Readers built with [`Engine::over_epochs`](crate::Engine::over_epochs)
//! refresh their pinned snapshot at call boundaries, so a swap becomes
//! visible at the next call — never mid-batch.

use crate::engine::EngineConfig;
use crate::store::{LabelStore, LabelStoreBuilder, StoreError, StoreKey};
use ftl_cycle_space::{LiveCycleSpace, LiveDelta, LiveError};
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_obs::{Counter, Gauge, Histogram};
use ftl_seeded::Seed;
use std::fmt;
// The epoch writer side is the one blessed lock in ftl-engine.
#[allow(clippy::disallowed_types)]
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Why a live-store operation failed: either the live labeling rejected
/// the mutation (topology error) or the successor snapshot could not be
/// frozen (store error). Either way nothing observable changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveStoreError {
    /// The live labeling rejected the mutation.
    Live(LiveError),
    /// The successor snapshot could not be frozen.
    Store(StoreError),
}

impl fmt::Display for LiveStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveStoreError::Live(e) => write!(f, "live labeling: {e}"),
            LiveStoreError::Store(e) => write!(f, "snapshot freeze: {e}"),
        }
    }
}

impl std::error::Error for LiveStoreError {}

impl From<LiveError> for LiveStoreError {
    fn from(e: LiveError) -> Self {
        LiveStoreError::Live(e)
    }
}

impl From<StoreError> for LiveStoreError {
    fn from(e: StoreError) -> Self {
        LiveStoreError::Store(e)
    }
}

/// One immutable published snapshot: an epoch number and its store.
#[derive(Debug)]
pub struct Epoch {
    number: u64,
    store: Arc<LabelStore>,
}

impl Epoch {
    /// The epoch number (strictly increasing across publishes; the first
    /// epoch of an [`EpochStore`] is 1).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The store of this epoch.
    pub fn store(&self) -> &Arc<LabelStore> {
        &self.store
    }
}

/// Atomic publication point for epoch snapshots.
///
/// Readers call [`current`](EpochStore::current) and hold the returned
/// `Arc<Epoch>` for as long as they need a consistent view; publishers
/// call [`publish`](EpochStore::publish) and return immediately. Previous
/// epochs stay alive exactly as long as some reader still pins them.
#[derive(Debug)]
pub struct EpochStore {
    // The one blessed lock in ftl-engine: held for exactly one Arc clone
    // (readers) or one pointer assignment (the single writer).
    #[allow(clippy::disallowed_types)]
    current: RwLock<Arc<Epoch>>,
    metrics: SwapMetrics,
}

impl EpochStore {
    /// Wraps an initial store as epoch 1.
    #[allow(clippy::disallowed_types)]
    pub fn new(store: Arc<LabelStore>) -> Self {
        EpochStore {
            current: RwLock::new(Arc::new(Epoch { number: 1, store })),
            metrics: SwapMetrics::default(),
        }
    }

    /// The currently published epoch. A brief read-lock around one `Arc`
    /// clone — never held across label reads, so readers cannot block a
    /// publisher for longer than that clone.
    pub fn current(&self) -> Arc<Epoch> {
        // A poisoned lock only means a publisher panicked *between*
        // pointer writes, which cannot happen (the swap is a single
        // assignment) — recover rather than propagate. The guard lives for
        // one Arc clone, never across a query.
        #[allow(clippy::disallowed_methods)]
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publishes `store` as the next epoch and returns its number.
    pub fn publish(&self, store: Arc<LabelStore>) -> u64 {
        // Single-writer publication swap.
        #[allow(clippy::disallowed_methods)]
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        let number = slot.number + 1;
        *slot = Arc::new(Epoch { number, store });
        number
    }

    /// What the swaps published here cost and which path they took.
    pub fn metrics(&self) -> &SwapMetrics {
        &self.metrics
    }
}

/// The swap metrics of one [`EpochStore`], recorded by the [`LiveStore`]
/// publishing into it. Held by the store, not the process, so a server
/// reports the swaps of the store it serves and nothing else.
#[derive(Debug, Default)]
pub struct SwapMetrics {
    /// Wall-clock nanoseconds per published swap (mutation batch →
    /// published epoch), whichever path built it. No-op publishes (an
    /// empty delta) never record.
    pub swap_ns: Histogram,
    /// Published swaps that took the incremental delta-freeze path.
    pub delta_swaps: Counter,
    /// Published swaps that fell back to a full label rebuild.
    pub full_rebuilds: Counter,
    /// From-scratch relabels of the live labeling behind this store, as
    /// of its latest swap ([`LiveCycleSpace::relabels`]).
    pub relabels: Gauge,
}

impl SwapMetrics {
    /// Folds in one published swap. Cold path: a swap is a whole-store
    /// event, not a per-query one.
    fn record(&self, report: &SwapReport, relabels: u64) {
        self.swap_ns.record(report.elapsed_ns);
        match report.path {
            SwapPath::Delta { .. } => self.delta_swaps.inc(),
            SwapPath::FullRebuild => self.full_rebuilds.inc(),
        }
        self.relabels.set(relabels);
    }
}

/// Which freeze path a swap took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPath {
    /// Delta-freeze: only dirtied labels were rewritten; all untouched
    /// shards are shared with the previous epoch.
    Delta {
        /// Number of rewritten (upserted) records.
        upserts: usize,
        /// Number of evicted records.
        removals: usize,
    },
    /// The live scheme relabeled from scratch and the store was rebuilt
    /// wholesale.
    FullRebuild,
}

/// What one mutate-and-publish cycle did and cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// The epoch number the new snapshot was published as. Equal to the
    /// previous epoch when nothing changed (no publish happened).
    pub epoch: u64,
    /// Freeze path taken.
    pub path: SwapPath,
    /// Wall time of the whole cycle: live mutation + freeze + publish.
    pub elapsed_ns: u64,
}

/// A live, epoch-published label store over a mutating topology.
///
/// Owns the single-writer side: apply removals to the live labeling, turn
/// the resulting [`LiveDelta`] into a frozen successor snapshot, publish
/// it. Readers hang off [`epochs`](LiveStore::epochs) and never see a
/// half-applied change.
#[derive(Debug)]
pub struct LiveStore {
    live: LiveCycleSpace,
    epochs: Arc<EpochStore>,
    config: EngineConfig,
}

impl LiveStore {
    /// Labels `graph` against up to `f` faults and publishes the initial
    /// snapshot as epoch 1.
    ///
    /// # Errors
    ///
    /// Fails if the graph cannot be labeled ([`LiveStoreError::Live`]) or
    /// the initial snapshot cannot be frozen ([`LiveStoreError::Store`]).
    pub fn new(
        graph: &Graph,
        f: usize,
        seed: Seed,
        config: EngineConfig,
    ) -> Result<Self, LiveStoreError> {
        let mut live = LiveCycleSpace::new(graph, f, seed)?;
        live.take_delta(); // the initial all-dirty state is the baseline
        let store = Arc::new(full_store_of(&live, &config)?);
        Ok(LiveStore {
            live,
            epochs: Arc::new(EpochStore::new(store)),
            config,
        })
    }

    /// The publication point readers subscribe to.
    pub fn epochs(&self) -> &Arc<EpochStore> {
        &self.epochs
    }

    /// The live labeling (read access — all mutation goes through the
    /// removal methods so every change is published).
    pub fn live(&self) -> &LiveCycleSpace {
        &self.live
    }

    /// The engine configuration freezes are built with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Removes one edge and publishes the successor snapshot. On error the
    /// topology, labels, and published epoch are all unchanged (a freeze
    /// error leaves the previous epoch serving).
    ///
    /// # Errors
    ///
    /// [`LiveStoreError::Live`] when the removal is rejected (dead edge,
    /// would disconnect); [`LiveStoreError::Store`] when the successor
    /// snapshot cannot be frozen.
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<SwapReport, LiveStoreError> {
        let t0 = Instant::now();
        self.live.remove_edge(e)?;
        Ok(self.publish_pending(t0)?)
    }

    /// Removes one vertex (and its incident edges) and publishes the
    /// successor snapshot. On error nothing changes.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LiveStore::remove_edge`].
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<SwapReport, LiveStoreError> {
        let t0 = Instant::now();
        self.live.remove_vertex(v)?;
        Ok(self.publish_pending(t0)?)
    }

    /// Removes a batch of edges under **one** published swap. Edges whose
    /// removal fails (already dead, would disconnect) are skipped and
    /// returned; the rest are applied.
    ///
    /// # Errors
    ///
    /// Fails only when the successor snapshot cannot be frozen — per-edge
    /// rejections come back in the skip list, not as an error.
    pub fn remove_edges(
        &mut self,
        edges: &[EdgeId],
    ) -> Result<(SwapReport, Vec<(EdgeId, LiveError)>), StoreError> {
        let t0 = Instant::now();
        let mut skipped = Vec::new();
        for &e in edges {
            if let Err(err) = self.live.remove_edge(e) {
                skipped.push((e, err));
            }
        }
        Ok((self.publish_pending(t0)?, skipped))
    }

    /// Removes a batch of vertices under one published swap, skipping (and
    /// returning) the ones that cannot be removed.
    ///
    /// # Errors
    ///
    /// Fails only when the successor snapshot cannot be frozen.
    pub fn remove_vertices(
        &mut self,
        vertices: &[VertexId],
    ) -> Result<(SwapReport, Vec<(VertexId, LiveError)>), StoreError> {
        let t0 = Instant::now();
        let mut skipped = Vec::new();
        for &v in vertices {
            if let Err(err) = self.live.remove_vertex(v) {
                skipped.push((v, err));
            }
        }
        Ok((self.publish_pending(t0)?, skipped))
    }

    /// Forces a full relabel + full freeze + publish, regardless of dirty
    /// state — the honest baseline delta-freezes are measured against.
    ///
    /// # Errors
    ///
    /// Fails if the rebuilt snapshot cannot be frozen; the previous epoch
    /// keeps serving.
    pub fn rebuild(&mut self) -> Result<SwapReport, StoreError> {
        let t0 = Instant::now();
        self.live.relabel();
        self.live.take_delta();
        let store = Arc::new(full_store_of(&self.live, &self.config)?);
        let epoch = self.epochs.publish(store);
        let report = SwapReport {
            epoch,
            path: SwapPath::FullRebuild,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
        };
        self.epochs.metrics.record(&report, self.live.relabels());
        Ok(report)
    }

    /// Measures (without publishing or mutating anything observable) what
    /// a from-scratch relabel + full freeze of the current topology costs.
    ///
    /// # Errors
    ///
    /// Fails if the trial freeze fails (nothing was published either way).
    pub fn measure_full_rebuild_ns(&self) -> Result<u64, StoreError> {
        let t0 = Instant::now();
        let mut clone = self.live.clone();
        clone.relabel();
        let store = full_store_of(&clone, &self.config)?;
        let ns = t0.elapsed().as_nanos() as u64;
        drop(store);
        Ok(ns)
    }

    /// Drains the live delta into a successor snapshot and publishes it.
    fn publish_pending(&mut self, t0: Instant) -> Result<SwapReport, StoreError> {
        let delta = self.live.take_delta();
        if delta.is_empty() {
            // Nothing changed (e.g. a batch where every removal was
            // skipped): don't invalidate caches with a no-op epoch.
            return Ok(SwapReport {
                epoch: self.epochs.current().number(),
                path: SwapPath::Delta {
                    upserts: 0,
                    removals: 0,
                },
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        let (store, path) = if delta.full {
            (
                full_store_of(&self.live, &self.config)?,
                SwapPath::FullRebuild,
            )
        } else {
            let path = SwapPath::Delta {
                upserts: delta.vertex_upserts.len() + delta.edge_upserts.len(),
                removals: delta.removed_vertices.len() + delta.removed_edges.len(),
            };
            let prev = self.epochs.current();
            (delta_freeze(prev.store(), &self.live, &delta)?, path)
        };
        let epoch = self.epochs.publish(Arc::new(store));
        let report = SwapReport {
            epoch,
            path,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
        };
        self.epochs.metrics.record(&report, self.live.relabels());
        Ok(report)
    }
}

/// Freezes the successor of `prev` that `delta` describes: the removed
/// records dropped, the dirtied ones rewritten from `live` (edge rows
/// copied out of its `φ` bank). Only the shards whose rows change are
/// copied; every other shard is shared with `prev`.
fn delta_freeze(
    prev: &LabelStore,
    live: &LiveCycleSpace,
    delta: &LiveDelta,
) -> Result<LabelStore, StoreError> {
    let mut b = prev.edit();
    for &v in &delta.removed_vertices {
        b.remove(StoreKey::vertex(v))?;
    }
    for &e in &delta.removed_edges {
        b.remove(StoreKey::edge(e))?;
    }
    for &v in &delta.vertex_upserts {
        b.put_vertex(v, &live.vertex_label(v))?;
    }
    for &e in &delta.edge_upserts {
        b.put_edge_row(e, live.phi_bank(), live.tree_child_interval(e))?;
    }
    Ok(b.freeze())
}

/// Freezes the complete current state of a live labeling into a store
/// over the graph's whole id space (dead ids stay absent), copying edge
/// rows straight out of its `φ` bank.
///
/// # Errors
///
/// Never fails for a consistent live labeling; a label the builder
/// refuses is returned as its error.
pub fn full_store_of(
    live: &LiveCycleSpace,
    config: &EngineConfig,
) -> Result<LabelStore, StoreError> {
    let g = live.graph();
    let mut b = LabelStoreBuilder::new(
        g.num_vertices(),
        g.num_edges(),
        live.bits(),
        config.num_shards,
    );
    for v in live.alive_vertices() {
        b.put_vertex(v, &live.vertex_label(v))?;
    }
    for e in live.alive_edges() {
        b.put_edge_row(e, live.phi_bank(), live.tree_child_interval(e))?;
    }
    Ok(b.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl_graph::generators;

    fn live_store(g: &Graph) -> LiveStore {
        LiveStore::new(g, 4, Seed::new(0xE50), EngineConfig::default()).unwrap()
    }

    #[test]
    fn epochs_start_at_one_and_increase() {
        let g = generators::grid(4, 4);
        let mut ls = live_store(&g);
        assert_eq!(ls.epochs().current().number(), 1);
        let nt = ls
            .live()
            .alive_edges()
            .find(|&e| !ls.live().edge_label(e).is_tree)
            .unwrap();
        let report = ls.remove_edge(nt).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(ls.epochs().current().number(), 2);
        assert!(matches!(report.path, SwapPath::Delta { removals: 1, .. }));
    }

    #[test]
    fn failed_removal_publishes_nothing() {
        let g = generators::path(5);
        let mut ls = live_store(&g);
        let uid = ls.epochs().current().store().uid();
        assert!(ls.remove_edge(EdgeId::new(0)).is_err()); // bridge
        assert_eq!(ls.epochs().current().number(), 1);
        assert_eq!(ls.epochs().current().store().uid(), uid);
    }

    #[test]
    fn batch_with_only_skips_keeps_epoch() {
        let g = generators::path(5);
        let mut ls = live_store(&g);
        let (report, skipped) = ls
            .remove_edges(&[EdgeId::new(0), EdgeId::new(1), EdgeId::new(2)])
            .unwrap();
        assert_eq!(skipped.len(), 3, "every path edge is a bridge");
        assert_eq!(report.epoch, 1);
        assert_eq!(
            report.path,
            SwapPath::Delta {
                upserts: 0,
                removals: 0
            }
        );
    }

    #[test]
    fn old_epoch_survives_while_pinned() {
        let g = generators::complete(6);
        let mut ls = live_store(&g);
        let pinned = ls.epochs().current();
        let pinned_len = pinned.store().len();
        ls.remove_edge(EdgeId::new(0)).unwrap();
        ls.remove_vertex(VertexId::new(5)).unwrap();
        // The pinned snapshot still serves its full original content,
        // shards the swaps replaced included.
        assert_eq!(pinned.store().len(), pinned_len);
        assert!(pinned.store().has_edge(EdgeId::new(0)));
        assert!(pinned.store().vertex_anc(VertexId::new(5)).is_some());
        // The current one does not.
        let current = ls.epochs().current();
        assert!(!current.store().has_edge(EdgeId::new(0)));
        assert!(current.store().vertex_anc(VertexId::new(5)).is_none());
        let replaced = (0..current.store().num_shards())
            .filter(|&i| !current.store().shares_shard_with(pinned.store(), i))
            .count();
        assert!(replaced >= 1, "the swaps replaced no shard");
    }

    #[test]
    fn delta_swap_splices_most_shards() {
        let g = generators::grid(10, 10);
        let mut ls = live_store(&g);
        let before = ls.epochs().current();
        let nt = ls
            .live()
            .alive_edges()
            .find(|&e| !ls.live().edge_label(e).is_tree)
            .unwrap();
        ls.remove_edge(nt).unwrap();
        let after = ls.epochs().current();
        let shared = (0..after.store().num_shards())
            .filter(|&i| after.store().shares_shard_with(before.store(), i))
            .count();
        // A non-tree removal dirties only its fundamental-cycle tree path;
        // with 16 shards and a handful of touched records, at least one
        // shard is shared (in practice most are) and at least one copied.
        assert!(shared >= 1, "no shard was shared");
        assert!(shared < after.store().num_shards(), "no shard was copied");
        assert_ne!(after.store().uid(), before.store().uid());
    }

    #[test]
    fn rebuild_publishes_full_path() {
        let g = generators::grid(4, 4);
        let mut ls = live_store(&g);
        let report = ls.rebuild().unwrap();
        assert_eq!(report.path, SwapPath::FullRebuild);
        assert_eq!(report.epoch, 2);
        assert!(ls.measure_full_rebuild_ns().unwrap() > 0);
        // measure_full_rebuild_ns publishes nothing.
        assert_eq!(ls.epochs().current().number(), 2);
    }
}
