//! The query engine: store → batcher → decoder → cache.
//!
//! An [`Engine`] serves connectivity queries grouped by fault set
//! ([`FaultSetBatch`]) over a frozen [`LabelStore`] of cycle-space
//! labels. Each group's fault set is eliminated **once** (or
//! fetched from the LRU cache of eliminated bases, keyed by the canonical
//! fault-set hash); each query then costs ancestry compares plus a parity
//! test — see [`crate::batch`] for the math.
//!
//! # One entry point
//!
//! [`Engine::execute_grouped_into`] is the engine: it refills a
//! caller-owned [`GroupedResponse`], isolating failures per group and per
//! query. [`Engine::execute_grouped`] (fresh response) and
//! [`Engine::execute`] (an indexed [`BatchRequest`], regrouped by fault
//! set) are thin conversions onto it. Parallelism lives above the engine:
//! any number of engines share one store behind an `Arc`, one per thread.
//!
//! # The zero-decode hot path
//!
//! The [`LabelStore`] holds every label as decoded columns, so serving
//! never decodes: vertex lookups are array reads of ancestry intervals,
//! and elimination (on cache miss) streams `φ` columns straight out of
//! the store's contiguous bank. A vertex or edge the store does not hold
//! fails only the queries or fault sets that name it, with
//! [`StoreError::Missing`].
//!
//! # Panic containment
//!
//! Each group runs under `catch_unwind`. A panic fails only that group, as
//! [`EngineError::Panicked`]; the serving core (cache and scratch, which
//! the unwind may have left half-updated) is rebuilt before the next group,
//! and the caller's thread survives.

use crate::batch::{canonical_fault_hash, ConnQuery, EliminatedFaultSet, EliminationScratch};
use crate::cache::LruCache;
use crate::store::{LabelStore, LabelStoreBuilder, StoreError, StoreKey};
use ftl_cycle_space::CycleSpaceScheme;
use ftl_gf2::BitVec;
use ftl_graph::{EdgeId, VertexId};
use ftl_labels::AncestryLabel;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Engine tuning knobs.
#[derive(Debug, Copy, Clone)]
pub struct EngineConfig {
    /// Most shards a store is split into: the unit a delta freeze copies.
    pub num_shards: usize,
    /// Capacity of the eliminated-basis LRU cache (0 disables caching).
    pub cache_capacity: usize,
    /// Whether disconnected results carry the cut certificate `F′`
    /// (costs one small allocation per disconnected query).
    pub collect_certificates: bool,
    /// Chaos hook: panic while resolving any fault set containing this
    /// edge. Exercises the engine's per-group panic containment
    /// (`catch_unwind` → [`EngineError::Panicked`]); `None` (the default)
    /// in all production configurations.
    pub chaos_panic_edge: Option<EdgeId>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_shards: 16,
            cache_capacity: 64,
            collect_certificates: false,
            chaos_panic_edge: None,
        }
    }
}

/// Why a group (or an indexed batch) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A query named a fault set index outside the request.
    UnknownFaultSet {
        /// The offending index.
        index: usize,
        /// How many fault sets the request carried.
        available: usize,
    },
    /// A vertex or edge the query names is not in the store.
    Store(StoreError),
    /// Serving the group panicked. The panic was contained at the group
    /// boundary: this group fails, the other groups keep their answers,
    /// and the engine's core is rebuilt before the next group.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownFaultSet { index, available } => {
                write!(f, "query names fault set {index}, request has {available}")
            }
            EngineError::Store(e) => write!(f, "label store: {e}"),
            EngineError::Panicked { message } => write!(f, "engine panicked: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// A batch of connectivity queries that name their fault sets by index —
/// the indexed form of a list of [`FaultSetBatch`]es.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// The fault sets of this batch (order and duplicates within a set are
    /// tolerated; sets are canonicalised internally).
    pub fault_sets: Vec<Vec<EdgeId>>,
    /// The queries, each naming its fault set by index.
    pub queries: Vec<ConnQuery>,
}

/// One query's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Whether `s` and `t` are connected in `G \ F` (w.h.p.).
    pub connected: bool,
    /// When disconnected and certificates are enabled: the disconnecting
    /// induced cut `F′ ⊆ F`, as edge ids.
    pub certificate: Option<Vec<EdgeId>>,
}

/// What one engine call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries answered (those of groups whose fault set resolved).
    pub queries: usize,
    /// Fault sets (groups) in the request.
    pub fault_sets: usize,
    /// Eliminations actually run (fault sets that missed the cache).
    pub eliminations: usize,
    /// Fault sets served from the cache.
    pub cache_hits: usize,
    /// The epoch this call was served against — 0 for engines over a
    /// fixed store, the [`crate::Epoch`] number for engines built with
    /// [`Engine::over_epochs`] (pinned for the whole call).
    pub epoch: u64,
}

/// An indexed batch's response: per-query results in request order, plus
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct BatchResponse {
    /// `results[i]` answers `queries[i]`.
    pub results: Vec<QueryResult>,
    /// Batch statistics.
    pub stats: BatchStats,
}

/// One pre-grouped unit of serving work: a fault set and the queries that
/// share it. This is the shape a batching front end (`ftl-server`) hands
/// the engine after grouping traffic by canonical fault-set hash — no
/// per-query fault-set indices to validate, one elimination per group by
/// construction. A group with no queries still resolves its fault set, so
/// a bad set is still rejected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSetBatch {
    /// The (not necessarily canonicalised) fault set shared by every query
    /// of this group.
    pub faults: Vec<EdgeId>,
    /// `(s, t)` connectivity queries against `G \ faults`.
    pub queries: Vec<(VertexId, VertexId)>,
}

/// One query's outcome inside a group: its answer, or the error that
/// failed *that query alone* (e.g. an out-of-range vertex id).
pub type GroupQueryResult = Result<QueryResult, EngineError>;

/// The outcome of one group: per-query outcomes in group order, or the
/// group-level error (an unresolvable fault set, a contained panic) that
/// failed the whole group.
pub type GroupResult = Result<Vec<GroupQueryResult>, EngineError>;

/// Response to a grouped execute: one [`GroupResult`] per submitted
/// [`FaultSetBatch`], in submission order.
///
/// Failures are isolated at the finest granularity the work allows. Per
/// **group**: a group whose fault set names a missing edge (or whose
/// serving panicked) fails alone, and every other group still gets its
/// answers. Per **query** within a group: a query naming an out-of-range
/// vertex fails alone ([`GroupQueryResult`]), and the group's other
/// queries still get their answers — the property a multi-tenant front end
/// needs, since one group can mix queries from many independent
/// connections.
///
/// Reusable: [`Engine::execute_grouped_into`] refills an existing response
/// and keeps the per-query vectors of its `Ok` groups, so a serving loop
/// that keeps one around allocates nothing once it has warmed up.
#[derive(Debug, Clone, Default)]
pub struct GroupedResponse {
    /// `groups[i]` answers `FaultSetBatch` `i`.
    pub groups: Vec<GroupResult>,
    /// Aggregate statistics across all groups.
    pub stats: BatchStats,
}

/// Serving state: the eliminated-basis cache and the elimination and decode
/// scratch. The core holds no store reference — the engine passes its
/// pinned store into every call — and is rebuilt wholesale after a
/// contained panic.
#[derive(Debug)]
struct EngineCore {
    config: EngineConfig,
    /// Eliminated bases keyed by the canonical fault-set hash **mixed with
    /// the store uid**, each entry also carrying the uid it was computed
    /// against. A basis is only ever a function of the store's `φ` bank,
    /// so a hit requires the uid to match — otherwise an epoch swap (same
    /// edge ids, different labels) could serve a stale basis.
    cache: LruCache<(u64, Arc<EliminatedFaultSet>)>,
    /// Scratch for the per-query `D(s, t)` vector.
    diff: BitVec,
    /// Scratch for canonicalising fault sets.
    ids_scratch: Vec<EdgeId>,
    /// Scratch for cold eliminations: the null-space kernel's buffers.
    elimination: EliminationScratch,
}

impl EngineCore {
    fn new(config: EngineConfig) -> Self {
        EngineCore {
            config,
            cache: LruCache::new(config.cache_capacity),
            diff: BitVec::zeros(0),
            ids_scratch: Vec::new(),
            elimination: EliminationScratch::default(),
        }
    }

    /// Resolves one fault set to its eliminated basis: canonicalise, probe
    /// the cache, eliminate from the store's `φ` bank on miss.
    fn resolve_fault_set(
        &mut self,
        store: &LabelStore,
        faults: &[EdgeId],
        stats: &mut BatchStats,
    ) -> Result<Arc<EliminatedFaultSet>, EngineError> {
        self.ids_scratch.clear();
        self.ids_scratch.extend_from_slice(faults);
        self.ids_scratch.sort_unstable();
        self.ids_scratch.dedup();
        if let Some(chaos) = self.config.chaos_panic_edge {
            if self.ids_scratch.contains(&chaos) {
                chaos_panic(chaos);
            }
        }
        // The store uid is folded into the hash so entries from different
        // epochs land in different slots instead of evicting each other,
        // and checked on hit so a stale epoch's basis (same ids, different
        // φ bank) can never be served.
        let uid = store.uid();
        let hash = canonical_fault_hash(&self.ids_scratch) ^ ftl_seeded::splitmix64(uid);
        if let Some((cached_uid, efs)) = self.cache.get(hash) {
            // Guard against 64-bit hash collisions between distinct fault
            // sets: a hit only counts if the canonical ids really match.
            // On a collision the sets simply keep re-eliminating (correct,
            // just slower) as the cache slot ping-pongs.
            if *cached_uid == uid && efs.edge_ids() == self.ids_scratch.as_slice() {
                stats.cache_hits += 1;
                return Ok(Arc::clone(efs));
            }
        }
        let ids = self.ids_scratch.clone();
        // Time the elimination itself (cold path: cache hits returned
        // above) into the process-wide Elimination stage histogram.
        let eliminate_t0 = std::time::Instant::now();
        let efs = EliminatedFaultSet::eliminate_with(ids, store, &mut self.elimination)?;
        ftl_obs::global().stages.record(
            ftl_obs::Stage::Elimination,
            eliminate_t0.elapsed().as_nanos() as u64,
        );
        let efs = Arc::new(efs);
        stats.eliminations += 1;
        self.cache.insert(hash, (uid, Arc::clone(&efs)));
        Ok(efs)
    }

    /// Serves one group into `out`: resolve the set once, answer its
    /// queries. Only a fault set that fails to resolve fails the group as a
    /// unit; a query that fails on its own (out-of-range vertex) carries
    /// its error in its slot without touching its neighbours.
    // ftl-analyzer: hot-path
    fn execute_group(
        &mut self,
        store: &LabelStore,
        group: &FaultSetBatch,
        out: &mut Vec<GroupQueryResult>,
        stats: &mut BatchStats,
    ) -> Result<(), EngineError> {
        // ftl-analyzer: allow(hot-alloc) only a cache miss allocates (one elimination per new fault set); a hit is an Arc clone
        let efs = self.resolve_fault_set(store, &group.faults, stats)?;
        out.clear();
        for &(s, t) in &group.queries {
            out.push(self.answer(store, &efs, s, t));
        }
        stats.queries += group.queries.len();
        Ok(())
    }

    /// Answers one query against its eliminated fault set — the zero-decode
    /// kernel: two ancestry lookups, one interval compare per tree fault,
    /// one AND-popcount per generator.
    // ftl-analyzer: hot-path
    #[inline]
    fn answer(
        &mut self,
        store: &LabelStore,
        efs: &EliminatedFaultSet,
        s: VertexId,
        t: VertexId,
    ) -> Result<QueryResult, EngineError> {
        let s_anc = vertex_anc(store, s)?;
        let t_anc = vertex_anc(store, t)?;
        let gen = efs.separating_generator_anc(&s_anc, &t_anc, &mut self.diff);
        Ok(QueryResult {
            connected: gen.is_none(),
            certificate: match gen {
                // ftl-analyzer: allow(hot-alloc) certificates are opt-in and only built for disconnected queries
                Some(g) if self.config.collect_certificates => efs.certificate(g),
                _ => None,
            },
        })
    }
}

/// The ancestry interval of `v`, or [`StoreError::Missing`].
// ftl-analyzer: hot-path
#[inline]
fn vertex_anc(store: &LabelStore, v: VertexId) -> Result<AncestryLabel, EngineError> {
    store
        .vertex_anc(v)
        .ok_or(EngineError::Store(StoreError::Missing(StoreKey::vertex(v))))
}

/// The sharded, batch-decoding label-query engine: one serving core
/// (cache + scratch) over one (shareable) frozen store.
///
/// Built with [`Engine::over_epochs`], the engine re-pins its store from
/// the [`EpochStore`](crate::EpochStore) at every call: a call always runs
/// against one consistent snapshot, and a concurrent epoch swap becomes
/// visible at the *next* call without the reader ever blocking.
pub struct Engine {
    store: Arc<LabelStore>,
    core: EngineCore,
    /// Publication point to re-pin from at call boundaries, when epoch-
    /// following; `None` for engines over a fixed store.
    epochs: Option<Arc<crate::epoch::EpochStore>>,
    /// Number of the currently pinned epoch (0 when fixed-store).
    epoch: u64,
}

impl Engine {
    /// Builds an engine over an already-frozen store.
    pub fn new(store: LabelStore, config: EngineConfig) -> Self {
        Engine::with_shared(Arc::new(store), config)
    }

    /// Builds an engine over a store already shared behind an `Arc` —
    /// e.g. the same store another thread's engine serves.
    pub fn with_shared(store: Arc<LabelStore>, config: EngineConfig) -> Self {
        Engine {
            store,
            core: EngineCore::new(config),
            epochs: None,
            epoch: 0,
        }
    }

    /// Builds an epoch-following engine: each call is served against the
    /// snapshot current at its start, re-pinned per call.
    pub fn over_epochs(epochs: Arc<crate::epoch::EpochStore>, config: EngineConfig) -> Self {
        let current = epochs.current();
        Engine {
            store: Arc::clone(current.store()),
            core: EngineCore::new(config),
            epochs: Some(epochs),
            epoch: current.number(),
        }
    }

    /// Re-pins the store from the epoch source, if following one. The
    /// stale-epoch cache guard lives in the core (keyed by store uid), so
    /// nothing needs flushing here.
    fn refresh_epoch(&mut self) {
        if let Some(epochs) = &self.epochs {
            let current = epochs.current();
            self.epoch = current.number();
            ftl_obs::global().epoch.pinned.set(self.epoch);
            if !Arc::ptr_eq(&self.store, current.store()) {
                self.store = Arc::clone(current.store());
            }
        }
    }

    /// The epoch the engine is currently pinned to (0 for fixed-store
    /// engines).
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Freezes every label of a cycle-space scheme into a store and serves
    /// it — the usual way to stand an engine up.
    ///
    /// # Errors
    ///
    /// As [`store_from_cycle_space`].
    pub fn from_cycle_space(
        scheme: &CycleSpaceScheme,
        config: EngineConfig,
    ) -> Result<Self, StoreError> {
        Ok(Engine::new(
            store_from_cycle_space(scheme, config.num_shards)?,
            config,
        ))
    }

    /// The underlying store.
    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    /// A shared handle to the store (for standing up further engines over
    /// the same frozen labels).
    pub fn shared_store(&self) -> Arc<LabelStore> {
        Arc::clone(&self.store)
    }

    /// Engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.core.config
    }

    /// Cache hits since construction (or since the last contained panic,
    /// which rebuilds the core).
    pub fn cache_hits(&self) -> u64 {
        self.core.cache.hits()
    }

    /// Cache misses since construction (or since the last contained
    /// panic).
    pub fn cache_misses(&self) -> u64 {
        self.core.cache.misses()
    }

    /// Serves pre-grouped fault-set batches into a caller-owned response —
    /// the engine's one entry point, and the shape `ftl-server` builds
    /// after grouping cross-connection traffic by canonical fault-set hash.
    ///
    /// Each group pays one elimination (or cache hit) and runs under
    /// `catch_unwind`; failures are isolated per group and per query (see
    /// [`GroupedResponse`]), so the call itself never fails. `out` is
    /// cleared and refilled: the per-query vectors of its `Ok` groups are
    /// reused, so a warmed, cache-hot serving loop performs zero heap
    /// allocations (asserted by the counting-allocator test
    /// `alloc_free.rs`, and lexically by `ftl-analyzer`'s hot-path rule).
    // ftl-analyzer: hot-path
    pub fn execute_grouped_into(&mut self, groups: &[FaultSetBatch], out: &mut GroupedResponse) {
        self.refresh_epoch();
        out.stats = BatchStats {
            fault_sets: groups.len(),
            epoch: self.epoch,
            ..BatchStats::default()
        };
        out.groups.truncate(groups.len());
        // ftl-analyzer: allow(hot-alloc) grows the reused response to its high-water group count
        out.groups.resize_with(groups.len(), || Ok(Vec::new()));
        let GroupedResponse {
            groups: slots,
            stats,
        } = out;
        for (group, slot) in groups.iter().zip(slots.iter_mut()) {
            let mut answers = match slot {
                Ok(reused) => std::mem::take(reused),
                // ftl-analyzer: allow(hot-alloc) a previously failed slot restarts empty
                Err(_) => Vec::new(),
            };
            let (core, store) = (&mut self.core, &self.store);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                core.execute_group(store, group, &mut answers, stats)
            }));
            *slot = match outcome {
                Ok(Ok(())) => Ok(answers),
                Ok(Err(e)) => Err(e),
                Err(payload) => {
                    // The unwind may have left the cache or scratch
                    // half-updated: start the next group on a fresh core.
                    self.core = EngineCore::new(self.core.config);
                    // ftl-analyzer: allow(hot-alloc) panic path only
                    Err(panicked(payload.as_ref()))
                }
            };
        }
        record_obs_batch(stats);
    }

    /// [`Engine::execute_grouped_into`] into a fresh response.
    pub fn execute_grouped(&mut self, groups: &[FaultSetBatch]) -> GroupedResponse {
        let mut out = GroupedResponse::default();
        self.execute_grouped_into(groups, &mut out);
        out
    }

    /// Serves an indexed batch: its fault sets become groups (a set no
    /// query references becomes a zero-query group, so a bad set is still
    /// rejected), and the answers come back in request order.
    ///
    /// # Errors
    ///
    /// Fails as a whole if a query names a fault set the request does not
    /// carry, if any fault set fails to resolve (first in request order),
    /// or if any query fails (first in request order).
    pub fn execute(&mut self, req: &BatchRequest) -> Result<BatchResponse, EngineError> {
        let available = req.fault_sets.len();
        let unknown = |index| EngineError::UnknownFaultSet { index, available };
        let mut groups: Vec<FaultSetBatch> = req
            .fault_sets
            .iter()
            .map(|faults| FaultSetBatch {
                faults: faults.clone(),
                queries: Vec::new(),
            })
            .collect();
        for q in &req.queries {
            let group = groups
                .get_mut(q.fault_set)
                .ok_or_else(|| unknown(q.fault_set))?;
            group.queries.push((q.s, q.t));
        }
        let resp = self.execute_grouped(&groups);
        let mut answers = Vec::with_capacity(resp.groups.len());
        for group in resp.groups {
            answers.push(group?.into_iter());
        }
        let mut results = Vec::with_capacity(req.queries.len());
        for q in &req.queries {
            let answer = answers
                .get_mut(q.fault_set)
                .and_then(Iterator::next)
                .ok_or_else(|| unknown(q.fault_set))?;
            results.push(answer?);
        }
        Ok(BatchResponse {
            results,
            stats: resp.stats,
        })
    }
}

/// The chaos-injection hook: the whole point is to panic, exercising the
/// per-group catch_unwind containment. Never reached in production
/// configs. A fn of its own so the `panic` allow covers this one site and
/// `panic_in_result_fn` still guards the `Result` fn that calls it.
#[cold]
#[allow(clippy::panic)]
fn chaos_panic(edge: EdgeId) -> ! {
    panic!(
        "chaos: injected panic resolving fault set containing edge {}",
        edge.index()
    );
}

/// A contained panic as a typed error, keeping the payload text when there
/// is one.
fn panicked(payload: &(dyn std::any::Any + Send)) -> EngineError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    EngineError::Panicked { message }
}

/// Folds one call's counters into the process-wide engine metrics —
/// three relaxed atomic adds per *call* (not per query), off the
/// per-query hot loop.
// ftl-analyzer: hot-path
#[inline]
fn record_obs_batch(stats: &BatchStats) {
    ftl_obs::global().engine.record_batch(
        stats.queries as u64,
        stats.eliminations as u64,
        stats.cache_hits as u64,
    );
}

/// Freezes every label of a cycle-space scheme into a store of at most
/// `num_shards` shards.
///
/// # Errors
///
/// Never fails for a well-formed scheme; a label the builder refuses
/// (see [`LabelStoreBuilder::put_edge`]) is returned as its error.
pub fn store_from_cycle_space(
    scheme: &CycleSpaceScheme,
    num_shards: usize,
) -> Result<LabelStore, StoreError> {
    let mut builder = LabelStoreBuilder::new(
        scheme.num_vertices(),
        scheme.num_edges(),
        scheme.bits_b(),
        num_shards,
    );
    for i in 0..scheme.num_vertices() {
        let v = VertexId::new(i);
        builder.put_vertex(v, &scheme.vertex_label(v))?;
    }
    for i in 0..scheme.num_edges() {
        let e = EdgeId::new(i);
        builder.put_edge(e, &scheme.edge_label(e))?;
    }
    Ok(builder.freeze())
}
