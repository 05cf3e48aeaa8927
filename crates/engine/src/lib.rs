//! `ftl-engine` — the sharded, batch-decoding label-query engine.
//!
//! The labeling schemes of this workspace build compact labels; this crate
//! *serves* them. The pipeline is **store → batcher → decoder → cache**:
//!
//! * [`store`] — labels live as decoded columns (ancestry intervals, the
//!   `φ` bank, tree-child intervals) in a frozen [`LabelStore`], split by
//!   id range into copy-on-write shards; reads are pure `&self` lookups,
//!   so any number of query threads can share the store lock-free. Wire
//!   records ([`ftl_labels::wire`]) enter only through the builder's
//!   import, which refuses what it cannot place.
//! * [`batch`] — queries arrive grouped by fault set ([`FaultSetBatch`]).
//!   Each distinct fault set pays **one** GF(2) elimination, which yields
//!   the null-space generators of its `φ` columns; every query is then a
//!   handful of ancestry checks plus one AND-popcount parity test per
//!   generator ([`EliminatedFaultSet`]).
//! * [`cache`] — eliminated bases are kept in an [`LruCache`] keyed by the
//!   canonical fault-set hash, so recurring fault sets (the common case:
//!   faults change rarely, queries arrive constantly) skip elimination
//!   entirely.
//! * [`engine`] — one [`Engine`] per serving thread, with one entry point,
//!   [`Engine::execute_grouped_into`]; each group runs under
//!   `catch_unwind`, so a panic fails only its own group.
//! * [`scenario`] — the live-churn driver ([`run_churn_scenario`]): rounds
//!   of structural removals through a [`LiveStore`], with every answer of
//!   an epoch-following [`Engine`] checked against BFS ground truth.
//!
//! The failure-mode catalogue (epoch swaps mid-batch, contained panics,
//! corrupted labels) is `docs/robustness.md`; the network front end that
//! feeds this engine batched queries is documented in `docs/serving.md`.

#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod engine;
pub mod epoch;
pub mod inject;
pub mod scenario;
pub mod store;

pub use batch::{canonical_fault_hash, ConnQuery, EliminatedFaultSet};
pub use cache::LruCache;
pub use engine::{
    store_from_cycle_space, BatchRequest, BatchResponse, BatchStats, Engine, EngineConfig,
    EngineError, FaultSetBatch, GroupQueryResult, GroupResult, GroupedResponse, QueryResult,
};
pub use epoch::{full_store_of, Epoch, EpochStore, LiveStore, SwapPath, SwapReport};
pub use inject::{
    corrupt_random_bytes, flip_random_bits, oversize_declared_bits, plan_edge_removals,
    plan_vertex_removals, truncate_record, RemovalModel,
};
pub use scenario::{
    percentile_nearest_rank, run_churn_scenario, ChurnConfig, ChurnReport, ChurnRoundReport,
};
pub use store::{LabelStore, LabelStoreBuilder, Namespace, StoreError, StoreKey};
