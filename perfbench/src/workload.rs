//! The three workloads, the system set-up they share, and the seeded
//! request content both the generator and the audit derive from.

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{
    inject::{plan_edge_removals, RemovalModel},
    store_from_cycle_space, EngineConfig, EpochStore, LiveStore,
};
use ftl_graph::{EdgeId, Graph, VertexId};
use ftl_seeded::{splitmix64, DetHashSet, Seed};
use ftl_server::{derive_fault_sets, parse_graph_spec, Server, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Topology every workload serves.
pub const GRAPH_SPEC: &str = "er:1024:8";
/// Connectivity queries carried by one request.
pub const QUERIES_PER_REQUEST: usize = 16;
/// Client connections (and generator threads): the box's `nproc`.
pub const CONNECTIONS: usize = 2;

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Each connection keeps `inflight` pipelined requests outstanding and
    /// sends the next one as soon as a response arrives.
    Closed { inflight: usize },
    /// Requests are due on a fixed schedule, `rate` per second across all
    /// connections, whether or not earlier ones were answered.
    Open { rate: f64 },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    /// The `f` the labels are built for.
    pub label_f: usize,
    /// Size of the fault-set vocabulary requests draw from.
    pub fault_sets: usize,
    /// Faults per set.
    pub faults_per_set: usize,
    pub load: Load,
    /// Whether requests are served from the live store the churn writer
    /// mutates. Otherwise the server reads a static store and the writer
    /// works on a twin live store no request reads, so swaps are still
    /// timed under the workload's load without invalidating its caches.
    pub live: bool,
}

/// Period of the server-side writer's one-edge removals.
pub const CHURN_EVERY: Duration = Duration::from_millis(20);

pub const WORKLOADS: [Shape; 3] = [
    Shape {
        name: "hot-closed",
        label_f: 4,
        fault_sets: 8,
        faults_per_set: 4,
        load: Load::Closed { inflight: 32 },
        live: false,
    },
    Shape {
        name: "cold-closed",
        label_f: 128,
        fault_sets: 4096,
        faults_per_set: 128,
        load: Load::Closed { inflight: 32 },
        live: false,
    },
    Shape {
        name: "churn-open",
        label_f: 4,
        fault_sets: 8,
        faults_per_set: 4,
        load: Load::Open { rate: 4000.0 },
        live: true,
    },
];

pub fn shape(name: &str) -> Option<Shape> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Seeds of the independent input streams, all derived from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub graph: u64,
    pub labels: u64,
    pub vocabulary: u64,
    pub requests: u64,
    pub removals: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Self {
        let mix = |salt: u64| splitmix64(seed ^ salt);
        Seeds {
            graph: mix(0x6A09_E667_F3BC_C908),
            labels: mix(0xBB67_AE85_84CA_A73B),
            vocabulary: mix(0x3C6E_F372_FE94_F82B),
            requests: mix(0xA54F_F53A_5F1D_36F1),
            removals: mix(0x510E_527F_ADE6_82D1),
        }
    }
}

/// A running system: the served graph, the server, and the live store the
/// churn writer mutates (served on live workloads, a twin otherwise).
pub struct Deployed {
    pub graph: Graph,
    pub handle: ServerHandle,
    pub epochs: Arc<EpochStore>,
    pub live: LiveStore,
}

/// Graph → labels → freeze → spawn, with the same defaults a production
/// `ftl-serve` uses. Returns once the listener is bound and accepting, and
/// the time that took in seconds. The twin live store of a static
/// workload is built after the clock stops.
pub fn deploy(shape: &Shape, seeds: &Seeds) -> Result<(Deployed, f64), String> {
    let t0 = Instant::now();
    let graph = parse_graph_spec(GRAPH_SPEC, seeds.graph)?;
    let config = EngineConfig::default();
    let live_store = || {
        LiveStore::new(&graph, shape.label_f, Seed::new(seeds.labels), config)
            .map_err(|e| format!("live store: {e}"))
    };
    let (epochs, live) = if shape.live {
        let live = live_store()?;
        (Arc::clone(live.epochs()), Some(live))
    } else {
        let scheme = CycleSpaceScheme::label(&graph, shape.label_f, Seed::new(seeds.labels))
            .map_err(|e| format!("label: {e}"))?;
        let store = store_from_cycle_space(&scheme, config.num_shards)
            .map_err(|e| format!("freeze: {e}"))?;
        (Arc::new(EpochStore::new(Arc::new(store))), None)
    };
    let handle = Server::spawn(
        Arc::clone(&epochs),
        config,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("spawn server: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let live = match live {
        Some(l) => l,
        None => live_store()?,
    };
    Ok((
        Deployed {
            graph,
            handle,
            epochs,
            live,
        },
        secs,
    ))
}

/// Times one throw-away deployment.
pub fn time_setup(shape: &Shape, seeds: &Seeds) -> Result<f64, String> {
    let (d, secs) = deploy(shape, seeds)?;
    d.handle.shutdown();
    Ok(secs)
}

/// The fault-set vocabulary, each set sorted (the canonical order).
pub fn vocabulary(graph: &Graph, shape: &Shape, seeds: &Seeds) -> Vec<Vec<EdgeId>> {
    let mut sets = derive_fault_sets(
        graph,
        shape.fault_sets,
        shape.faults_per_set,
        seeds.vocabulary,
    );
    for s in &mut sets {
        s.sort_unstable();
    }
    sets
}

/// Edges the churn writer removes, in order: a seeded random plan over the
/// live edges, disjoint from every fault set so the vocabulary stays
/// valid in every epoch.
pub fn removal_plan(
    live: &LiveStore,
    sets: &[Vec<EdgeId>],
    count: usize,
    seed: u64,
) -> Vec<EdgeId> {
    let vocab: DetHashSet<EdgeId> = sets.iter().flatten().copied().collect();
    let mut plan = plan_edge_removals(
        live.live(),
        count + vocab.len(),
        RemovalModel::Random,
        Seed::new(seed),
    );
    plan.retain(|e| !vocab.contains(e));
    plan.truncate(count);
    plan
}

/// The content of request `seq` on connection `conn`: the index of its
/// fault set and its `(s, t)` queries. A pure function of its arguments,
/// so the audit regenerates exactly what was sent.
pub fn request_content(
    seed: u64,
    conn: usize,
    seq: u64,
    num_sets: usize,
    num_vertices: usize,
    queries: &mut Vec<(VertexId, VertexId)>,
) -> usize {
    let mut st = splitmix64(seed ^ ((conn as u64) << 56) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let set = (st % num_sets.max(1) as u64) as usize;
    let n = num_vertices.max(1) as u64;
    queries.clear();
    for _ in 0..QUERIES_PER_REQUEST {
        st = splitmix64(st);
        let s = (st % n) as usize;
        st = splitmix64(st);
        let t = (st % n) as usize;
        queries.push((VertexId::new(s), VertexId::new(t)));
    }
    set
}
