//! Per-layer replays for the traced run: each layer's public entry point
//! timed from the outside, on the workload's own graph, labels and fault
//! sets. Nothing inside the program is instrumented for these.

use crate::report::{median, Metrics};
use crate::workload::{request_content, Seeds, Shape, QUERIES_PER_REQUEST};
use ftl_cycle_space::{CycleSpaceScheme, LiveCycleSpace};
use ftl_engine::{
    full_store_of, store_from_cycle_space, EliminatedFaultSet, Engine, EngineConfig, FaultSetBatch,
    LabelStore,
};
use ftl_gf2::{Basis, BitVec, DecodeScratch};
use ftl_graph::{EdgeId, Graph};
use ftl_labels::wire::WireLabel;
use ftl_seeded::{splitmix64, DetHashMap, Seed};
use ftl_server::{derive_fault_sets, QueryRequestFrame, QueryResponseFrame, ResponseStatus};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault sets (of the workload's vocabulary) each replay samples.
const SAMPLE_SETS: usize = 256;
/// Fault-set sizes of the elimination sweep.
const SWEEP_F: [usize; 4] = [4, 16, 64, 128];

/// Nanoseconds per operation: `run` returns how many operations it did;
/// it is repeated for `budget`, five times, and the median is kept.
fn ns_per_op(budget: Duration, mut run: impl FnMut() -> u64) -> f64 {
    let mut rounds = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut ops = 0u64;
        while t0.elapsed() < budget {
            ops += run();
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&mut rounds)
}

fn phi_columns(store: &LabelStore, set: &[EdgeId]) -> Result<Vec<BitVec>, String> {
    set.iter()
        .map(|&e| {
            let mut col = BitVec::zeros(0);
            store
                .sidecar()
                .read_phi_into(e, &mut col)
                .then_some(col)
                .ok_or_else(|| format!("edge {} has no decoded label", e.index()))
        })
        .collect()
}

/// What the replays need from the run.
pub struct Replay<'a> {
    pub graph: &'a Graph,
    pub shape: &'a Shape,
    pub seeds: &'a Seeds,
    pub sets: &'a [Vec<EdgeId>],
    pub store: Arc<LabelStore>,
    /// Requests per window the server formed during the measured phase.
    pub requests_per_window: f64,
}

impl Replay<'_> {
    pub fn run(&self, m: &mut Metrics) -> Result<(), String> {
        let sample = &self.sets[..self.sets.len().min(SAMPLE_SETS)];
        self.gf2(sample, m)?;
        self.preprocessing(m)?;
        self.elimination(sample, m)?;
        self.grouped(m);
        self.frames(m);
        Ok(())
    }

    fn gf2(&self, sample: &[Vec<EdgeId>], m: &mut Metrics) -> Result<(), String> {
        let columns: Vec<Vec<BitVec>> = sample
            .iter()
            .map(|s| phi_columns(&self.store, s))
            .collect::<Result<_, _>>()?;
        let b = self.store.sidecar().phi_width();
        let mut basis = Basis::new(b, self.shape.faults_per_set);
        let mut scratch = DecodeScratch::new();
        let insert = ns_per_op(Duration::from_millis(20), || {
            let mut ops = 0;
            for cols in &columns {
                basis.reset(b, cols.len());
                for c in cols {
                    black_box(basis.insert_with(black_box(c), &mut scratch));
                }
                ops += cols.len() as u64;
            }
            ops
        });
        m.put("gf2.basis_insert_ns", insert, "ns");
        let and_popcount = ns_per_op(Duration::from_millis(20), || {
            let mut ops = 0;
            for cols in &columns {
                for (i, a) in cols.iter().enumerate() {
                    for c in &cols[i + 1..] {
                        black_box(black_box(a).count_ones_and(black_box(c)));
                        ops += 1;
                    }
                }
            }
            ops
        });
        m.put("gf2.and_popcount_ns", and_popcount, "ns");
        Ok(())
    }

    /// Labeling and freezing, each timed on its own (median of three), on
    /// the path the workload's set-up takes.
    fn preprocessing(&self, m: &mut Metrics) -> Result<(), String> {
        let config = EngineConfig::default();
        let (f, seed) = (self.shape.label_f, Seed::new(self.seeds.labels));
        let (mut label, mut freeze) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t0 = Instant::now();
            if self.shape.live {
                let live = LiveCycleSpace::new(self.graph, f, seed).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                black_box(full_store_of(&live, &config).map_err(|e| e.to_string())?);
                freeze.push(t1.elapsed().as_secs_f64() * 1e3);
                label.push((t1 - t0).as_secs_f64() * 1e3);
            } else {
                let scheme =
                    CycleSpaceScheme::label(self.graph, f, seed).map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                black_box(
                    store_from_cycle_space(&scheme, config.num_shards)
                        .map_err(|e| e.to_string())?,
                );
                freeze.push(t1.elapsed().as_secs_f64() * 1e3);
                label.push((t1 - t0).as_secs_f64() * 1e3);
            }
        }
        m.put("cycle_space.label_ms", median(&mut label), "ms");
        m.put("engine.freeze_ms", median(&mut freeze), "ms");
        m.put(
            "engine.store_bytes",
            self.store.bytes_total() as f64,
            "bytes",
        );
        Ok(())
    }

    fn elimination(&self, sample: &[Vec<EdgeId>], m: &mut Metrics) -> Result<(), String> {
        m.put(
            "engine.eliminate_us",
            eliminate_us(&self.store, sample)?,
            "us",
        );
        for f in SWEEP_F {
            let scheme = CycleSpaceScheme::label(self.graph, f, Seed::new(self.seeds.labels))
                .map_err(|e| e.to_string())?;
            let store = store_from_cycle_space(&scheme, EngineConfig::default().num_shards)
                .map_err(|e| e.to_string())?;
            let mut sets = derive_fault_sets(
                self.graph,
                32,
                f,
                splitmix64(self.seeds.vocabulary ^ f as u64),
            );
            for s in &mut sets {
                s.sort_unstable();
            }
            m.put(
                format!("engine.eliminate_us_f{f}"),
                eliminate_us(&store, &sets)?,
                "us",
            );
        }

        // Answering: the workload's own (s, t) pairs against its own
        // eliminated fault sets.
        let eliminated: Vec<EliminatedFaultSet> = sample
            .iter()
            .take(64)
            .map(|s| EliminatedFaultSet::eliminate_from_sidecar(s.clone(), self.store.sidecar()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let sidecar = self.store.sidecar();
        let n = self.graph.num_vertices();
        let mut queries = Vec::new();
        let mut work = Vec::with_capacity(4096);
        for seq in 0..4096 / QUERIES_PER_REQUEST as u64 {
            request_content(
                self.seeds.requests,
                7,
                seq,
                eliminated.len(),
                n,
                &mut queries,
            );
            let set = (seq as usize) % eliminated.len().max(1);
            for &(s, t) in &queries {
                let (Some(a), Some(b)) = (sidecar.vertex_anc(s), sidecar.vertex_anc(t)) else {
                    return Err(format!("vertex {} has no decoded label", s.index()));
                };
                work.push((set, a, b));
            }
        }
        let mut diff = BitVec::zeros(0);
        let answer = ns_per_op(Duration::from_millis(20), || {
            for (set, a, b) in &work {
                black_box(eliminated[*set].separating_generator_anc(a, b, &mut diff));
            }
            work.len() as u64
        });
        m.put("engine.answer_ns", answer, "ns");
        Ok(())
    }

    /// `Engine::execute_grouped` on windows shaped like the server's: the
    /// same number of requests per window, grouped by fault set. Hot: a
    /// window re-executed right after itself (every set cached). Cold: the
    /// same window with every set replaced by one never seen before.
    fn grouped(&self, m: &mut Metrics) {
        const WINDOWS: usize = 64;
        let per_window = self.requests_per_window.round().max(1.0) as usize;
        let n = self.graph.num_vertices();
        let mut queries = Vec::new();
        let windows: Vec<Vec<FaultSetBatch>> = (0..WINDOWS)
            .map(|w| {
                let mut groups: Vec<FaultSetBatch> = Vec::new();
                let mut by_set: DetHashMap<usize, usize> = DetHashMap::default();
                for r in 0..per_window {
                    let seq = (w * per_window + r) as u64;
                    let set = request_content(
                        self.seeds.requests,
                        6,
                        seq,
                        self.sets.len(),
                        n,
                        &mut queries,
                    );
                    let gi = *by_set.entry(set).or_insert_with(|| {
                        groups.push(FaultSetBatch {
                            faults: self.sets[set].clone(),
                            queries: Vec::new(),
                        });
                        groups.len() - 1
                    });
                    groups[gi].queries.extend_from_slice(&queries);
                }
                groups
            })
            .collect();
        let total_groups: usize = windows.iter().map(Vec::len).sum();
        let mut fresh = derive_fault_sets(
            self.graph,
            total_groups,
            self.shape.faults_per_set,
            splitmix64(self.seeds.vocabulary ^ 0xC01D),
        )
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s
        });
        let cold_windows: Vec<Vec<FaultSetBatch>> = windows
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .zip(&mut fresh)
                    .map(|(g, faults)| FaultSetBatch {
                        faults,
                        queries: g.queries.clone(),
                    })
                    .collect()
            })
            .collect();

        let mut engine = Engine::with_shared(Arc::clone(&self.store), EngineConfig::default());
        let (mut hot, mut cold) = (Vec::new(), Vec::new());
        for (w, cw) in windows.iter().zip(&cold_windows) {
            black_box(engine.execute_grouped(w));
            let t0 = Instant::now();
            black_box(engine.execute_grouped(w));
            hot.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            black_box(engine.execute_grouped(cw));
            cold.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        m.put("engine.grouped_hot_us", median(&mut hot), "us");
        m.put("engine.grouped_cold_us", median(&mut cold), "us");
    }

    fn frames(&self, m: &mut Metrics) {
        let n = self.graph.num_vertices();
        let mut queries = Vec::new();
        let records: Vec<Vec<u8>> = (0..256u64)
            .map(|seq| {
                let set = request_content(
                    self.seeds.requests,
                    5,
                    seq,
                    self.sets.len(),
                    n,
                    &mut queries,
                );
                QueryRequestFrame {
                    request_id: seq,
                    tenant_id: 0,
                    faults: self.sets[set].clone(),
                    queries: queries.clone(),
                    ttl_ms: 0,
                }
                .to_wire()
            })
            .collect();
        let decode = ns_per_op(Duration::from_millis(20), || {
            for r in &records {
                black_box(QueryRequestFrame::from_wire(black_box(r)).is_ok());
            }
            records.len() as u64
        });
        m.put("server.frame_decode_ns", decode, "ns");
        let response = QueryResponseFrame {
            request_id: 1,
            epoch: 1,
            status: ResponseStatus::Ok(vec![true; QUERIES_PER_REQUEST]),
        };
        let encode = ns_per_op(Duration::from_millis(20), || {
            for _ in 0..256 {
                black_box(black_box(&response).to_wire());
            }
            256
        });
        m.put("server.frame_encode_ns", encode, "ns");
    }
}

/// Median µs per `eliminate_from_sidecar` over `sets`.
fn eliminate_us(store: &LabelStore, sets: &[Vec<EdgeId>]) -> Result<f64, String> {
    let mut per_set = Vec::with_capacity(sets.len());
    for s in sets {
        // Enough repetitions to lift a 4-fault elimination well above the
        // clock's resolution.
        let reps = (4096 / s.len().max(1)).max(8);
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(
                EliminatedFaultSet::eliminate_from_sidecar(s.clone(), store.sidecar())
                    .map_err(|e| e.to_string())?,
            );
        }
        per_set.push(t0.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    Ok(median(&mut per_set))
}
