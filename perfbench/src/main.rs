//! `ftl-perfbench` — one layer-attributed benchmark of the serving stack.
//!
//! Spawns an in-process `ftl_server::Server` with default configuration
//! over labels for `er:1024:8`, drives it over loopback with a pipelined
//! two-thread generator, audits every answer against BFS, and prints one
//! JSON result line. See `README.md` beside this package for the
//! workloads, metrics, and how to run it.
//!
//! ```text
//! ftl-perfbench --workload <hot-closed|cold-closed|churn-open> --seed <n>
//!               --seconds <s> --trace <0|1> [--commit <sha>]
//! ```

mod audit;
mod churn;
mod layers;
mod loadgen;
mod report;
mod workload;

use audit::{Audit, Item};
use loadgen::{ConnOut, Plan, Spans, ST_OK};
use report::{median, percentile, Metrics};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Deployed, Load, Seeds, Shape, CHURN_EVERY, CONNECTIONS, QUERIES_PER_REQUEST};

/// Set-ups timed before and after the load; `setup_s` is their median.
/// Timing some after the run spreads them over the run's span of time.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 4;
/// Load before the measured phase starts.
const WARMUP: Duration = Duration::from_millis(500);
/// How long in-flight requests may take to come back after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// The measured phase is cut into slices of about this length; latency
/// and goodput are reported as medians over the calmest quarter of them.
const SLICE: Duration = Duration::from_millis(250);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 6.0,
        trace: false,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--commit" => args.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Requests of the measured phase, by slice.
struct Slices {
    rtt_ns: Vec<Vec<u64>>,
    /// Correct queries answered in the slice, and the first and last
    /// instant (ns after `t0`) an answer arrived.
    delivered: Vec<(u64, u64, u64)>,
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let shape = workload::shape(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (want {})",
            args.workload,
            workload::WORKLOADS.map(|s| s.name).join(" | ")
        )
    })?;
    let seeds = Seeds::from(args.seed);
    print_env(args, &shape, &seeds);

    let mut setups = Vec::new();
    for _ in 0..SETUPS_BEFORE {
        setups.push(workload::time_setup(&shape, &seeds)?);
    }
    let (deployed, secs) = workload::deploy(&shape, &seeds)?;
    setups.push(secs);
    let Deployed {
        graph,
        handle,
        epochs,
        mut live,
    } = deployed;
    let sets = workload::vocabulary(&graph, &shape, &seeds);
    let initial_store = Arc::clone(epochs.current().store());
    let measure = Duration::from_secs_f64(args.seconds);
    let slices_n = ((measure.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(4);
    // A live workload's removals must leave its fault sets intact; a twin
    // store's need not (cold-closed's vocabulary covers almost every edge).
    let removal_plan = workload::removal_plan(
        &live,
        if shape.live { &sets } else { &[] },
        ((WARMUP + measure).as_nanos() / CHURN_EVERY.as_nanos()) as usize + 1,
        seeds.removals,
    );

    let t0 = Instant::now();
    let plan = Plan {
        addr: handle.local_addr(),
        t0,
        measure_from: t0 + WARMUP,
        send_until: t0 + WARMUP + measure,
        drain_until: t0 + WARMUP + measure + DRAIN,
        trace_slice: args.trace.then(|| measure / slices_n as u32),
        seed: seeds.requests,
        sets: &sets,
        num_vertices: graph.num_vertices(),
    };
    let (open_shared, mut open_halves) = match shape.load {
        Load::Open { rate } => {
            let (shared, readers, writers) = loadgen::open_connect(&plan, rate)?;
            (Some(shared), Some((readers, writers)))
        }
        Load::Closed { .. } => (None, None),
    };
    let (outs, lag, churn_log, scrapes, stats, cpu) = std::thread::scope(|scope| {
        let writer = {
            let (live, plan_edges, until) = (&mut live, &removal_plan, plan.send_until);
            scope.spawn(move || churn::run_writer(live, plan_edges, t0, CHURN_EVERY, until))
        };
        let handle = &handle;
        let plan = &plan;
        let generator: Generator = match (&open_shared, open_halves.take()) {
            (Some(shared), Some((readers, writers))) => Generator::Open(
                shared,
                scope.spawn(move || loadgen::open_send(plan, shared, writers)),
                scope.spawn(move || loadgen::open_receive(plan, shared, readers)),
            ),
            _ => {
                let Load::Closed { inflight } = shape.load else {
                    return Err("open loop without connections".to_string());
                };
                Generator::Closed(
                    (0..CONNECTIONS)
                        .map(|c| scope.spawn(move || loadgen::run_closed(plan, c, inflight)))
                        .collect(),
                )
            }
        };

        // The orchestrating thread only samples: the server (a scrape and a
        // stats snapshot) when the measured phase starts and when it ends,
        // and the machine's CPU accounting at every slice boundary.
        sleep_until(plan.measure_from);
        let before = (ftl_server::scrape_metrics(plan.addr), handle.stats());
        let mut cpu = vec![report::cpu_ticks()];
        for k in 1..=slices_n {
            sleep_until(plan.measure_from + measure * k as u32 / slices_n as u32);
            cpu.push(report::cpu_ticks());
        }
        let after = (ftl_server::scrape_metrics(plan.addr), handle.stats());

        let (outs, lag) = generator.join()?;
        let churn_log = writer.join().map_err(|_| "churn writer panicked")??;
        let scrapes = match (before.0, after.0) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return Err(format!("scrape: {e}")),
        };
        Ok::<_, String>((outs, lag, churn_log, scrapes, (before.1, after.1), cpu))
    })?;
    let final_stats = handle.shutdown();
    let rss_mb = report::rss_peak_mb();

    // ---- audit (off the timed path) -------------------------------------
    let removals = if shape.live {
        churn_log.removals()
    } else {
        Vec::new()
    };
    let auditor = Audit {
        graph: &graph,
        sets: &sets,
        removals: &removals,
        seed: seeds.requests,
    };
    let items: Vec<Item> = outs
        .iter()
        .enumerate()
        .flat_map(|(conn, o)| {
            o.recs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.status == ST_OK)
                .map(move |(seq, r)| Item {
                    conn,
                    seq: seq as u64,
                    epoch: r.epoch,
                    answers: r.answers,
                })
        })
        .collect();
    let bad = auditor.mismatches(&items);
    let mut mismatched: Vec<Vec<bool>> = outs.iter().map(|o| vec![false; o.recs.len()]).collect();
    for &i in &bad {
        mismatched[items[i].conn][items[i].seq as usize] = true;
    }
    let self_check = items.first().is_some_and(|&it| auditor.self_check(it));
    drop(items);

    // ---- end-to-end figures over the measured phase ---------------------
    let warm_us = WARMUP.as_micros() as u64;
    let measure_us = measure.as_micros() as u64;
    let slice_us = (measure_us / slices_n as u64).max(1);
    let mut slices = Slices {
        rtt_ns: vec![Vec::new(); slices_n],
        delivered: vec![(0, u64::MAX, 0); slices_n],
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rtt_sum_ns = 0f64;
    let mut rtt_count = 0u64;
    for (conn, o) in outs.iter().enumerate() {
        for (seq, r) in o.recs.iter().enumerate() {
            attempted += 1;
            if r.status != ST_OK || mismatched[conn][seq] {
                failed += 1;
                continue;
            }
            // Latency is binned by when a request was sent (or due),
            // goodput by when its answers arrived.
            let in_phase = |t: u64| t.checked_sub(warm_us).filter(|&d| d < measure_us);
            let slice = |d: u64| ((d / slice_us) as usize).min(slices_n - 1);
            let sent = r.sent_us as u64;
            let done_ns = sent * 1000 + r.rtt_ns as u64;
            if let Some(d) = in_phase(done_ns / 1000) {
                let (queries, first, last) = &mut slices.delivered[slice(d)];
                *queries += QUERIES_PER_REQUEST as u64;
                *first = (*first).min(done_ns);
                *last = (*last).max(done_ns);
            }
            if let Some(d) = in_phase(sent) {
                slices.rtt_ns[slice(d)].push(r.rtt_ns as u64);
                rtt_sum_ns += r.rtt_ns as f64;
                rtt_count += 1;
            }
        }
    }
    for s in &mut slices.rtt_ns {
        s.sort_unstable();
    }
    // Only the calmest quarter of the slices — those in which the hypervisor
    // stole the least CPU time from this machine — are reported: steal
    // comes and goes with other guests' load and inflates every latency
    // it overlaps. Ties go to pairs of slices (one untraced, one traced)
    // spread evenly over the run: on a quiet host every slice ties.
    let steal = report::steal_shares(&cpu);
    let mut by_steal: Vec<usize> = (0..slices_n).collect();
    by_steal.sort_by_key(|&i| (steal[i].to_bits(), i / 2 % 4, i));
    let calm_quarter = &by_steal[..slices_n.div_ceil(4)];
    let mut calm = vec![false; slices_n];
    for &i in calm_quarter {
        calm[i] = true;
    }
    let steal_pct = |slices: &[usize]| {
        100.0 * slices.iter().map(|&i| steal[i]).sum::<f64>() / slices.len() as f64
    };
    // In a traced run even slices are untraced and odd ones traced.
    let pick = |want_traced: Option<bool>, f: &dyn Fn(usize) -> f64| {
        let mut v: Vec<f64> = (0..slices_n)
            .filter(|&i| calm[i])
            .filter(|i| want_traced.is_none_or(|t| (i % 2 == 1) == t))
            .filter(|&i| !slices.rtt_ns[i].is_empty())
            .map(f)
            .collect();
        median(&mut v)
    };
    let p50 = |i: usize| percentile(&slices.rtt_ns[i], 0.50) as f64 / 1e6;
    let p99 = |i: usize| percentile(&slices.rtt_ns[i], 0.99) as f64 / 1e6;
    // Answers per second between a slice's first and last delivery.
    let goodput = |i: usize| {
        let (queries, first, last) = slices.delivered[i];
        let span_s = last.saturating_sub(first) as f64 / 1e9;
        queries.saturating_sub(QUERIES_PER_REQUEST as u64) as f64 / span_s.max(1e-9)
    };

    // ---- the write side -------------------------------------------------
    let (swap_from, swap_to) = (warm_us * 1000, (warm_us + measure_us) * 1000);
    let swap_p50_ms = churn::swap_p50_ms(&churn_log, swap_from, swap_to);
    for _ in 0..SETUPS_AFTER {
        setups.push(workload::time_setup(&shape, &seeds)?);
    }
    let setup_s = median(&mut setups);

    let correct = bad.is_empty() && self_check;
    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", setup_s, "s");
        m.put("goodput_qps", pick(None, &goodput), "1/s");
        m.put("rtt_p50_ms", pick(None, &p50), "ms");
        m.put("rtt_p99_ms", pick(None, &p99), "ms");
        m.put(
            "served_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        m.put("swap_p50_ms", swap_p50_ms, "ms");
        m.put("rss_peak_mb", rss_mb, "MiB");
    } else {
        let untraced_p50 = pick(Some(false), &p50);
        let traced_p50 = pick(Some(true), &p50);
        let (scrape_a, scrape_b) = &scrapes;
        let rows_a = ftl_server::parse_stage_table(scrape_a);
        let rows_b = ftl_server::parse_stage_table(scrape_b);
        let stage = |name: &str| report::stage_mean_us(&rows_a, &rows_b, name);
        let counter = |name: &str| {
            report::scrape_value(scrape_b, name) - report::scrape_value(scrape_a, name)
        };
        let (sa, sb) = &stats;
        let d_requests = sb.requests.saturating_sub(sa.requests) as f64;
        let requests_per_group = d_requests / sb.groups.saturating_sub(sa.groups).max(1) as f64;
        let requests_per_window = d_requests / sb.batches.saturating_sub(sa.batches).max(1) as f64;

        for s in [
            "frame_read",
            "admission",
            "window_wait",
            "elimination",
            "answer",
            "response_write",
        ] {
            m.put(format!("server.{s}_us"), stage(s), "us");
        }
        let hits = counter("ftl_engine_cache_hits_total");
        let elims = counter("ftl_engine_eliminations_total");
        m.put(
            "engine.cache_hit_ratio",
            hits / (hits + elims).max(1.0),
            "ratio",
        );
        m.put("server.requests_per_group", requests_per_group, "count");
        m.put("server.requests_per_window", requests_per_window, "count");
        m.put("server.busy_rejects", final_stats.rejects as f64, "count");
        m.put(
            "server.deadline_drops",
            final_stats.deadline_drops as f64,
            "count",
        );
        m.put(
            "server.watchdog_fires",
            final_stats.watchdog_fires as f64,
            "count",
        );
        m.put(
            "server.frame_errors",
            final_stats.frame_errors as f64,
            "count",
        );
        m.put(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );

        // Latency budget: the client's mean round trip against the server's
        // per-request stages. `frame_read` includes client idle time and
        // `answer` is a per-window per-query average, so neither is summed;
        // engine time a request waits through is estimated apart as
        // answer × queries per window.
        let rtt_mean_us = rtt_sum_ns / rtt_count.max(1) as f64 / 1e3;
        let server_us = stage("admission") + stage("window_wait") + stage("response_write");
        let engine_us = stage("answer") * QUERIES_PER_REQUEST as f64 * requests_per_window;
        m.put("budget.rtt_mean_us", rtt_mean_us, "us");
        m.put("budget.server_us", server_us, "us");
        m.put("budget.engine_us", engine_us, "us");
        m.put(
            "budget.residue_us",
            rtt_mean_us - server_us - engine_us,
            "us",
        );

        client_metrics(&outs, &lag, untraced_p50, traced_p50, &mut m);
        m.put("host.steal_share", steal_pct(&by_steal) / 100.0, "ratio");
        churn::store_metrics(&churn_log, &mut live, swap_from, swap_to, &mut m)?;
        layers::Replay {
            graph: &graph,
            shape: &shape,
            seeds: &seeds,
            sets: &sets,
            store: initial_store,
            requests_per_window,
        }
        .run(&mut m)?;
    }

    println!(
        "{}: {} requests ({} failed, {} BFS mismatches, self-check {}), setup {:.1} ms, \
         steal {:.1}% (calm quarter {:.1}%)",
        shape.name,
        attempted,
        failed,
        bad.len(),
        if self_check { "passed" } else { "FAILED" },
        setup_s * 1e3,
        steal_pct(&by_steal),
        steal_pct(calm_quarter),
    );
    println!("{}", report::result_line(correct, attempted, failed, &m));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn client_metrics(
    outs: &[ConnOut],
    lag_ns: &[u64],
    untraced_p50: f64,
    traced_p50: f64,
    m: &mut Metrics,
) {
    let mut spans = Spans::default();
    for o in outs {
        spans.add(&o.spans);
    }
    let mean = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let mut lags = lag_ns.to_vec();
    lags.sort_unstable();
    m.put(
        "client.send_lag_p99_ms",
        percentile(&lags, 0.99) as f64 / 1e6,
        "ms",
    );
    m.put(
        "client.inflight_max",
        outs.iter().map(|o| o.inflight_max).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "client.encode_ns",
        mean(spans.encode_ns, spans.encoded),
        "ns",
    );
    m.put("client.write_ns", mean(spans.write_ns, spans.writes), "ns");
    m.put("client.read_ns", mean(spans.read_ns, spans.reads), "ns");
    m.put(
        "client.decode_ns",
        mean(spans.decode_ns, spans.decoded),
        "ns",
    );
    m.put("client.trace_overhead_ms", traced_p50 - untraced_p50, "ms");
}

enum Generator<'scope> {
    Closed(Vec<std::thread::ScopedJoinHandle<'scope, Result<ConnOut, String>>>),
    Open(
        &'scope loadgen::OpenShared,
        std::thread::ScopedJoinHandle<'scope, Result<(Vec<u64>, Spans), String>>,
        std::thread::ScopedJoinHandle<'scope, Result<Vec<ConnOut>, String>>,
    ),
}

impl Generator<'_> {
    /// The books of every connection, and the open loop's send lags.
    fn join(self) -> Result<(Vec<ConnOut>, Vec<u64>), String> {
        match self {
            Generator::Closed(threads) => {
                let outs = threads
                    .into_iter()
                    .map(|t| t.join().map_err(|_| "generator panicked".to_string())?)
                    .collect::<Result<_, _>>()?;
                Ok((outs, Vec::new()))
            }
            Generator::Open(shared, sender, receiver) => {
                let sent = sender.join().map_err(|_| "sender panicked")?;
                let received = receiver.join().map_err(|_| "receiver panicked")?;
                let (lag, send_spans) = sent?;
                let mut outs = received?;
                loadgen::open_finish(shared, &mut outs, &send_spans);
                Ok((outs, lag))
            }
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if now < t {
        std::thread::sleep(t - now);
    }
}

/// The report's environment stamp: everything a reader needs to rerun it.
fn print_env(args: &Args, shape: &Shape, seeds: &Seeds) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", shape.name.to_string()),
        ("seed", args.seed.to_string()),
        (
            "graph",
            format!("{} (graph seed {:#x})", workload::GRAPH_SPEC, seeds.graph),
        ),
        ("shape", format!("{shape:?}")),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("network", "loopback 127.0.0.1 only".to_string()),
        ("commit", args.commit.clone()),
        (
            "build",
            if cfg!(feature = "no-obs") {
                "no-obs"
            } else {
                "obs"
            }
            .to_string(),
        ),
        (
            "server_config",
            format!("{:?}", ftl_server::ServerConfig::default()),
        ),
        (
            "engine_config",
            format!("{:?}", ftl_engine::EngineConfig::default()),
        ),
    ];
    println!("{{\"env\": {}}}", report::json_object(&fields));
}
