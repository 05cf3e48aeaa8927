//! `ftl-serve` — stand up the batched serving front end over a labeled
//! topology.
//!
//! The server and its clients agree on the topology via the spec
//! language (`--graph grid:32x32 --seed 1` must match on both sides; see
//! `ftl_server::spec`). Labels are built once at startup, frozen into a
//! store of decoded label columns, and published as epoch 1 of an
//! `EpochStore` — each accumulation window pins whatever epoch is current
//! when it executes.
//!
//! ```text
//! ftl-serve --addr 127.0.0.1:7411 --graph er:1024:8 --seed 1 --duration-secs 30
//! ftl-serve --graph grid:32x32 --duration-secs 0     # run until Enter
//! ```

use ftl_cycle_space::CycleSpaceScheme;
use ftl_engine::{store_from_cycle_space, EngineConfig, EpochStore};
use ftl_seeded::Seed;
use ftl_server::{parse_graph_spec, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    graph: String,
    seed: u64,
    width: usize,
    shards: usize,
    executors: usize,
    window_us: u64,
    budget: usize,
    watchdog_factor: u32,
    duration_secs: u64,
    stats_interval: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7411".to_string(),
            graph: "grid:32x32".to_string(),
            seed: 1,
            width: 8,
            shards: 16,
            executors: 2,
            window_us: 500,
            budget: 1 << 16,
            watchdog_factor: 16,
            duration_secs: 10,
            stats_interval: 0,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--graph" => args.graph = value("--graph")?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--width" => args.width = parse(&value("--width")?)?,
            "--shards" => args.shards = parse(&value("--shards")?)?,
            "--executors" => args.executors = parse(&value("--executors")?)?,
            "--window-us" => args.window_us = parse(&value("--window-us")?)?,
            "--budget" => args.budget = parse(&value("--budget")?)?,
            "--watchdog-factor" => args.watchdog_factor = parse(&value("--watchdog-factor")?)?,
            "--duration-secs" => args.duration_secs = parse(&value("--duration-secs")?)?,
            "--stats-interval" => args.stats_interval = parse(&value("--stats-interval")?)?,
            "--help" | "-h" => {
                println!(
                    "ftl-serve [--addr A] [--graph SPEC] [--seed N] [--width B]\n\
                     \x20         [--shards N]  (most id-range shards the label store is\n\
                     \x20          split into)\n\
                     \x20         [--executors N] [--window-us N] [--budget N]\n\
                     \x20         [--watchdog-factor N] (force-release requests stuck longer\n\
                     \x20          than N accumulation windows; 0 = no watchdog)\n\
                     \x20         [--duration-secs N]   (0 = run until Enter on stdin)\n\
                     \x20         [--stats-interval S]  (dump the metrics exposition to\n\
                     \x20          stdout every S seconds while serving; 0 = off)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad value `{raw}`"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let g = parse_graph_spec(&args.graph, args.seed)?;
    println!(
        "labeling {} ({} vertices, {} edges), width {}...",
        args.graph,
        g.num_vertices(),
        g.num_edges(),
        args.width
    );
    let t0 = Instant::now();
    let scheme = CycleSpaceScheme::label(&g, args.width, Seed::new(args.seed))
        .map_err(|e| format!("labeling failed: {e}"))?;
    let store =
        store_from_cycle_space(&scheme, args.shards).map_err(|e| format!("freeze failed: {e}"))?;
    println!(
        "labeled + frozen in {:.1} ms ({} records, {} column bytes, {} shards)",
        t0.elapsed().as_secs_f64() * 1e3,
        store.len(),
        store.bytes_total(),
        store.num_shards()
    );

    let epochs = Arc::new(EpochStore::new(Arc::new(store)));
    let server_config = ServerConfig {
        executors: args.executors,
        window: Duration::from_micros(args.window_us),
        pending_budget: args.budget,
        watchdog_factor: args.watchdog_factor,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(
        epochs,
        EngineConfig::default(),
        server_config,
        args.addr.as_str(),
    )
    .map_err(|e| format!("bind {} failed: {e}", args.addr))?;
    println!(
        "serving on {} — {} executors, {}us window, budget {}",
        handle.local_addr(),
        args.executors,
        args.window_us,
        args.budget
    );

    // Optional periodic metrics dump: a scoped thread prints the same
    // text exposition a MetricsRequest scrape would return, so a run
    // without any monitoring client still leaves a latency/cache trace
    // on stdout.
    let stop_dump = std::sync::atomic::AtomicBool::new(false);
    let serve_t0 = Instant::now();
    std::thread::scope(|scope| {
        if args.stats_interval > 0 {
            let handle = &handle;
            let stop = &stop_dump;
            let interval = Duration::from_secs(args.stats_interval);
            scope.spawn(move || {
                let mut next = Instant::now() + interval;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    if Instant::now() >= next {
                        println!(
                            "--- metrics @ +{:.1}s ---",
                            serve_t0.elapsed().as_secs_f64()
                        );
                        print!("{}", handle.metrics_text());
                        next = Instant::now() + interval;
                    }
                }
            });
        }
        if args.duration_secs == 0 {
            println!("press Enter to stop");
            let mut line = String::new();
            let _ = std::io::stdin().read_line(&mut line);
        } else {
            std::thread::sleep(Duration::from_secs(args.duration_secs));
        }
        stop_dump.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    println!("draining...");
    let stats = handle.shutdown();
    println!(
        "served {} requests / {} queries in {} windows ({} fault-set groups); \
         {} busy rejects, {} engine errors, {} frame errors, {} connections",
        stats.requests,
        stats.queries,
        stats.batches,
        stats.groups,
        stats.rejects,
        stats.engine_errors,
        stats.frame_errors,
        stats.connections_accepted
    );
    for t in &stats.tenants {
        println!(
            "  tenant {:>4}: {} requests, {} queries, {} rejects, p50 {:.3} ms, p99 {:.3} ms",
            t.tenant, t.requests, t.queries, t.rejects, t.p50_ms, t.p99_ms
        );
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ftl-serve: {e}");
        std::process::exit(2);
    }
}
