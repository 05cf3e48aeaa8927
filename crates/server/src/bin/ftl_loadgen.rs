//! `ftl-loadgen` — drive a running `ftl-serve` and audit every answer.
//!
//! The loadgen rebuilds the server's topology from the same `--graph` /
//! `--seed` pair, derives the shared fault-set vocabulary, precomputes
//! BFS ground truth, and then hammers the server with `--clients`
//! concurrent connections. Any answer disagreeing with BFS is a
//! mismatch; the process exits non-zero if there is even one, and also if
//! any request went unanswered — an audit of nothing passes nothing.
//!
//! Exit codes: `0` every request answered and audited clean, `1` a
//! mismatch, `2` bad arguments, `3` the run deadline passed, `4` some
//! request was never answered `Ok`.
//!
//! ```text
//! ftl-loadgen --addr 127.0.0.1:7411 --graph er:1024:8 --seed 1 \
//!             --clients 64 --requests 32 --queries 16 --fault-sets 8
//! ```

use ftl_server::{
    derive_fault_sets, parse_graph_spec, parse_stage_table, run_loadgen, scrape_metrics,
    LoadgenConfig,
};
use std::net::ToSocketAddrs;
use std::time::Duration;

struct Args {
    addr: String,
    graph: String,
    seed: u64,
    fault_sets: usize,
    faults_per_set: usize,
    load: LoadgenConfig,
    scrape_delay_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7411".to_string(),
            graph: "grid:32x32".to_string(),
            seed: 1,
            fault_sets: 8,
            faults_per_set: 4,
            load: LoadgenConfig {
                clients: 64,
                ..LoadgenConfig::default()
            },
            scrape_delay_ms: 0,
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
            "--fault-sets" => args.fault_sets = parse(&value("--fault-sets")?)?,
            "--faults-per-set" => args.faults_per_set = parse(&value("--faults-per-set")?)?,
            "--clients" => args.load.clients = parse(&value("--clients")?)?,
            "--requests" => args.load.requests_per_client = parse(&value("--requests")?)?,
            "--queries" => args.load.queries_per_request = parse(&value("--queries")?)?,
            "--loadgen-seed" => args.load.seed = parse(&value("--loadgen-seed")?)?,
            "--scrape-delay-ms" => args.scrape_delay_ms = parse(&value("--scrape-delay-ms")?)?,
            "--ttl-ms" => args.load.ttl_ms = parse(&value("--ttl-ms")?)?,
            "--max-retries" => args.load.max_busy_retries = parse(&value("--max-retries")?)?,
            "--request-timeout-ms" => {
                args.load.request_timeout =
                    Duration::from_millis(parse(&value("--request-timeout-ms")?)?);
            }
            "--run-deadline-secs" => {
                args.load.run_deadline =
                    Duration::from_secs(parse(&value("--run-deadline-secs")?)?);
            }
            "--help" | "-h" => {
                println!(
                    "ftl-loadgen [--addr A] [--graph SPEC] [--seed N] [--fault-sets N]\n\
                     \x20           [--faults-per-set N] [--clients N] [--requests N]\n\
                     \x20           [--queries N] [--loadgen-seed N] [--scrape-delay-ms N]\n\
                     \x20           [--ttl-ms N] [--max-retries N] [--request-timeout-ms N]\n\
                     \x20           [--run-deadline-secs N]\n\
                     \x20           (--scrape-delay-ms: scrape server metrics that long\n\
                     \x20            into the run and print the per-stage latency table;\n\
                     \x20            --ttl-ms: stamp request TTLs; --run-deadline-secs:\n\
                     \x20            hard wall-clock bound on the whole run, exit 3 on\n\
                     \x20            timeout; 0 = unbounded)\n\
                     exit: 0 clean, 1 mismatches, 2 bad arguments, 3 timed out,\n\
                     \x20     4 some request not answered Ok"
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

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    let addr = args
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("bad addr {}: {e}", args.addr))?
        .next()
        .ok_or(format!("addr {} resolves to nothing", args.addr))?;
    let g = parse_graph_spec(&args.graph, args.seed)?;
    let sets = derive_fault_sets(&g, args.fault_sets, args.faults_per_set, args.seed);
    println!(
        "{}: {} vertices, {} edges; {} fault sets x {} faults; \
         {} clients x {} requests x {} queries",
        args.graph,
        g.num_vertices(),
        g.num_edges(),
        sets.len(),
        args.faults_per_set,
        args.load.clients,
        args.load.requests_per_client,
        args.load.queries_per_request
    );
    // Mid-run scrape: a thread waits out the delay, then pulls the
    // metrics exposition over the wire while the clients are still
    // hammering — the table below is what the server looked like *under*
    // load, not after the fact.
    let scraper = (args.scrape_delay_ms > 0).then(|| {
        let delay = Duration::from_millis(args.scrape_delay_ms);
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            scrape_metrics(addr)
        })
    });
    let report = run_loadgen(addr, &g, &sets, args.load);
    let scrape = scraper.map(|j| match j.join() {
        Ok(Ok(text)) => Ok(text),
        Ok(Err(e)) => Err(format!("scrape failed: {e}")),
        Err(_) => Err("scrape thread panicked".to_string()),
    });
    println!(
        "{} requests ok / {} queries ok in {:.1} ms — {:.0} queries/s, \
         p50 {:.3} ms, p99 {:.3} ms",
        report.requests_ok,
        report.queries_ok,
        report.wall_ns as f64 / 1e6,
        report.queries_per_sec,
        report.p50_ms,
        report.p99_ms
    );
    println!(
        "{} mismatches, {} busy rejects, {} unserved, {} engine failures, \
         {} shutdown notices, {} io errors",
        report.mismatches,
        report.busy_rejects,
        report.unserved,
        report.engine_failures,
        report.shutdown_notices,
        report.io_errors
    );
    println!(
        "{} retries, {} reconnects, {} deadline rejects",
        report.retries, report.reconnects, report.deadline_rejects
    );
    match scrape {
        Some(Ok(text)) => print_stage_table(&text, args.scrape_delay_ms),
        Some(Err(e)) => eprintln!("ftl-loadgen: {e}"),
        None => {}
    }
    let expected = (args.load.clients * args.load.requests_per_client) as u64;
    Ok(if report.timed_out {
        Outcome::TimedOut
    } else if report.mismatches > 0 {
        Outcome::Mismatches
    } else if report.requests_ok < expected {
        Outcome::Unserved {
            ok: report.requests_ok,
            expected,
        }
    } else {
        Outcome::Clean
    })
}

enum Outcome {
    Clean,
    Mismatches,
    TimedOut,
    Unserved { ok: u64, expected: u64 },
}

/// Prints the per-stage latency breakdown from a mid-run scrape.
fn print_stage_table(text: &str, delay_ms: u64) {
    let rows = parse_stage_table(text);
    println!("per-stage latency at +{delay_ms} ms (from MetricsRequest scrape):");
    println!(
        "  {:<14} {:>12} {:>12} {:>12} {:>14}",
        "stage", "count", "p50", "p99", "total"
    );
    for r in &rows {
        println!(
            "  {:<14} {:>12} {:>12} {:>12} {:>14}",
            r.stage,
            r.count,
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            fmt_ns(r.sum_ns)
        );
    }
    if rows.is_empty() {
        println!("  (no ftl_stage_ns series in scrape — server built with no-obs?)");
    }
}

/// Human-scaled nanoseconds: `850ns`, `12.3us`, `4.56ms`, `1.20s`.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn main() {
    match run() {
        Ok(Outcome::Clean) => {}
        Ok(Outcome::Mismatches) => {
            eprintln!("ftl-loadgen: MISMATCHES against BFS ground truth");
            std::process::exit(1);
        }
        Ok(Outcome::TimedOut) => {
            eprintln!("ftl-loadgen: TIMEOUT — global run deadline passed before completion");
            std::process::exit(3);
        }
        Ok(Outcome::Unserved { ok, expected }) => {
            eprintln!("ftl-loadgen: UNSERVED — {ok} of {expected} requests answered Ok");
            std::process::exit(4);
        }
        Err(e) => {
            eprintln!("ftl-loadgen: {e}");
            std::process::exit(2);
        }
    }
}
