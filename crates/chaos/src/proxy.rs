//! The man-in-the-middle proxy: accept, draw the connection's plan,
//! pump bytes both ways, and misbehave exactly as planned.
//!
//! Thread model (mirrors `ftl-server`: plain blocking I/O, no async):
//!
//! ```text
//! acceptor ──spawns──▶ handler (1 per connection)
//!                         │ plan = config.plan_for(index)
//!                         │ ResetImmediate → tear down
//!                         │ Blackhole      → read-and-discard forever
//!                         │ else: connect upstream, spawn the
//!                         ▼        server→client pump, run client→server
//!                      pump ⇄ pump   (split/throttle shaping, byte-counted
//!                                     resets, garbage splices)
//! ```
//!
//! Both pumps poll short read timeouts so they observe the proxy's stop
//! flag and their connection's shared kill flag; a mid-stream reset in
//! either direction tears both down. Fault *events* (not plans) are
//! counted into the proxy's own [`ChaosStats`], which
//! [`ChaosHandle::shutdown`] returns as a [`ChaosReport`] — the accounting
//! the chaos acceptance scenario asserts against.

use crate::plan::{ConnFault, ConnPlan, Direction, PlanConfig, TAG_GARBAGE_BYTES};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often pumps and the blackhole sink wake to check stop/kill flags.
const POLL: Duration = Duration::from_millis(5);

/// How long a handler waits for its upstream connect.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Fault events fired by one proxy instance (relaxed atomics, read out as
/// a [`ChaosReport`]).
#[derive(Debug, Default)]
pub struct ChaosStats {
    connections: AtomicU64,
    passed: AtomicU64,
    resets_immediate: AtomicU64,
    resets_midstream: AtomicU64,
    blackholes: AtomicU64,
    garbage_injections: AtomicU64,
    shaped: AtomicU64,
    bytes_to_server: AtomicU64,
    bytes_to_client: AtomicU64,
}

/// A point-in-time view of a proxy's fault accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Connections accepted.
    pub connections: u64,
    /// Connections whose fault roll was `Pass` (shaping may still have
    /// applied).
    pub passed: u64,
    /// Immediate resets fired.
    pub resets_immediate: u64,
    /// Mid-stream (byte-counted, typically mid-frame) resets fired.
    pub resets_midstream: u64,
    /// Black holes engaged.
    pub blackholes: u64,
    /// Garbage splices fired.
    pub garbage_injections: u64,
    /// Connections that ran with split and/or throttle shaping.
    pub shaped: u64,
    /// Bytes forwarded client→server.
    pub bytes_to_server: u64,
    /// Bytes forwarded server→client.
    pub bytes_to_client: u64,
}

impl ChaosReport {
    /// Total fault events fired (resets + black holes + garbage).
    pub fn faults_fired(&self) -> u64 {
        self.resets_immediate + self.resets_midstream + self.blackholes + self.garbage_injections
    }
}

/// Adds `n` to one of a proxy's counters.
fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl ChaosStats {
    fn snapshot(&self) -> ChaosReport {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ChaosReport {
            connections: get(&self.connections),
            passed: get(&self.passed),
            resets_immediate: get(&self.resets_immediate),
            resets_midstream: get(&self.resets_midstream),
            blackholes: get(&self.blackholes),
            garbage_injections: get(&self.garbage_injections),
            shaped: get(&self.shaped),
            bytes_to_server: get(&self.bytes_to_server),
            bytes_to_client: get(&self.bytes_to_client),
        }
    }
}

/// Namespace for [`ChaosProxy::spawn`].
pub struct ChaosProxy;

/// A running proxy; [`shutdown`](ChaosHandle::shutdown) stops it and
/// returns the fault accounting. Dropping the handle signals the threads
/// to stop without blocking.
pub struct ChaosHandle {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen`, forwards every accepted connection to `upstream`
    /// under `config`'s seeded plan, and returns the handle.
    pub fn spawn(
        listen: impl ToSocketAddrs,
        upstream: SocketAddr,
        config: PlanConfig,
    ) -> std::io::Result<ChaosHandle> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("ftl-chaos-accept".to_string())
                .spawn(move || accept_loop(&listener, upstream, &config, &stop, &stats))?
        };
        Ok(ChaosHandle {
            local,
            stop,
            stats,
            acceptor: Some(acceptor),
        })
    }
}

impl ChaosHandle {
    /// The proxy's bound address — point clients here instead of at the
    /// server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A live view of the fault accounting.
    pub fn report(&self) -> ChaosReport {
        self.stats.snapshot()
    }

    /// Stops accepting, tears every live connection down, joins the
    /// threads, and returns the final fault accounting.
    pub fn shutdown(mut self) -> ChaosReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for ChaosHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    config: &PlanConfig,
    stop: &Arc<AtomicBool>,
    stats: &Arc<ChaosStats>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut index = 0u64;
    while !stop.load(Ordering::Relaxed) {
        handlers.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((client, _)) => {
                let plan = config.plan_for(index);
                let garbage_seed = config.conn_seed(index).derive(TAG_GARBAGE_BYTES);
                index += 1;
                bump(&stats.connections, 1);
                if plan.shaping.is_active() {
                    bump(&stats.shaped, 1);
                }
                if matches!(plan.fault, ConnFault::Pass) {
                    bump(&stats.passed, 1);
                }
                let stop = Arc::clone(stop);
                let stats = Arc::clone(stats);
                let spawned = std::thread::Builder::new()
                    .name("ftl-chaos-conn".to_string())
                    .spawn(move || {
                        handle_conn(client, upstream, plan, garbage_seed, &stop, &stats);
                    });
                if let Ok(h) = spawned {
                    handlers.push(h);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_conn(
    client: TcpStream,
    upstream: SocketAddr,
    plan: ConnPlan,
    garbage_seed: ftl_seeded::Seed,
    stop: &Arc<AtomicBool>,
    stats: &Arc<ChaosStats>,
) {
    let _ = client.set_nodelay(true);
    match plan.fault {
        ConnFault::ResetImmediate => {
            bump(&stats.resets_immediate, 1);
            let _ = client.shutdown(Shutdown::Both);
        }
        ConnFault::Blackhole => {
            bump(&stats.blackholes, 1);
            blackhole(client, stop);
        }
        _ => {
            let Ok(server) = TcpStream::connect_timeout(&upstream, CONNECT_TIMEOUT) else {
                let _ = client.shutdown(Shutdown::Both);
                return;
            };
            let _ = server.set_nodelay(true);
            let kill = Arc::new(AtomicBool::new(false));
            let back = {
                let (Ok(src), Ok(dst)) = (server.try_clone(), client.try_clone()) else {
                    return;
                };
                let stop = Arc::clone(stop);
                let kill = Arc::clone(&kill);
                let stats = Arc::clone(stats);
                std::thread::Builder::new()
                    .name("ftl-chaos-pump".to_string())
                    .spawn(move || {
                        pump(
                            src,
                            dst,
                            Direction::ToClient,
                            &plan,
                            garbage_seed,
                            &stop,
                            &kill,
                            &stats,
                        );
                    })
            };
            pump(
                client,
                server,
                Direction::ToServer,
                &plan,
                garbage_seed,
                stop,
                &kill,
                stats,
            );
            if let Ok(h) = back {
                let _ = h.join();
            }
        }
    }
}

/// Reads and discards the client's bytes forever: the connection looks
/// accepted and writable, but nothing is ever forwarded or answered.
fn blackhole(mut client: TcpStream, stop: &AtomicBool) {
    if client.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut sink = [0u8; 1024];
    while !stop.load(Ordering::Relaxed) {
        match client.read(&mut sink) {
            // Even the client's EOF is swallowed: the hole never answers
            // and never hangs up — only its own deadline gets a caller
            // out, which is exactly what the resilient client must
            // survive.
            Ok(0) => std::thread::sleep(POLL),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    let _ = client.shutdown(Shutdown::Both);
}

/// One direction's byte pump, applying the plan's shaping and any
/// byte-positioned fault assigned to this direction.
#[allow(clippy::too_many_arguments)]
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    dir: Direction,
    plan: &ConnPlan,
    garbage_seed: ftl_seeded::Seed,
    stop: &AtomicBool,
    kill: &AtomicBool,
    stats: &ChaosStats,
) {
    if src.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut buf = [0u8; 2048];
    let mut forwarded = 0u64;
    let mut garbage_done = false;
    loop {
        if stop.load(Ordering::Relaxed) || kill.load(Ordering::Relaxed) {
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        let n = match src.read(&mut buf) {
            // Clean EOF: half-close downstream so the peer sees it, but
            // leave the opposite pump running (responses may still be in
            // flight the other way).
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => {
                kill.store(true, Ordering::Relaxed);
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        };
        let Some(mut chunk) = buf.get(..n) else {
            return;
        };
        // Byte-counted reset: forward the remaining budget (a deliberate
        // partial frame), then tear both directions down.
        let mut reset_now = false;
        if let ConnFault::ResetAfter { dir: d, bytes } = plan.fault {
            if d == dir {
                let left = bytes.saturating_sub(forwarded);
                if (chunk.len() as u64) >= left {
                    chunk = chunk.get(..left as usize).unwrap_or(chunk);
                    reset_now = true;
                }
            }
        }
        if forward(&mut dst, chunk, plan, dir, stats).is_err() {
            kill.store(true, Ordering::Relaxed);
            let _ = src.shutdown(Shutdown::Both);
            return;
        }
        forwarded += chunk.len() as u64;
        if reset_now {
            bump(&stats.resets_midstream, 1);
            kill.store(true, Ordering::Relaxed);
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        // Garbage splice: after the faithful prefix, inject seeded bytes
        // once, desyncing the peer's framing, then keep forwarding.
        if let ConnFault::InjectGarbage {
            dir: d,
            after_bytes,
            len,
        } = plan.fault
        {
            if d == dir && !garbage_done && forwarded >= after_bytes {
                garbage_done = true;
                let mut words = garbage_seed.stream();
                let garbage: Vec<u8> = (0..len).map(|_| words() as u8).collect();
                if forward(&mut dst, &garbage, plan, dir, stats).is_err() {
                    kill.store(true, Ordering::Relaxed);
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
                bump(&stats.garbage_injections, 1);
            }
        }
    }
}

/// Writes `bytes` downstream under the plan's shaping (split chunks with
/// delays, byte-rate throttle) and counts them.
fn forward(
    dst: &mut TcpStream,
    bytes: &[u8],
    plan: &ConnPlan,
    dir: Direction,
    stats: &ChaosStats,
) -> std::io::Result<()> {
    let step = plan
        .shaping
        .split_chunk
        .map(|c| c as usize)
        .unwrap_or(bytes.len().max(1));
    let mut rest = bytes;
    let mut first = true;
    while !rest.is_empty() {
        if !first && plan.shaping.split_chunk.is_some() && !plan.shaping.split_delay.is_zero() {
            std::thread::sleep(plan.shaping.split_delay);
        }
        first = false;
        let take = step.min(rest.len());
        let (piece, tail) = rest.split_at(take);
        dst.write_all(piece)?;
        dst.flush()?;
        rest = tail;
        if let Some(rate) = plan.shaping.throttle_bytes_per_sec {
            let ns = (piece.len() as u64).saturating_mul(1_000_000_000) / rate.max(1);
            if ns > 0 {
                std::thread::sleep(Duration::from_nanos(ns));
            }
        }
    }
    match dir {
        Direction::ToServer => bump(&stats.bytes_to_server, bytes.len() as u64),
        Direction::ToClient => bump(&stats.bytes_to_client, bytes.len() as u64),
    }
    Ok(())
}
