//! Proxy behavior against a local echo upstream: pass-through fidelity,
//! each fault kind's observable effect, and shaping integrity.

// Test-only crate: the crate-level panic-free wall targets the proxy's
// pump threads, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ftl_chaos::{ChaosProxy, PlanConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A streaming echo server: every accepted connection's bytes are written
/// straight back until EOF.
struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn spawn() -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        let stop3 = Arc::clone(&stop2);
                        conns.push(std::thread::spawn(move || {
                            s.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
                            let mut buf = [0u8; 1024];
                            while !stop3.load(Ordering::Relaxed) {
                                match s.read(&mut buf) {
                                    Ok(0) => break,
                                    Ok(n) => {
                                        if s.write_all(&buf[..n]).is_err() {
                                            break;
                                        }
                                    }
                                    Err(e)
                                        if matches!(
                                            e.kind(),
                                            ErrorKind::WouldBlock
                                                | ErrorKind::TimedOut
                                                | ErrorKind::Interrupted
                                        ) => {}
                                    Err(_) => break,
                                }
                            }
                            let _ = s.shutdown(Shutdown::Both);
                        }));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Echo {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Sends `payload`, half-closes the write side, and reads until EOF or
/// `deadline` elapses. Returns whatever came back.
fn send_and_drain(addr: SocketAddr, payload: &[u8], deadline: Duration) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.write_all(payload).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
    let start = Instant::now();
    let mut got = Vec::new();
    let mut buf = [0u8; 1024];
    while start.elapsed() < deadline {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    got
}

#[test]
fn pass_through_echoes_faithfully() {
    let echo = Echo::spawn();
    let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, PlanConfig::default()).unwrap();
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let got = send_and_drain(proxy.local_addr(), &payload, Duration::from_secs(5));
    assert_eq!(got, payload);
    let report = proxy.shutdown();
    assert_eq!(report.connections, 1);
    assert_eq!(report.passed, 1);
    assert_eq!(report.faults_fired(), 0);
    assert_eq!(report.bytes_to_server, payload.len() as u64);
    assert_eq!(report.bytes_to_client, payload.len() as u64);
}

#[test]
fn immediate_reset_kills_the_connection_before_any_byte() {
    let echo = Echo::spawn();
    let cfg = PlanConfig {
        reset_immediate_pm: 1000,
        ..PlanConfig::default()
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, cfg).unwrap();
    let got = send_and_drain(proxy.local_addr(), b"hello", Duration::from_secs(2));
    assert!(got.is_empty(), "got {} bytes through a reset", got.len());
    let report = proxy.shutdown();
    assert_eq!(report.resets_immediate, 1);
    assert_eq!(report.bytes_to_server, 0);
}

#[test]
fn blackhole_accepts_and_swallows_without_forwarding() {
    let echo = Echo::spawn();
    let cfg = PlanConfig {
        blackhole_pm: 1000,
        ..PlanConfig::default()
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, cfg).unwrap();
    let start = Instant::now();
    let got = send_and_drain(
        proxy.local_addr(),
        b"anyone home?",
        Duration::from_millis(300),
    );
    // The write succeeded (the proxy reads and discards) but nothing ever
    // comes back; only the caller's own deadline ends the wait.
    assert!(got.is_empty());
    assert!(start.elapsed() >= Duration::from_millis(300));
    let report = proxy.shutdown();
    assert_eq!(report.blackholes, 1);
    assert_eq!(report.bytes_to_server, 0);
    assert_eq!(report.bytes_to_client, 0);
}

#[test]
fn midstream_reset_delivers_a_strict_prefix_then_dies() {
    let echo = Echo::spawn();
    let cfg = PlanConfig {
        reset_midstream_pm: 1000,
        reset_window_bytes: 64,
        ..PlanConfig::default()
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, cfg).unwrap();
    let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
    let got = send_and_drain(proxy.local_addr(), &payload, Duration::from_secs(5));
    // Whichever direction the budget was drawn for, the client sees at
    // most that many echoed bytes — always a strict prefix, never a
    // reordered or corrupted stream.
    assert!(got.len() < payload.len(), "reset never fired");
    assert_eq!(got.as_slice(), &payload[..got.len()], "prefix fidelity");
    let report = proxy.shutdown();
    assert_eq!(report.resets_midstream, 1);
}

#[test]
fn garbage_splice_desyncs_the_stream_by_exactly_len_bytes() {
    let echo = Echo::spawn();
    let cfg = PlanConfig {
        garbage_pm: 1000,
        garbage_window_bytes: 8,
        garbage_len: 32,
        ..PlanConfig::default()
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, cfg).unwrap();
    let payload: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
    let got = send_and_drain(proxy.local_addr(), &payload, Duration::from_secs(5));
    assert_eq!(
        got.len(),
        payload.len() + 32,
        "exactly one garbage burst spliced in"
    );
    assert_ne!(got.as_slice(), &payload[..], "stream is desynced");
    let report = proxy.shutdown();
    assert_eq!(report.garbage_injections, 1);
}

#[test]
fn split_writes_preserve_content_exactly() {
    let echo = Echo::spawn();
    let cfg = PlanConfig {
        split_pm: 1000,
        split_chunk: 3,
        split_delay: Duration::from_micros(100),
        ..PlanConfig::default()
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, cfg).unwrap();
    let payload: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
    let got = send_and_drain(proxy.local_addr(), &payload, Duration::from_secs(10));
    assert_eq!(got, payload, "splitting degrades timing, not content");
    let report = proxy.shutdown();
    assert_eq!(report.shaped, 1);
    assert_eq!(report.passed, 1, "shaping is orthogonal to the fault roll");
}

#[test]
fn throttle_slows_delivery_but_preserves_content() {
    let echo = Echo::spawn();
    let cfg = PlanConfig {
        throttle_pm: 1000,
        throttle_bytes_per_sec: 1 << 10,
        ..PlanConfig::default()
    };
    let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, cfg).unwrap();
    let payload: Vec<u8> = (0..64u32).map(|i| (i % 251) as u8).collect();
    let start = Instant::now();
    let got = send_and_drain(proxy.local_addr(), &payload, Duration::from_secs(10));
    assert_eq!(got, payload);
    // 64 bytes at 1 KiB/s is ~62 ms per direction; allow wide slack but
    // prove the throttle actually slept.
    assert!(
        start.elapsed() >= Duration::from_millis(50),
        "throttle too fast: {:?}",
        start.elapsed()
    );
    let report = proxy.shutdown();
    assert_eq!(report.shaped, 1);
}

#[test]
fn sequential_connections_draw_their_planned_mix_deterministically() {
    let echo = Echo::spawn();
    let cfg = PlanConfig {
        seed: 7,
        garbage_pm: 500,
        garbage_window_bytes: 4,
        garbage_len: 8,
        ..PlanConfig::default()
    };
    let run = || {
        let proxy = ChaosProxy::spawn("127.0.0.1:0", echo.addr, cfg).unwrap();
        for _ in 0..8 {
            let _ = send_and_drain(proxy.local_addr(), b"0123456789", Duration::from_secs(5));
        }
        proxy.shutdown()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same sequential drive, same report");
    assert!(a.garbage_injections > 0, "mix actually drew garbage");
    assert!(a.passed > 0, "mix actually drew passes");
    assert_eq!(a.connections, 8);
}
