//! One connection's write half: how answers get back to the client that
//! asked.
//!
//! The acceptor numbers each connection from a counter, and its reader
//! thread builds the connection's [`ConnWriter`]. Every request the reader
//! admits carries an `Arc` of that writer, so whichever thread answers the
//! request — the reader itself, an executor, the watchdog — writes through
//! the connection's own handle.
//!
//! A [`ConnWriter`] holds the write half (a `try_clone` of the stream)
//! behind a poison-recovering slot (`locked::Slot`), because two executors
//! can finish windows carrying responses for the *same* connection
//! concurrently — the slot makes each write
//! ([`send_framed`](ConnWriter::send_framed), one run of frames) atomic on
//! the stream.
//!
//! Frame atomicity survives *failure*, too: a write that errors mid-frame
//! (a timeout against a stalled reader, a reset) may have left a torn
//! frame on the stream, so the writer latches a dead flag under the same
//! slot and every later send is refused without touching the socket. The
//! torn frame is therefore the last bytes the client can ever observe — no
//! complete-looking frame can follow garbage.
//!
//! A writer is also *closed* once its connection is over for the server:
//! the reader exited (the client closed, a frame error, a failed write) or
//! a failed response write forfeited it. Answers still due to a closed
//! connection are dropped without a write.

use crate::locked::Slot;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The write half plus its torn-frame latch, guarded as one unit so the
/// flag can never lag the write that poisoned the stream.
#[derive(Debug)]
struct WriteState<S> {
    stream: S,
    dead: bool,
}

/// Runs one write, refusing if an earlier one failed (the stream may
/// carry a torn frame) and latching the dead flag if this one fails.
/// Generic over the sink so the every-byte-boundary kill tests below can
/// drive it without a socket.
fn send_locked<S: Write>(
    state: &mut WriteState<S>,
    write: impl FnOnce(&mut S) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if state.dead {
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "write half poisoned by an earlier failed write",
        ));
    }
    match write(&mut state.stream) {
        Ok(()) => Ok(()),
        Err(e) => {
            state.dead = true;
            Err(e)
        }
    }
}

/// Writes bytes that are already framed, as one `write_all`.
fn write_framed(w: &mut impl Write, framed: &[u8]) -> std::io::Result<()> {
    w.write_all(framed)?;
    w.flush()
}

/// The write half of one connection.
#[derive(Debug)]
pub struct ConnWriter {
    id: u64,
    /// Set once the connection is over. `Relaxed` throughout: the flag
    /// publishes no other data, and `close`'s swap picks one closer
    /// under any ordering.
    closed: AtomicBool,
    state: Slot<WriteState<TcpStream>>,
}

impl ConnWriter {
    /// The write half of `stream`, numbered `id`. `write_timeout` bounds
    /// every [`send_framed`](ConnWriter::send_framed) on it (`None` =
    /// block indefinitely — test-only; the server always passes a bound
    /// so a stalled reader cannot park an executor).
    pub fn new(
        id: u64,
        stream: &TcpStream,
        write_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let write_half = stream.try_clone()?;
        write_half.set_write_timeout(write_timeout)?;
        Ok(ConnWriter {
            id,
            closed: AtomicBool::new(false),
            state: Slot::new(WriteState {
                stream: write_half,
                dead: false,
            }),
        })
    }

    /// The connection's number, unique within one server.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the connection is over: answers to it are dropped unsent.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Closes the writer, returning whether this call closed it — so of
    /// several threads that see one connection fail, one handles it.
    pub fn close(&self) -> bool {
        !self.closed.swap(true, Ordering::Relaxed)
    }

    /// Writes a run of frames already length-prefixed back to back (see
    /// [`push_frame`](crate::frame::push_frame)) with one write — how an
    /// executor answers all of one connection's requests in a window, and
    /// how a reader sends its own answers. Concurrent senders serialize on
    /// the slot, so runs never interleave.
    ///
    /// The write half carries the connection's write timeout, so a
    /// client that stopped reading its responses makes this return a
    /// timeout error instead of blocking the calling thread forever. A
    /// timed-out write may have sent a partial frame — the stream is
    /// unrecoverable afterwards, so this writer refuses every subsequent
    /// send (`BrokenPipe`) and the caller must drop the connection.
    pub fn send_framed(&self, framed: &[u8]) -> std::io::Result<()> {
        self.state
            .with(|s| send_locked(s, |w| write_framed(w, framed)))
    }

    /// Shuts both halves of the socket down (best effort), so the
    /// connection's reader thread observes EOF and exits even though it
    /// holds its own clone of the stream.
    pub fn shutdown(&self) {
        self.state.with(|s| {
            let _ = s.stream.shutdown(Shutdown::Both);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{push_frame, write_frame};

    /// A sink that accepts exactly `budget` bytes and then fails every
    /// write with `TimedOut` — the shape of a response write dying
    /// against a stalled reader at an arbitrary byte boundary.
    struct KillAt {
        out: Vec<u8>,
        budget: usize,
    }

    impl Write for KillAt {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "peer stopped reading",
                ));
            }
            let n = buf.len().min(self.budget);
            self.out.extend_from_slice(buf.get(..n).unwrap_or(buf));
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The frame-atomicity proof: kill the write at *every* byte boundary
    /// of a frame and check that (a) the stream holds a strict prefix of
    /// that frame, and (b) a second send is refused without writing a
    /// byte — so a torn frame is always the end of the stream, never
    /// followed by something complete-looking.
    #[test]
    fn killed_write_never_leaves_bytes_after_a_torn_frame() {
        let record: Vec<u8> = (0u8..32).collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &record).unwrap();

        for cut in 0..framed.len() {
            let mut state = WriteState {
                stream: KillAt {
                    out: Vec::new(),
                    budget: cut,
                },
                dead: false,
            };
            let err = send_locked(&mut state, |w| write_frame(w, &record)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
            assert!(state.dead, "a failed send must latch the dead flag");
            assert_eq!(
                state.stream.out,
                framed.get(..cut).unwrap_or(&framed),
                "cut at byte {cut}: stream must hold a strict prefix of the frame"
            );

            // The second frame must be refused outright: no byte of it may
            // appear after the torn frame, even though the sink would now
            // accept writes again.
            state.stream.budget = usize::MAX;
            let refused = send_locked(&mut state, |w| write_frame(w, &record)).unwrap_err();
            assert_eq!(refused.kind(), std::io::ErrorKind::BrokenPipe);
            assert_eq!(
                state.stream.out,
                framed.get(..cut).unwrap_or(&framed),
                "cut at byte {cut}: refused send must not touch the stream"
            );
        }
    }

    /// The same proof for a coalesced run: kill a 3-frame `send_framed`
    /// run at every byte boundary. The stream holds a strict prefix of the
    /// run, and the next send of either shape is refused without touching
    /// it.
    #[test]
    fn killed_run_never_leaves_bytes_after_a_torn_frame() {
        let mut run = Vec::new();
        for len in [32u8, 1, 17] {
            push_frame(&mut run, &(0..len).collect::<Vec<u8>>());
        }
        let single: Vec<u8> = (0u8..8).collect();

        for cut in 0..run.len() {
            let mut state = WriteState {
                stream: KillAt {
                    out: Vec::new(),
                    budget: cut,
                },
                dead: false,
            };
            let err = send_locked(&mut state, |w| write_framed(w, &run)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
            assert!(state.dead, "a failed run must latch the dead flag");
            assert_eq!(
                state.stream.out,
                run.get(..cut).unwrap_or(&run),
                "cut at byte {cut}: stream must hold a strict prefix of the run"
            );

            state.stream.budget = usize::MAX;
            for refused in [
                send_locked(&mut state, |w| write_framed(w, &run)),
                send_locked(&mut state, |w| write_frame(w, &single)),
            ] {
                assert_eq!(refused.unwrap_err().kind(), std::io::ErrorKind::BrokenPipe);
            }
            assert_eq!(
                state.stream.out,
                run.get(..cut).unwrap_or(&run),
                "cut at byte {cut}: refused sends must not touch the stream"
            );
        }
    }

    /// The complement: sends that complete keep the writer healthy, and
    /// consecutive frames land back to back.
    #[test]
    fn healthy_sends_stay_healthy() {
        let record: Vec<u8> = (0u8..32).collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &record).unwrap();

        let mut state = WriteState {
            stream: KillAt {
                out: Vec::new(),
                budget: usize::MAX,
            },
            dead: false,
        };
        send_locked(&mut state, |w| write_frame(w, &record)).unwrap();
        send_locked(&mut state, |w| write_framed(w, &framed)).unwrap();
        assert!(!state.dead);
        assert_eq!(state.stream.out, [framed.clone(), framed].concat());
    }
}
