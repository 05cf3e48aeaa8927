//! The accumulation window: where cross-connection batching happens.
//!
//! Reader threads [`submit_all`](Batcher::submit_all) the requests one
//! read delivered, under one lock; executor threads
//! [`next_window`](Batcher::next_window) them back out. An executor that
//! finds work waits one configured window first, so
//! requests from *other* connections can pile in — that pile is what
//! turns 64 connections asking about 8 fault sets into 8 eliminations
//! instead of 64.
//!
//! Admission control lives here too: `submit_all` refuses (with the typed
//! [`SubmitError::Busy`]) once the charged-query total would exceed the
//! budget, so a flood degrades into fast, explicit `ServerBusy` responses
//! instead of unbounded memory growth and unbounded latency. Two details
//! make the budget a real bound rather than a suggestion:
//!
//! * every request is charged at least one query ([`Batcher::charge`]),
//!   so a degenerate zero-query request (already rejected at decode, but
//!   belt and braces here) cannot ride through admission for free while
//!   still carrying a full fault set's worth of elimination work;
//! * the charge is released only when the request **has been answered**
//!   ([`Batcher::release`], called by the executor just before it writes
//!   the answers), not when its window is taken — so the budget bounds
//!   queued *plus executing* queries, and N executors cannot stack N
//!   extra budgets of admitted work behind the one being executed. The
//!   release comes before the write so that a client holding an answer
//!   never sees that request's charge still counted; a connection whose
//!   write then fails is forfeited and its queued backlog purged
//!   ([`Batcher::purge`]), so a stalled client cannot keep the budget
//!   full while its own write blocks.
//!
//! This is the one condvar in the crate (the wrapper in `locked.rs`
//! covers plain mutation; a window needs *waiting*). Both sides recover
//! from poisoning the same way `locked::Slot` does.

use ftl_graph::{EdgeId, VertexId};
use std::time::{Duration, Instant};

// The batcher's window condvar: front-end queueing, not the read path.
#[allow(clippy::disallowed_types)]
use std::sync::{Condvar, Mutex, MutexGuard};

/// One decoded request waiting for a window.
#[derive(Debug)]
pub struct Pending {
    /// Registry id of the submitting connection.
    pub conn: u64,
    /// The client's request id, echoed in the response.
    pub request_id: u64,
    /// Accounting principal.
    pub tenant: u32,
    /// The request's fault set.
    pub faults: Vec<EdgeId>,
    /// The request's queries.
    pub queries: Vec<(VertexId, VertexId)>,
    /// When admission accepted it (service latency starts here).
    pub enqueued: Instant,
    /// The request's TTL expiry, if the client set one (`ttl_ms` in the
    /// envelope, anchored at decode time). Expired entries are answered
    /// `DeadlineExceeded` at the window boundary instead of entering
    /// elimination.
    pub deadline: Option<Instant>,
}

impl Pending {
    /// Whether the request's deadline (if any) has passed as of `now`.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

/// A request [`Batcher::submit_all`] refused, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refused {
    /// The client's request id, to answer.
    pub request_id: u64,
    /// Accounting principal.
    pub tenant: u32,
    /// Why it was refused.
    pub error: SubmitError,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending-query budget is full.
    Busy {
        /// Queries already pending.
        pending: u32,
        /// The configured budget.
        budget: u32,
    },
    /// The batcher is closed (server draining).
    ShuttingDown,
}

#[derive(Debug, Default)]
struct State {
    pending: Vec<Pending>,
    pending_queries: usize,
    open: bool,
}

/// The shared accumulation window.
#[derive(Debug)]
pub struct Batcher {
    // Window state + condvar; see module docs.
    #[allow(clippy::disallowed_types)]
    state: Mutex<State>,
    cv: Condvar,
    budget: usize,
    window: Duration,
}

impl Batcher {
    /// A new, open batcher with the given pending-query budget and
    /// accumulation window.
    #[allow(clippy::disallowed_types)]
    pub fn new(budget: usize, window: Duration) -> Self {
        Batcher {
            state: Mutex::new(State {
                pending: Vec::new(),
                pending_queries: 0,
                open: true,
            }),
            cv: Condvar::new(),
            budget,
            window,
        }
    }

    // The batcher's own lock acquisition.
    #[allow(clippy::disallowed_methods)]
    fn locked(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// What one request costs against the budget: its query count, with a
    /// floor of one so no request is ever free to admit.
    pub fn charge(p: &Pending) -> usize {
        p.queries.len().max(1)
    }

    /// Queues every request one read delivered, under one lock. Each is
    /// still charged, and refused if need be, on its own and in order:
    /// `batch` is drained, and the refused ones — over the budget, or
    /// arriving while the batcher drains — are appended to `refused` in
    /// arrival order.
    pub fn submit_all(&self, batch: &mut Vec<Pending>, refused: &mut Vec<Refused>) {
        let mut g = self.locked();
        let was_empty = g.pending.is_empty();
        for p in batch.drain(..) {
            let charge = Batcher::charge(&p);
            let error = if !g.open {
                SubmitError::ShuttingDown
            } else if g.pending_queries + charge > self.budget {
                SubmitError::Busy {
                    pending: g.pending_queries as u32,
                    budget: self.budget as u32,
                }
            } else {
                g.pending_queries += charge;
                g.pending.push(p);
                continue;
            };
            refused.push(Refused {
                request_id: p.request_id,
                tenant: p.tenant,
                error,
            });
        }
        // Wake the executors only when the queue went from empty to
        // non-empty: an executor already holding a window open for queued
        // work sleeps it out, and a wake-up per submit would only cost it
        // a context switch.
        let first = was_empty && !g.pending.is_empty();
        drop(g);
        if first {
            self.cv.notify_all();
        }
    }

    /// Queries charged against the budget — queued plus executing (for
    /// observability and tests).
    pub fn pending_queries(&self) -> usize {
        self.locked().pending_queries
    }

    /// Returns answered requests' charge to the budget. Called by the
    /// executor once requests from [`next_window`](Batcher::next_window)
    /// are answered, just before the answers are written, so the budget
    /// keeps covering executing work, not just the not-yet-taken queue.
    pub fn release(&self, charge: usize) {
        let mut g = self.locked();
        g.pending_queries = g.pending_queries.saturating_sub(charge);
    }

    /// Blocks until work exists, lets the accumulation window elapse, and
    /// takes everything queued. Returns `None` only when the batcher is
    /// closed *and* fully drained — the executor's signal to exit.
    ///
    /// Never returns an empty window: when two executors wake on the same
    /// first submit and both hold a window open, the first to time out
    /// takes everything and the second goes back to waiting for work.
    pub fn next_window(&self) -> Option<Vec<Pending>> {
        let mut g = self.locked();
        loop {
            while g.pending.is_empty() {
                if !g.open {
                    return None;
                }
                g = match self.cv.wait(g) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            // Work exists. Hold the window open so concurrent connections
            // can add to it — unless we're draining, in which case flush
            // fast.
            if g.open && !self.window.is_zero() {
                let deadline = Instant::now() + self.window;
                loop {
                    let now = Instant::now();
                    let Some(left) = deadline.checked_duration_since(now) else {
                        break;
                    };
                    if left.is_zero() || !g.open {
                        break;
                    }
                    g = match self.cv.wait_timeout(g, left) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            }
            // The taken window's charge stays on the budget until the
            // executor calls `release` after executing it — admission
            // control bounds executing work too, not just the queue.
            if !g.pending.is_empty() {
                return Some(std::mem::take(&mut g.pending));
            }
        }
    }

    /// Removes and returns every queued request older than `max_age` (the
    /// watchdog's view of "stuck": a window that should have been taken
    /// within one window duration has sat for N of them).
    ///
    /// The removed entries' charges stay on the budget — exactly like
    /// [`next_window`](Batcher::next_window), the caller decides their
    /// answers and then returns the charge via
    /// [`release`](Batcher::release).
    pub fn take_stale(&self, max_age: Duration) -> Vec<Pending> {
        let now = Instant::now();
        let mut g = self.locked();
        let mut stale = Vec::new();
        let mut i = 0;
        while i < g.pending.len() {
            let too_old = g
                .pending
                .get(i)
                .is_some_and(|p| now.duration_since(p.enqueued) > max_age);
            if too_old {
                stale.push(g.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        stale
    }

    /// Drops every queued request of connection `conn` and returns their
    /// charge to the budget — called when the connection is forfeited
    /// (a failed response write), so its backlog, which could only be
    /// answered to nobody, stops holding budget other connections need.
    /// Requests of it already taken into a window are left to their
    /// executor. Returns how many were dropped.
    pub fn purge(&self, conn: u64) -> usize {
        let mut g = self.locked();
        let before = g.pending.len();
        let mut freed = 0;
        g.pending.retain(|p| {
            let keep = p.conn != conn;
            if !keep {
                freed += Batcher::charge(p);
            }
            keep
        });
        g.pending_queries = g.pending_queries.saturating_sub(freed);
        before - g.pending.len()
    }

    /// Closes the batcher: future submits fail with
    /// [`SubmitError::ShuttingDown`]; executors drain what is queued and
    /// then see `None`.
    pub fn close(&self) {
        self.locked().open = false;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One request through `submit_all`: its refusal, if any.
    fn submit(b: &Batcher, p: Pending) -> Result<(), SubmitError> {
        let mut refused = Vec::new();
        b.submit_all(&mut vec![p], &mut refused);
        refused.pop().map_or(Ok(()), |r| Err(r.error))
    }

    fn pending(queries: usize) -> Pending {
        Pending {
            conn: 1,
            request_id: 1,
            tenant: 0,
            faults: Vec::new(),
            queries: vec![(VertexId::new(0), VertexId::new(1)); queries],
            enqueued: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn budget_rejects_with_typed_busy() {
        let b = Batcher::new(10, Duration::ZERO);
        submit(&b, pending(6)).unwrap();
        submit(&b, pending(4)).unwrap();
        assert_eq!(
            submit(&b, pending(1)),
            Err(SubmitError::Busy {
                pending: 10,
                budget: 10,
            })
        );
        // Taking the window does NOT free the budget — the work is now
        // executing, and the budget bounds that too.
        let w = b.next_window().unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(b.pending_queries(), 10);
        assert!(matches!(
            submit(&b, pending(10)),
            Err(SubmitError::Busy { .. })
        ));
        // Releasing the executed window's charge does.
        b.release(w.iter().map(Batcher::charge).sum());
        assert_eq!(b.pending_queries(), 0);
        submit(&b, pending(10)).unwrap();
    }

    #[test]
    fn zero_query_request_still_charged() {
        // Decode already rejects zero-query requests; the batcher floors
        // the charge at 1 anyway so nothing is ever free to admit.
        let b = Batcher::new(2, Duration::ZERO);
        submit(&b, pending(0)).unwrap();
        submit(&b, pending(0)).unwrap();
        assert_eq!(b.pending_queries(), 2);
        assert!(matches!(
            submit(&b, pending(0)),
            Err(SubmitError::Busy {
                pending: 2,
                budget: 2,
            })
        ));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let b = Batcher::new(100, Duration::ZERO);
        submit(&b, pending(3)).unwrap();
        b.close();
        assert_eq!(submit(&b, pending(1)), Err(SubmitError::ShuttingDown));
        assert_eq!(b.next_window().map(|w| w.len()), Some(1));
        assert!(b.next_window().is_none());
    }

    #[test]
    fn take_stale_removes_old_entries_but_keeps_their_charge() {
        let b = Batcher::new(100, Duration::ZERO);
        let old = Pending {
            enqueued: Instant::now() - Duration::from_millis(50),
            ..pending(3)
        };
        submit(&b, old).unwrap();
        submit(&b, pending(2)).unwrap();
        let stale = b.take_stale(Duration::from_millis(10));
        assert_eq!(stale.len(), 1);
        assert_eq!(stale.first().map(|p| p.queries.len()), Some(3));
        // The charge is NOT released by the take — the watchdog releases
        // it after answering, like an executor would.
        assert_eq!(b.pending_queries(), 5);
        b.release(stale.iter().map(Batcher::charge).sum());
        assert_eq!(b.pending_queries(), 2);
        // The fresh entry is still queued for a real window.
        assert_eq!(b.next_window().map(|w| w.len()), Some(1));
    }

    #[test]
    fn purge_drops_one_connections_backlog_and_its_charge() {
        let b = Batcher::new(100, Duration::ZERO);
        for conn in [1, 2, 1] {
            submit(&b, Pending { conn, ..pending(3) }).unwrap();
        }
        assert_eq!(b.purge(1), 2);
        assert_eq!(b.pending_queries(), 3);
        let w = b.next_window().unwrap();
        assert_eq!(w.iter().map(|p| p.conn).collect::<Vec<_>>(), [2]);
        assert_eq!(b.purge(1), 0);
    }

    #[test]
    fn expired_at_tracks_the_deadline() {
        let now = Instant::now();
        let mut p = pending(1);
        assert!(!p.expired_at(now), "no deadline never expires");
        p.deadline = Some(now + Duration::from_secs(1));
        assert!(!p.expired_at(now));
        assert!(p.expired_at(now + Duration::from_secs(2)));
    }

    #[test]
    fn window_accumulates_across_threads() {
        let b = Arc::new(Batcher::new(1000, Duration::from_millis(40)));
        let b2 = Arc::clone(&b);
        submit(&b, pending(1)).unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            submit(&b2, pending(1)).unwrap();
        });
        // The window opened on the first submit but must still include the
        // one that lands 10ms later.
        let w = b.next_window().unwrap();
        late.join().unwrap();
        assert_eq!(w.len(), 2);
    }
    #[test]
    fn submit_all_charges_and_refuses_each_request_in_order() {
        let b = Batcher::new(10, Duration::ZERO);
        let mut batch: Vec<Pending> = [4, 8, 6, 1]
            .into_iter()
            .enumerate()
            .map(|(i, q)| Pending {
                request_id: i as u64,
                ..pending(q)
            })
            .collect();
        let mut refused = Vec::new();
        b.submit_all(&mut batch, &mut refused);
        // 4 fits, 8 does not (4 + 8 > 10), 6 fits exactly, 1 no longer fits.
        assert!(batch.is_empty(), "the batch is drained");
        assert_eq!(
            refused,
            vec![
                Refused {
                    request_id: 1,
                    tenant: 0,
                    error: SubmitError::Busy {
                        pending: 4,
                        budget: 10,
                    },
                },
                Refused {
                    request_id: 3,
                    tenant: 0,
                    error: SubmitError::Busy {
                        pending: 10,
                        budget: 10,
                    },
                },
            ]
        );
        assert_eq!(b.pending_queries(), 10);
        let w = b.next_window().unwrap();
        assert_eq!(w.iter().map(|p| p.request_id).collect::<Vec<_>>(), [0, 2]);

        b.close();
        refused.clear();
        batch.push(pending(1));
        b.submit_all(&mut batch, &mut refused);
        assert_eq!(
            refused.first().map(|r| &r.error),
            Some(&SubmitError::ShuttingDown)
        );
    }

    /// Two executors wait; one submit wakes both, and both hold a window
    /// open. Exactly one gets the work; the other must keep waiting — it
    /// returns `None` only once the batcher closes, never an empty window.
    #[test]
    fn two_waiters_one_submit_never_yields_an_empty_window() {
        let b = Arc::new(Batcher::new(100, Duration::from_millis(20)));
        let start = Arc::new(std::sync::Barrier::new(3));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (b, start, tx) = (Arc::clone(&b), Arc::clone(&start), tx.clone());
                std::thread::spawn(move || {
                    start.wait();
                    tx.send(b.next_window().map(|w| w.len())).unwrap();
                })
            })
            .collect();
        start.wait();
        // Let both waiters reach the condvar before the submit.
        std::thread::sleep(Duration::from_millis(20));
        submit(&b, pending(1)).unwrap();
        let first = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(first, Some(1), "one waiter takes the request");
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(200)),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "the other waiter must not return an empty window"
        );
        b.close();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), None);
        for w in waiters {
            w.join().unwrap();
        }
    }
}
