//! The one place in `ftl-server` allowed to name a lock.
//!
//! Everything mutable-and-shared in the front end (connection writers,
//! tenant counters) funnels through [`Slot`], so
//! clippy's `disallowed_types`/`disallowed_methods` lock wall has exactly
//! one module to bless. The serving *data* path — store
//! reads, elimination, query answering — never touches this module; locks
//! here guard front-end plumbing only, and every hold is a short critical
//! section around a closure (no I/O-free guarantee is claimed: a
//! connection writer deliberately holds its slot across the socket write
//! so response frames from concurrent executors cannot interleave).
//!
//! Poisoning is recovered, not propagated: a panicking thread (already
//! contained by the engine's catch_unwind or fatal to its own connection)
//! must not wedge every other connection, so [`Slot::with`] takes the
//! inner value out of a poisoned lock and carries on.

// The blessed front-end lock wrapper; see module docs.
#[allow(clippy::disallowed_types)]
use std::sync::Mutex;

/// A mutex the rest of the crate can use without naming one.
#[derive(Debug, Default)]
pub(crate) struct Slot<T> {
    #[allow(clippy::disallowed_types)]
    inner: Mutex<T>,
}

impl<T> Slot<T> {
    /// Wraps a value.
    #[allow(clippy::disallowed_types)]
    pub fn new(value: T) -> Self {
        Slot {
            inner: Mutex::new(value),
        }
    }

    /// Runs `f` with the value locked, recovering from poisoning.
    // The one lock acquisition in the front end outside the batcher.
    #[allow(clippy::disallowed_methods)]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }
}
