//! Minimal fork-join data parallelism for the construction sweeps.
//!
//! The labeling and routing schemes spend their preprocessing time in
//! embarrassingly parallel per-vertex / per-edge / per-tree sweeps. This
//! crate provides the one primitive they need — an order-preserving indexed
//! parallel map — implemented with `std::thread::scope` so the workspace
//! stays dependency-free (the build environment has no crates registry, so
//! rayon itself is unavailable).
//!
//! Work is split into contiguous chunks across
//! `std::thread::available_parallelism()` scoped threads. A sweep shorter
//! than its caller's threshold, or a host that reports one core (or no
//! thread support at all), runs as a plain loop on the calling thread.
//! Results are bit-identical either way: every closure is pure in its
//! index and chunk results are spliced back in order.
//!
//! `README.md` at the repo root shows where the fork-join sweeps sit in
//! the build pipeline; threaded failure modes are in `docs/robustness.md`.

#![forbid(unsafe_code)]

/// Minimum sweep size before threads are spawned, for fine-grained items.
/// Each `std::thread::scope` worker costs tens of µs to spawn (there is no
/// pool), so sweeps whose items take tens to hundreds of ns, like label
/// assembly, only win well into the thousands of items. Call sites with
/// heavier items pass a lower `min_len` to [`par_map_indexed`].
pub const MIN_PARALLEL_LEN: usize = 4096;

/// Order-preserving parallel map over `0..n`: returns
/// `vec![f(0), f(1), .., f(n-1)]`.
///
/// `f` must be pure in its index argument: chunks execute concurrently in
/// unspecified relative order. The sweep stays serial below `min_len`
/// items (and always below two). Pick roughly `(threads × spawn cost) /
/// per-item cost`: [`MIN_PARALLEL_LEN`] for items of tens of ns, `2` for
/// items of milliseconds.
pub fn par_map_indexed<U, F>(n: usize, min_len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    match sweep_threads(n, min_len) {
        1 => (0..n).map(f).collect(),
        threads => par_map_chunked(n, threads, &f),
    }
}

/// Threads to split a sweep of `n` items over. 1, which selects the
/// serial loop, below `min_len` (or two) items, on a one-core host, and
/// where the platform cannot say (for instance, one without threads).
fn sweep_threads(n: usize, min_len: usize) -> usize {
    if n < min_len.max(2) {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

/// Chunked parallel for-each over a mutable slice of `n_items` equal-stride
/// items: `data.len()` must be a multiple of `n_items`, and item `i`
/// occupies `data[i * stride .. (i + 1) * stride]`. The slice is split into
/// contiguous per-thread chunks **on item boundaries** and `f(first_item,
/// chunk)` runs once per chunk, where `chunk` covers items `first_item ..
/// first_item + chunk.len() / stride`.
///
/// This is the arena-sweep primitive: a labeling pass that accumulates into
/// one big allocation (e.g. the per-vertex sketch bank) hands each thread a
/// disjoint window of it, with any per-chunk scratch allocated once per
/// chunk instead of once per item. Sweeps below `min_items` run serially on
/// the calling thread; `f` must depend only on `first_item` and the chunk
/// contents, so the serial and parallel paths are bit-identical.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n_items` (for `n_items >
/// 0`); re-raises any worker panic with its original payload.
pub fn par_for_each_chunk_mut<T, F>(data: &mut [T], n_items: usize, min_items: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if n_items == 0 {
        return;
    }
    assert_eq!(data.len() % n_items, 0, "data not item-aligned");
    let stride = data.len() / n_items;
    if stride == 0 {
        // Zero-width items: nothing to split on; run in place so the
        // serial and parallel paths invoke `f` identically.
        f(0, data);
        return;
    }
    let threads = sweep_threads(n_items, min_items);
    if threads == 1 {
        f(0, data);
        return;
    }
    let per_chunk = n_items.div_ceil(threads.min(n_items));
    let f = &f; // shared by reference: F: Sync makes &F Send
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut rest = data;
        let mut first = 0usize;
        while !rest.is_empty() {
            let take = (per_chunk * stride).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let start = first;
            handles.push(scope.spawn(move || f(start, chunk)));
            first += take / stride;
            rest = tail;
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

fn par_map_chunked<U, F>(n: usize, threads: usize, f: &F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let chunk = n.div_ceil(threads.min(n));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n.div_ceil(chunk))
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<U>>())
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            // Re-raise worker panics with their original payload so an
            // assertion message reads the same whether the sweep took the
            // serial or the parallel path.
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_small_and_large() {
        for n in [0, 1, MIN_PARALLEL_LEN - 1, MIN_PARALLEL_LEN, 1000] {
            let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
            assert_eq!(
                par_map_indexed(n, MIN_PARALLEL_LEN, |i| i * i),
                expect,
                "n = {n}"
            );
        }
    }

    #[test]
    fn coarse_map_matches_sequential_below_min_len() {
        for n in [0usize, 1, 2, 3, MIN_PARALLEL_LEN] {
            let expect: Vec<usize> = (0..n).map(|i| i + 7).collect();
            assert_eq!(par_map_indexed(n, 2, |i| i + 7), expect, "n = {n}");
        }
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(1000, 2, |i| {
                assert!(i != 900, "original assertion message");
                i
            })
        })
        .expect_err("sweep must panic");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("original assertion message"),
            "payload was replaced: {msg:?}"
        );
    }

    #[test]
    fn chunked_mut_sweep_touches_every_item_once() {
        // 100 items of stride 7; each chunk writes item indices into its
        // window — every slot must end up holding its own item index.
        for (n, min) in [(100usize, 2), (100, 1000), (1, 2), (0, 2)] {
            let stride = 7;
            let mut data = vec![usize::MAX; n * stride];
            par_for_each_chunk_mut(&mut data, n, min, |first, chunk| {
                for (k, item) in chunk.chunks_exact_mut(stride).enumerate() {
                    for slot in item.iter_mut() {
                        *slot = first + k;
                    }
                }
            });
            let expect: Vec<usize> = (0..n)
                .flat_map(|i| std::iter::repeat_n(i, stride))
                .collect();
            assert_eq!(data, expect, "n = {n}, min = {min}");
        }
    }

    #[test]
    #[should_panic(expected = "not item-aligned")]
    fn chunked_mut_rejects_misaligned_data() {
        let mut data = vec![0u8; 10];
        par_for_each_chunk_mut(&mut data, 3, 2, |_, _| {});
    }

    #[test]
    fn heavy_closure_results_spliced_in_order() {
        let out = par_map_indexed(300, 2, |i| {
            // Unequal per-item work to exercise chunk imbalance.
            (0..(i % 7) * 100).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64))
        });
        let expect: Vec<u64> = (0..300)
            .map(|i| {
                (0..(i % 7) * 100).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64))
            })
            .collect();
        assert_eq!(out, expect);
    }
}
