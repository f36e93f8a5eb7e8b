//! Borrowing, dynamically scheduled loop primitives.
//!
//! These are built on `std::thread::scope`, so closures may capture
//! non-`'static` references (slices owned by the caller). Load balance comes
//! from *dynamic scheduling*: workers claim indices from a shared atomic
//! cursor, so an uneven workload (BFS frontiers, a job matrix that mixes
//! short and long runs) does not leave threads idle. [`par_map`] is the one
//! such loop; [`par_chunks_mut`] and [`par_map_reduce`] are built on it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Computes `(0..n).map(f)` on up to `workers` threads and returns the
/// results in index order. Each worker claims the next unclaimed index
/// from a shared cursor, so every index runs exactly once and a slow index
/// does not hold up the rest. At most `min(workers, n)` threads work (the
/// caller and the ones it spawns); `workers <= 1` runs inline on the
/// caller. A panic in `f` resumes on the caller once every worker is done.
pub fn par_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut done = claim();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// The base pointer of the slice one [`par_chunks_mut`] call splits.
struct SharedMut<T>(*mut T);

// SAFETY: workers only reach the pointee through `SharedMut::slice`, whose
// contract gives each worker a range no other worker touches; moving those
// `T`s' access to another thread is what `T: Send` permits.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// # Safety
    /// `at + len` must be in bounds of the split slice, no other live view
    /// may overlap `at..at + len`, and the view must not outlive the
    /// `par_chunks_mut` call.
    unsafe fn slice<'a>(&self, at: usize, len: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(at), len)
    }
}

/// Runs `f(chunk_index, chunk)` over disjoint mutable chunks of `data`,
/// `chunk_len` elements each (last chunk may be shorter), in parallel.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let len = data.len();
    let base = SharedMut(data.as_mut_ptr());
    par_map(
        len.div_ceil(chunk_len),
        crate::default_parallelism(),
        |idx| {
            let lo = idx * chunk_len;
            let hi = (lo + chunk_len).min(len);
            // SAFETY: `par_map` hands out each `idx` once, so the `[lo, hi)`
            // ranges are disjoint; they lie inside `data`, whose borrow
            // outlives the call.
            f(idx, unsafe { base.slice(lo, hi - lo) });
        },
    );
}

/// Iterations folded into one partial by [`par_map_reduce`]. A constant,
/// so the chunk grid — and with it every floating-point fold — is the
/// same for any worker count on any machine.
const REDUCE_CHUNK: usize = 4096;

/// Parallel map-reduce over an index range. `map(i)` produces a value per
/// iteration. The range is cut into a fixed grid of [`REDUCE_CHUNK`]
/// iterations; each chunk folds its values in index order starting from
/// `identity`, and the chunk partials are then folded in chunk order,
/// again from `identity`. The grouping never depends on the worker count
/// or on scheduling, so a non-associative `reduce` (a float sum) gives
/// the same bits serially and on any number of workers.
pub fn par_map_reduce<A, M, R>(range: std::ops::Range<usize>, identity: A, map: M, reduce: R) -> A
where
    A: Send + Sync + Clone,
    M: Fn(usize) -> A + Sync,
    R: Fn(A, A) -> A + Sync,
{
    let (start, end) = (range.start, range.end);
    let n_chunks = range.len().div_ceil(REDUCE_CHUNK);
    let partials = par_map(n_chunks, crate::default_parallelism(), |c| {
        let lo = start + c * REDUCE_CHUNK;
        let hi = (lo + REDUCE_CHUNK).min(end);
        (lo..hi).fold(identity.clone(), |acc, i| reduce(acc, map(i)))
    });
    partials.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn par_map_spawns_no_more_threads_than_indices() {
        let ids: HashSet<_> = par_map(3, 64, |_| std::thread::current().id())
            .into_iter()
            .collect();
        assert!(ids.len() <= 3, "{} threads for 3 indices", ids.len());
    }

    #[test]
    fn par_map_single_worker_runs_inline() {
        let me = std::thread::current().id();
        assert!(par_map(100, 1, |_| std::thread::current().id())
            .into_iter()
            .all(|id| id == me));
    }

    #[test]
    #[should_panic(expected = "index 7")]
    fn par_map_propagates_a_worker_panic() {
        par_map(16, 4, |i| assert_ne!(i, 7, "index {i}"));
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut data = vec![0u32; 1000];
        par_chunks_mut(&mut data, 64, |idx, chunk| {
            for x in chunk.iter_mut() {
                *x = idx as u32 + 1;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, (i / 64) as u32 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_handles_non_divisible_len() {
        let mut data = vec![0u8; 103];
        par_chunks_mut(&mut data, 10, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_map_reduce_sums_correctly() {
        let s = par_map_reduce(0..100_000, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(s, 100_000 * 99_999 / 2);
    }

    #[test]
    fn par_map_reduce_empty_returns_identity() {
        let s = par_map_reduce(0..0, 42u64, |_| 0, |a, b| a + b);
        assert_eq!(s, 42);
    }

    #[test]
    fn par_map_reduce_float_sum_is_bit_stable() {
        // Floating-point addition is not associative: the result is only
        // well defined because the chunk grid and the fold order are fixed.
        let f = |i: usize| 1.0f64 / (i as f64 + 1.0);
        let n = 3 * REDUCE_CHUNK + 17;
        let expected = (0..n)
            .collect::<Vec<_>>()
            .chunks(REDUCE_CHUNK)
            .map(|c| c.iter().fold(0.0f64, |a, &i| a + f(i)))
            .fold(0.0f64, |a, b| a + b);
        for _ in 0..20 {
            let got = par_map_reduce(0..n, 0.0f64, f, |a, b| a + b);
            assert_eq!(got.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn par_map_reduce_max() {
        let m = par_map_reduce(0..9999, 0usize, |i| (i * 7919) % 4096, |a, b| a.max(b));
        let expected = (0..9999).map(|i| (i * 7919) % 4096).max().unwrap();
        assert_eq!(m, expected);
    }
}
