//! Borrowing, dynamically scheduled loop primitives.
//!
//! These are built on `std::thread::scope`, so closures may capture
//! non-`'static` references (slices owned by the caller). Load balance comes
//! from *dynamic chunk scheduling*: the iteration space is cut into chunks
//! of [`Grain`] size and workers claim chunks from a shared atomic cursor,
//! so an uneven workload (e.g. BFS frontiers) does not leave threads idle.

// gh-audit: allow-file(no-unwrap-in-lib) -- mutex poisoning means a worker panicked; propagating the panic is the only sound response
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunking policy for the scoped loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    /// Fixed number of iterations per claimed chunk.
    Fixed(usize),
    /// Split the range into roughly `4 × workers` chunks (a good default:
    /// large enough to amortize the claim, small enough to balance).
    Auto,
}

impl Grain {
    fn chunk_len(self, total: usize, workers: usize) -> usize {
        match self {
            Grain::Fixed(n) => n.max(1),
            Grain::Auto => (total / (workers * 4).max(1)).max(1),
        }
    }
}

fn effective_workers(total: usize) -> usize {
    crate::default_parallelism().min(total.max(1))
}

/// Runs `f(i)` for every `i` in `range`, in parallel, with dynamic
/// scheduling. Blocks until every iteration has completed.
pub fn par_for<F>(range: std::ops::Range<usize>, grain: Grain, f: F)
where
    F: Fn(usize) + Sync,
{
    let total = range.len();
    if total == 0 {
        return;
    }
    let workers = effective_workers(total);
    if workers == 1 {
        for i in range {
            f(i);
        }
        return;
    }
    let chunk = grain.chunk_len(total, workers);
    let cursor = AtomicUsize::new(0);
    let start = range.start;
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                if lo >= total {
                    return;
                }
                let hi = (lo + chunk).min(total);
                for i in lo..hi {
                    f(start + i);
                }
            });
        }
    });
}

/// Runs `f(chunk_index, chunk)` over disjoint mutable chunks of `data`,
/// `chunk_len` elements each (last chunk may be shorter), in parallel.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    if n_chunks == 0 {
        return;
    }
    let workers = effective_workers(n_chunks);
    if workers == 1 {
        for (idx, c) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, c);
        }
        return;
    }
    // Pre-split into raw chunk descriptors so each worker can claim chunks
    // dynamically. Safety: chunks are disjoint by construction, each chunk
    // index is claimed exactly once via the atomic cursor, and the scope
    // outlives no reference.
    let base = data.as_mut_ptr();
    let len = data.len();
    let cursor = AtomicUsize::new(0);
    struct SendPtr<T>(*mut T);
    // SAFETY: the pointer is only dereferenced through disjoint [lo, hi)
    // ranges claimed via the atomic cursor, within the enclosing scope.
    unsafe impl<T> Send for SendPtr<T> {}
    unsafe impl<T> Sync for SendPtr<T> {}
    let base = SendPtr(base);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let base = &base;
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n_chunks {
                        return;
                    }
                    let lo = idx * chunk_len;
                    let hi = (lo + chunk_len).min(len);
                    // SAFETY: [lo, hi) ranges for distinct idx are disjoint
                    // and within bounds; idx is claimed exactly once.
                    let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
                    f(idx, chunk);
                }
            });
        }
    });
}

/// Runs `f(chunk_index, chunk)` over disjoint shared chunks of `data`.
pub fn par_chunks<T, F>(data: &[T], chunk_len: usize, f: F)
where
    T: Sync,
    F: Fn(usize, &[T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    if n_chunks == 0 {
        return;
    }
    par_for(0..n_chunks, Grain::Fixed(1), |idx| {
        let lo = idx * chunk_len;
        let hi = (lo + chunk_len).min(data.len());
        f(idx, &data[lo..hi]);
    });
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
    R: Fn(A, A) -> A + Sync + Send,
{
    let (start, end) = (range.start, range.end);
    let n_chunks = range.len().div_ceil(REDUCE_CHUNK);
    let fold_chunk = |c: usize| {
        let lo = start + c * REDUCE_CHUNK;
        let hi = (lo + REDUCE_CHUNK).min(end);
        (lo..hi).fold(identity.clone(), |acc, i| reduce(acc, map(i)))
    };
    let mut partials = vec![identity.clone(); n_chunks];
    par_chunks_mut(&mut partials, 1, |c, slot| slot[0] = fold_chunk(c));
    partials.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_for(0..n, Grain::Auto, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_respects_range_offset() {
        let seen = std::sync::Mutex::new(Vec::new());
        par_for(100..110, Grain::Fixed(3), |i| {
            seen.lock().unwrap().push(i);
        });
        let mut v = seen.into_inner().unwrap();
        v.sort_unstable();
        assert_eq!(v, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn par_for_empty_range_is_noop() {
        par_for(5..5, Grain::Auto, |_| panic!("must not run"));
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
    fn par_chunks_shared_reads_all() {
        let data: Vec<u64> = (0..5000).collect();
        let sum = AtomicU64::new(0);
        par_chunks(&data, 128, |_, chunk| {
            sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5000 * 4999 / 2);
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
