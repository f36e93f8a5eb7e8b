//! `gh-par` — a small data-parallel execution substrate.
//!
//! The Grace Hopper simulator executes *real* application kernels on host
//! memory while a cost model meters every buffer access. The kernels need a
//! parallel runtime to play the role of the GPU's streaming multiprocessors;
//! this crate provides it without pulling in a full framework.
//!
//! Two layers are offered:
//!
//! * [`pool::WorkStealingPool`] — a persistent pool of worker threads with
//!   per-worker LIFO deques and random stealing, for `'static` jobs. This is
//!   the long-lived engine behind the global [`pool::global`] handle.
//! * [`scope`] — borrowing, dynamically scheduled loop primitives
//!   ([`scope::par_for`], [`scope::par_chunks_mut`],
//!   [`scope::par_map_reduce`]) built on `std::thread::scope`, which is what
//!   application kernels use: they can capture plain `&mut [T]` slices with
//!   no `Arc` ceremony and still get work-stealing-style load balance via a
//!   shared chunk counter.
//!
//! Determinism note: scheduling is non-deterministic, so the primitives
//! are written so that results do not depend on it. The loops hand each
//! index or chunk to exactly one worker, so a loop whose iterations write
//! disjoint data is deterministic, and [`scope::par_map_reduce`] folds over a fixed chunk grid (independent of
//! the worker count) and combines the chunk partials in chunk order. A
//! float sum therefore gives the same bits serially, on 2 workers and on
//! 16. The simulator's virtual-time accounting never depends on
//! scheduling order either.
//!
//! ```
//! use gh_par::{par_for, par_map_reduce, Grain};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let hits = AtomicU64::new(0);
//! par_for(0..10_000, Grain::Auto, |_| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.into_inner(), 10_000);
//!
//! let sum = par_map_reduce(0..1000, 0u64, |i| i as u64, |a, b| a + b);
//! assert_eq!(sum, 499_500);
//! ```

#![deny(missing_debug_implementations)]

pub mod deque;
pub mod pool;
pub mod scope;
pub mod sort;

pub use pool::{global, WorkStealingPool};
pub use scope::{par_chunks, par_chunks_mut, par_for, par_map_reduce, Grain};
pub use sort::par_sort_unstable;

/// Returns the degree of parallelism used by default: the number of
/// available CPUs, capped at 16 so simulation runs stay well-behaved on
/// large shared machines.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parallelism_is_positive_and_capped() {
        let p = default_parallelism();
        assert!(p >= 1);
        assert!(p <= 16);
    }
}
