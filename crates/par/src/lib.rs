//! `gh-par` — scoped parallel loops.
//!
//! The Grace Hopper simulator executes *real* application kernels on host
//! memory while a cost model meters every buffer access. The kernels need a
//! parallel runtime to play the role of the GPU's streaming multiprocessors,
//! and the job executor fans the experiment matrix over workers; this crate
//! serves both with one loop and no framework.
//!
//! [`scope::par_map`] is that loop: `std::thread::scope` workers claim
//! indices from a shared atomic cursor, so closures borrow the caller's
//! data with no `Arc` ceremony and still balance uneven work.
//! [`scope::par_chunks_mut`] and [`scope::par_map_reduce`] are built on it.
//!
//! Determinism note: scheduling is non-deterministic, so the primitives
//! are written so that results do not depend on it. The loop hands each
//! index to exactly one worker and returns results in index order, so a
//! loop whose iterations write disjoint data is deterministic, and
//! [`scope::par_map_reduce`] folds over a fixed chunk grid (independent of
//! the worker count) and combines the chunk partials in chunk order. A
//! float sum therefore gives the same bits serially, on 2 workers and on
//! 16. The simulator's virtual-time accounting never depends on
//! scheduling order either.
//!
//! ```
//! use gh_par::{par_map, par_map_reduce};
//!
//! let squares = par_map(1000, 4, |i| i * i);
//! assert_eq!(squares[999], 999 * 999);
//!
//! let sum = par_map_reduce(0..1000, 0u64, |i| i as u64, |a, b| a + b);
//! assert_eq!(sum, 499_500);
//! ```

#![deny(missing_debug_implementations)]

pub mod scope;

pub use scope::{par_chunks_mut, par_map, par_map_reduce};

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
