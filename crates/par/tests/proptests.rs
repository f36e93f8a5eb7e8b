//! Property tests: parallel primitives must agree with their sequential
//! counterparts for any input shape.

use gh_par::{par_chunks_mut, par_map, par_map_reduce};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

proptest! {
    #[test]
    fn par_map_matches_sequential_map(n in 0usize..5000, workers in 1usize..=8) {
        let calls: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let f = |i: usize| (i as u64).wrapping_mul(2654435761) ^ 0x5bd1;
        let par = par_map(n, workers, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            f(i)
        });
        prop_assert_eq!(par, (0..n).map(f).collect::<Vec<_>>());
        prop_assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_applies_exactly_once(len in 0usize..5000, chunk in 1usize..512) {
        let mut data = vec![0u32; len];
        par_chunks_mut(&mut data, chunk, |_, c| {
            for x in c.iter_mut() { *x += 1; }
        });
        prop_assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_map_reduce_matches_fold(len in 0usize..3000) {
        let par = par_map_reduce(0..len, 0u64, |i| (i as u64).wrapping_mul(2654435761), |a, b| a.wrapping_add(b));
        let seq = (0..len).fold(0u64, |a, i| a.wrapping_add((i as u64).wrapping_mul(2654435761)));
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn par_chunks_mut_chunk_indices_cover_data(len in 1usize..3000, chunk in 1usize..256) {
        let mut data = vec![u32::MAX; len];
        par_chunks_mut(&mut data, chunk, |idx, c| {
            for x in c.iter_mut() { *x = idx as u32; }
        });
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(x as usize, i / chunk);
        }
    }
}
