//! Seeded-tree gh-perf twin: even in the violation-seeded workspace the
//! `no-wall-clock` exemption must keep host-time reads here silent while
//! the identical idents in `gh-mem/src/lib.rs` fire. What is seeded
//! *here* is the rule's gh-perf half: following host-time values into
//! model-visible sinks, which the per-crate read exemption cannot see,
//! even inside the profiler.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Exercises every banned ident the token rule knows about; merely
/// *reading* host time here is sanctioned, and `no-wall-clock` stays
/// silent because no sink is reached.
pub fn all_banned_idents() -> u128 {
    let t0 = Instant::now();
    let wall = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    wall + t0.elapsed().as_nanos()
}

/// no-wall-clock: a measured duration leaks into a counter — the
/// per-crate `no-wall-clock` exemption cannot see this; the taint rule
/// must.
pub fn leak_duration(c: &Counters) {
    let t0 = Instant::now();
    c.observe(t0.elapsed().as_nanos() as u64);
}
