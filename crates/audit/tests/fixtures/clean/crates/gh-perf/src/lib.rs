//! Clean-fixture twin of the workspace's self-profiler: host-time reads
//! inside `gh-perf` are the sanctioned `no-wall-clock` carve-out and
//! must stay silent here.

use std::time::Instant;

/// Measures host nanoseconds spent in `f` — legal only in this crate.
/// `no-wall-clock` stays silent: the measurement is returned to the
/// profiler's caller, never pushed into a model-visible sink.
pub fn host_time_ns<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos())
}

/// Disciplined twin of seeded's `leak_duration`: what reaches the
/// counter is virtual time; host time stays inside the profiler.
pub fn observe_virtual(c: &Counters, sim_ns: u64) {
    c.observe(sim_ns);
}
