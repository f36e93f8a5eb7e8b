//! Seeded-violation fixture: every per-file rule must fire on this file.
//! Never compiled — consumed by `tests/fixtures.rs` through the engine.

use gh_units::{Bytes, Pages, Vpn};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

pub struct Counters {
    pub total_bytes: u64,
    pub by_node: HashMap<u32, u64>,
}

impl Counters {
    // typed-units (accounting): unchecked `+=` on an
    // accounting accumulator in an accounting crate (gh-mem).
    pub fn tally(&mut self, bytes: u64) {
        self.total_bytes += bytes;
    }

    // unordered-iter-flow: HashMap iteration order flows element-wise
    // into the returned vec — genuinely nondeterministic output.
    pub fn report(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (_, v) in self.by_node.iter() {
            out.push(*v);
        }
        out
    }

    // no-wall-clock: wall time must never enter simulator state.
    pub fn stamp(&self) -> Instant {
        Instant::now()
    }

    // no-float-eq: exact float compare in a cost decision.
    pub fn is_idle(&self, utilization: f64) -> bool {
        utilization == 0.0
    }

    // no-unwrap-in-lib: library code must not abort.
    pub fn first(&self) -> u64 {
        self.report().first().copied().unwrap()
    }
}

// allow-syntax: a suppression without a `-- <reason>` is itself a finding.
pub fn suppressed(x: Option<u64>) -> u64 {
    x.unwrap_or(0) // gh-audit: allow(no-unwrap-in-lib)
}

// no-platform-leak: this fixture tree's `crates/gh-mem/` is NOT the real
// backend path (`crates/mem/`), so naming the cost-model type here leaks.
pub fn build_machine(params: &CostParams) -> u64 {
    params.total_bytes
}

// typed-units: unit-named raw-u64 parameters crossing a public API of a
// model crate (the third hit is `tally`'s `bytes: u64` above).
pub fn span_cost(len_bytes: u64, dur_ns: u64) -> u64 {
    len_bytes.saturating_add(dur_ns)
}

// typed-units (raw casts): an `as u64` launder and a `.0` escape.
pub struct RawBytes(pub u64);

pub fn escape_hatch(count: u32, b: &RawBytes) -> u64 {
    (count as u64).saturating_add(b.0)
}

// epoch-coherence: a placement table (struct with `entries` + `epoch`)
// whose mutator forgets the epoch bump — the span-classification cache
// would serve stale placement. `retire` is the disciplined shape and
// must NOT fire.
pub struct PageTable {
    entries: BTreeMap<u64, u8>,
    epoch: u64,
}

impl PageTable {
    pub fn populate(&mut self, vpn: Vpn, node: u8) {
        self.entries.insert(vpn, node);
    }

    pub fn retire(&mut self, vpn: Vpn) {
        self.entries.remove(&vpn);
        self.epoch = self.epoch.saturating_add(1);
    }
}

// typed-units (laundering): a byte count escapes through `.get()` and is
// rewrapped as a page count with no conversion — off by the page size,
// deterministically wrong.
pub fn pages_from_bytes(b: Bytes) -> Pages {
    Pages::new(b.get())
}

// session-isolation (ambient state): run state in a model crate — a thread-local
// collector, a process-wide mutable flag, a lazy `OnceLock` env latch,
// and a library env read. Four hits total; per-run state belongs on the
// SessionCtx.
thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(Vec::new());
}

pub static mut GLOBAL_FLAG: bool = false;

pub fn trace_latched() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var("GH_TRACE").is_ok())
}
