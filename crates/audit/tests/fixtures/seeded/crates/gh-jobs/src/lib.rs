//! Seeded-violation fixture for the session and executor rules: exactly one
//! finding each for `cache-key-completeness` and `session-isolation`.
//! Never compiled — consumed by `tests/fixtures.rs` through the
//! engine.

pub struct SessionOptions {
    pub trace: bool,
    pub perf: bool,
}

pub struct JobSpec {
    pub app: String,
    pub small: bool,
    pub session: SessionOptions,
}

impl JobSpec {
    // cache-key-completeness: fields are read one by one, so nothing
    // stops `session.perf` (which steers `run_job`) from being left out
    // of the key — the cache would serve one config's report for both.
    pub fn canonical_key(&self) -> String {
        format!(
            "app={};small={};trace={}",
            self.app, self.small, self.session.trace
        )
    }
}

pub struct Bus {
    pub seq: u64,
}

pub struct SessionCtx {
    pub bus: Bus,
}

// session-isolation: the submitter's Bus handle is cloned into a pool
// task; tasks must construct their session inside the closure.
pub fn submit(pool: &Pool, ctx: &SessionCtx) {
    let bus = ctx.bus.clone();
    pool.spawn(move || bus.emit(1));
}

pub fn run_job(spec: &JobSpec) -> u64 {
    let mut cost = if spec.small { 1 } else { 4 };
    if spec.session.perf {
        cost += 1;
    }
    cost
}
