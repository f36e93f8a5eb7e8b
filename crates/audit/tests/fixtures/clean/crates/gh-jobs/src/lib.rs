//! Clean fixture: the disciplined twin of `seeded`'s gh-jobs crate.
//! Same shapes — a keyed spec, pool submission, a locked cache — with
//! the sanctioned patterns, so every concurrency rule stays silent.

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
    // One exhaustive destructure binds every field, so a new field
    // fails to compile until it is keyed.
    pub fn canonical_key(&self) -> String {
        let Self {
            app,
            small,
            session: SessionOptions { trace, perf },
        } = self;
        format!("app={app};small={small};trace={trace};perf={perf}")
    }
}

pub struct Bus {
    pub seq: u64,
}

pub struct SessionCtx {
    pub bus: Bus,
}

// Pool tasks construct their session inside the task: nothing of the
// submitter's session crosses the closure boundary.
pub fn submit(pool: &Pool, small: bool) {
    pool.spawn(move || {
        let ctx = SessionCtx::fresh(small);
        ctx.bus.emit(1);
    });
}

pub struct JobCache {
    map: Mutex<u64>,
}

impl JobCache {
    pub fn count(&self) -> u64 {
        let g = self.map.lock().expect("cache lock"); // gh-audit: allow(no-unwrap-in-lib) -- poisoning propagates a worker panic
        *g
    }

    // The guard is dropped before calling back into locking code.
    pub fn publish(&self) -> u64 {
        let g = self.map.lock().expect("cache lock"); // gh-audit: allow(no-unwrap-in-lib) -- poisoning propagates a worker panic
        let v = *g;
        drop(g);
        self.count() + v
    }
}

pub fn run_job(spec: &JobSpec) -> u64 {
    let mut cost = if spec.small { 1 } else { 4 };
    if spec.session.perf {
        cost += 1;
    }
    cost
}
