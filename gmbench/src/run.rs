//! Setting up and running one pass over a workload's jobs.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gh_apps::{Machine, RunReport};
use gh_cuda::SessionOptions;
use gh_jobs::JobCache;
use gh_perf::PerfData;
use gh_sim::platform::{self, MachineConfig, PlatformError};

use crate::check::{digest, Verdict};
use crate::workloads::{self, spec_group, spec_label, Job, Plan, Workload};

/// Session options of the unarmed passes that give end-to-end numbers.
pub fn unarmed() -> SessionOptions {
    SessionOptions {
        sanitize: Some(false),
        ..SessionOptions::default()
    }
}

/// gh-perf armed, trace bus and sanitizer off.
pub fn perf_armed() -> SessionOptions {
    SessionOptions {
        perf: true,
        ..unarmed()
    }
}

/// Trace bus and sanitizer armed, gh-perf off.
pub fn traced() -> SessionOptions {
    SessionOptions {
        trace: true,
        sanitize: Some(true),
        ..SessionOptions::default()
    }
}

/// Everything armed at once: one pass checks all three against the
/// unarmed digests.
pub fn all_armed() -> SessionOptions {
    SessionOptions {
        perf: true,
        ..traced()
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One finished run, reduced to what the checks and metrics read.
#[derive(Debug)]
pub struct Outcome {
    /// Checked against every other run.
    pub verdict: Verdict,
    /// Whether the job runs a real algorithm (see [`Job::algorithmic`]).
    pub algorithmic: bool,
    /// Served from the `gh_jobs` cache without simulating.
    pub cached: bool,
    /// `RunReport::reported_total`, virtual ns.
    pub virtual_ns: u64,
    /// GPU replayable faults (simulated).
    pub gpu_faults: u64,
    /// ATS faults (simulated).
    pub ats_faults: u64,
    /// Bytes migrated in either direction (simulated).
    pub migrated_bytes: u64,
    /// Bytes read or written over NVLink-C2C (simulated).
    pub c2c_bytes: u64,
    /// Trace-bus events recorded, ring drops included.
    pub trace_events: u64,
    /// The run's gh-perf profile when the pass armed it.
    pub perf: Option<PerfData>,
}

impl Outcome {
    fn new(
        label: String,
        group: Option<String>,
        algorithmic: bool,
        cached: bool,
        report: RunReport,
        perf: Option<PerfData>,
    ) -> Self {
        let trace_events = report
            .trace
            .as_ref()
            .map_or(0, |t| t.events.len() as u64 + t.dropped);
        let violations = report
            .sanitizer
            .as_ref()
            .map_or(0, |s| s.violations.len() as u64);
        let t = report.traffic;
        let checksum_bits = report.checksum.to_bits();
        let virtual_ns = report.reported_total();
        Outcome {
            verdict: Verdict {
                label,
                group,
                digest: digest(report),
                checksum_bits,
                violations,
            },
            algorithmic,
            cached,
            virtual_ns,
            gpu_faults: t.gpu_faults,
            ats_faults: t.ats_faults,
            migrated_bytes: t.bytes_migrated_in + t.bytes_migrated_out,
            c2c_bytes: t.c2c_read + t.c2c_write,
            trace_events,
            perf,
        }
    }

    fn of_job(job: &Job, report: RunReport, perf: Option<PerfData>) -> Self {
        Outcome::new(
            job.label(),
            job.checksum_group(),
            job.algorithmic(),
            false,
            report,
            perf,
        )
    }
}

/// A workload's expanded inputs, ready for one pass.
#[derive(Debug)]
pub struct Setup {
    plan: Plan,
    session: SessionOptions,
    /// Probed GPU peak per job (oversubscribed jobs only).
    peaks: Vec<Option<u64>>,
    /// One cold machine per job when booted in set-up.
    machines: Vec<Machine>,
    /// Host ns spent in `machine_session` (and the balloon) in set-up.
    pub boot_ns: u64,
    /// The peak probes' runs, checked like any other.
    pub probes: Vec<Outcome>,
}

/// Expands `seed`, probes oversubscription peaks and, with `boot`,
/// boots one cold machine per job under `session`. A sweep boots each
/// distinct spec once to validate it and time machine set-up;
/// `run_suite` boots its own machines in the pass.
pub fn setup(
    w: Workload,
    seed: u64,
    session: &SessionOptions,
    boot: bool,
) -> Result<Setup, PlatformError> {
    let mut plan = workloads::plan(w, seed);
    let mut peaks = Vec::new();
    let mut machines = Vec::new();
    let mut probes = Vec::new();
    let mut boot_ns = 0;
    match &mut plan {
        Plan::Jobs(jobs) => {
            for j in jobs.iter() {
                let peak = match j.oversub_ratio {
                    Some(_) => {
                        let (peak, r) = j.probe_peak()?;
                        let label = format!("{}/probe", j.label());
                        probes.push(Outcome::new(
                            label,
                            j.checksum_group(),
                            true,
                            false,
                            r,
                            None,
                        ));
                        Some(peak)
                    }
                    None => None,
                };
                peaks.push(peak);
            }
            if boot {
                for (j, peak) in jobs.iter().zip(&peaks) {
                    let b = Instant::now();
                    machines.push(j.boot(session, *peak)?);
                    boot_ns += elapsed_ns(b);
                }
            }
        }
        Plan::Specs(specs) => {
            let mut seen = BTreeSet::new();
            for s in specs.iter_mut() {
                s.session = session.clone();
                if boot && seen.insert(s.stable_hash()) {
                    let p = platform::by_name(&s.platform)?;
                    let cfg = s
                        .page_size
                        .map_or_else(MachineConfig::default, MachineConfig::with_page_size);
                    let b = Instant::now();
                    drop(p.machine_session(&cfg, &s.session)?);
                    boot_ns += elapsed_ns(b);
                }
            }
        }
    }
    Ok(Setup {
        plan,
        session: session.clone(),
        peaks,
        machines,
        boot_ns,
        probes,
    })
}

/// One pass over a workload's jobs.
#[derive(Debug)]
pub struct Pass {
    /// Per-run results in plan order.
    pub outcomes: Vec<Outcome>,
    /// Host ns from the first run's start to the last run's end.
    pub wall_ns: u64,
    /// `gh_jobs` cache hits and lookups (sweep only).
    pub cache_hits: u64,
    /// Cache lookups (sweep only).
    pub cache_lookups: u64,
}

/// Runs every job once. Machines booted in set-up run serially on this
/// thread; otherwise `workers` threads each boot and run jobs in turn
/// (`workers <= 1` runs them inline). Sweeps always go through
/// `gh_jobs::run_suite` with a fresh cache.
pub fn pass(s: Setup, workers: usize) -> Result<Pass, PlatformError> {
    match s.plan {
        Plan::Jobs(jobs) if !s.machines.is_empty() => {
            let t0 = Instant::now();
            let mut runs = Vec::with_capacity(jobs.len());
            for (job, m) in jobs.iter().zip(s.machines) {
                let perf = m.rt.session().perf.clone();
                // Restart the profile window so it covers the run alone,
                // not the wait since set-up.
                drop(perf.take());
                let report = job.run(m);
                runs.push((report, perf.is_on().then(|| perf.take())));
            }
            let wall_ns = elapsed_ns(t0);
            let outcomes = jobs
                .iter()
                .zip(runs)
                .map(|(j, (r, p))| Outcome::of_job(j, r, p))
                .collect();
            Ok(Pass {
                outcomes,
                wall_ns,
                cache_hits: 0,
                cache_lookups: 0,
            })
        }
        Plan::Jobs(jobs) => {
            type Slot = Mutex<Option<Result<RunReport, PlatformError>>>;
            let slots: Vec<Slot> = jobs.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let work = || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let r = job.boot(&s.session, s.peaks[i]).map(|m| job.run(m));
                *slots[i]
                    .lock()
                    .expect("no worker panics while holding a slot") = Some(r);
            };
            let t0 = Instant::now();
            if workers <= 1 {
                work();
            } else {
                std::thread::scope(|sc| {
                    for _ in 0..workers {
                        sc.spawn(work);
                    }
                });
            }
            let wall_ns = elapsed_ns(t0);
            let mut outcomes = Vec::with_capacity(jobs.len());
            for (job, slot) in jobs.iter().zip(slots) {
                let r = slot
                    .into_inner()
                    .expect("no worker panics while holding a slot")
                    .expect("every job index was claimed")?;
                outcomes.push(Outcome::of_job(job, r, None));
            }
            Ok(Pass {
                outcomes,
                wall_ns,
                cache_hits: 0,
                cache_lookups: 0,
            })
        }
        Plan::Specs(specs) => {
            let cache = Arc::new(JobCache::new());
            let t0 = Instant::now();
            let results = gh_jobs::run_suite(&specs, workers, &cache);
            let wall_ns = elapsed_ns(t0);
            let mut outcomes = Vec::with_capacity(specs.len());
            for (spec, r) in specs.iter().zip(results) {
                let o = r?;
                outcomes.push(Outcome::new(
                    spec_label(spec),
                    Some(spec_group(spec)),
                    true,
                    o.cached,
                    o.report,
                    o.perf,
                ));
            }
            Ok(Pass {
                outcomes,
                wall_ns,
                cache_hits: cache.hits(),
                cache_lookups: cache.hits() + cache.misses(),
            })
        }
    }
}

impl Pass {
    /// Virtual ns advanced by the pass, counting each distinct job once
    /// however often it was submitted.
    pub fn virtual_ns(&self) -> u64 {
        let mut seen = BTreeSet::new();
        self.outcomes
            .iter()
            .filter(|o| seen.insert(o.verdict.label.as_str()))
            .map(|o| o.virtual_ns)
            .sum()
    }
}
