//! Per-layer metrics, read from the gh-perf profiles and the simulated
//! counts of a traced cycle of passes.

use gh_perf::{PerfData, PhasePerf, SpanAgg};

use crate::run::Outcome;
use crate::stats::{ms, ratio};

/// The per-layer metrics one traced cycle yields, `(name, unit)`, in
/// output order. With the checker's `failed_ratio` after them they are
/// `per_layer` in `BENCHMARK.json`.
pub const METRICS: [(&str, &str); 31] = [
    ("gh-cuda.kernel_ms", "ms"),
    ("gh-cuda.ns_per_tlb_walk", "ns"),
    ("gh-cuda.kernel_launches", "count"),
    ("gh-cuda.fast_spans", "count"),
    ("gh-cuda.batch_runs", "count"),
    ("gh-cuda.memcpy_ms", "ms"),
    ("gh-cuda.uvm_ms", "ms"),
    ("gh-cuda.migrated_pages", "count"),
    ("gh-cuda.ns_per_migrated_page", "ns"),
    ("gh-apps.algo_ms", "ms"),
    ("gh-mem.tlb_walks", "count"),
    ("gh-mem.tlb_misses", "count"),
    ("gh-mem.tlb_miss_ratio", "ratio"),
    ("gh-os.faults", "count"),
    ("gh-sim.phase_ms.alloc", "ms"),
    ("gh-sim.phase_ms.cpu_init", "ms"),
    ("gh-sim.phase_ms.compute", "ms"),
    ("gh-sim.phase_ms.dealloc", "ms"),
    ("gh-sim.machine_setup_ms", "ms"),
    ("gh-sim.virtual_ms", "ms"),
    ("gh-sim.gpu_faults", "count"),
    ("gh-sim.ats_faults", "count"),
    ("gh-sim.migrated_mib", "MiB"),
    ("gh-sim.c2c_mib", "MiB"),
    ("gh-jobs.cache_hit_ratio", "ratio"),
    ("gh-jobs.overhead_ms", "ms"),
    ("gh-par.sweep_speedup", "ratio"),
    ("gh-perf.overhead_ratio", "ratio"),
    ("gh-trace.overhead_ratio", "ratio"),
    ("gh-trace.events", "count"),
    ("gh-units.sanitizer_violations", "count"),
];

const KERNEL_PREFIX: &str = "kernel:";
const MEMCPY_SPANS: [&str; 2] = ["memcpy", "memcpy_2d"];

/// Host time of one profile, split between the compute phase, kernel
/// spans and memcpy spans. Spans nested in a kernel or memcpy span are
/// counted once, as part of the outermost one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HostSplit {
    /// Host ns inside the compute phase.
    pub compute_ns: u64,
    /// Host ns inside `kernel:*` spans, any phase.
    pub kernel_ns: u64,
    /// Host ns inside memcpy spans, any phase.
    pub memcpy_ns: u64,
    /// Kernel span ns within the compute phase.
    pub compute_kernel_ns: u64,
    /// Memcpy span ns within the compute phase.
    pub compute_memcpy_ns: u64,
}

impl HostSplit {
    /// Splits one profile.
    pub fn of(d: &PerfData) -> Self {
        let mut s = HostSplit {
            compute_ns: phase_ns(&d.phases, "compute"),
            ..HostSplit::default()
        };
        for span in &d.spans {
            let mut frames = span.path.split(';');
            let root = frames.next().unwrap_or("");
            let frames: Vec<&str> = frames.collect();
            let Some((last, ancestors)) = frames.split_last() else {
                continue;
            };
            if ancestors.iter().any(|f| outer(f)) {
                continue;
            }
            let in_compute = root == "compute";
            if last.starts_with(KERNEL_PREFIX) {
                s.kernel_ns += span.total_ns;
                if in_compute {
                    s.compute_kernel_ns += span.total_ns;
                }
            } else if MEMCPY_SPANS.contains(last) {
                s.memcpy_ns += span.total_ns;
                if in_compute {
                    s.compute_memcpy_ns += span.total_ns;
                }
            }
        }
        s
    }

    /// Compute-phase host ns outside kernel and memcpy spans: the app
    /// algorithm, or for a run without one, prefetch, migration and
    /// eviction. Never negative: span timing granularity can make the
    /// spans add up to slightly more than the phase.
    pub fn outside_ns(&self) -> u64 {
        self.compute_ns
            .saturating_sub(self.compute_kernel_ns + self.compute_memcpy_ns)
    }
}

fn outer(frame: &str) -> bool {
    frame.starts_with(KERNEL_PREFIX) || MEMCPY_SPANS.contains(&frame)
}

fn phase_ns(phases: &[PhasePerf], label: &str) -> u64 {
    phases
        .iter()
        .filter(|p| p.label == label)
        .map(|p| p.host_ns)
        .sum()
}

/// The timings of one traced cycle, as the benchmark measured them
/// around its calls into each layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleTimes {
    /// Unarmed serial pass wall ns.
    pub unarmed_ns: u64,
    /// The same jobs on `nproc` workers, machine set-up included; for
    /// job plans the serial side adds its set-up boots.
    pub parallel_ns: u64,
    /// Serial-side boot ns (job plans), counted into the speed-up base.
    pub serial_boot_ns: u64,
    /// gh-perf-armed serial pass wall ns.
    pub perf_ns: u64,
    /// `machine_session` ns in the gh-perf-armed pass's set-up.
    pub perf_boot_ns: u64,
    /// Trace-and-sanitize serial pass wall ns.
    pub traced_ns: u64,
    /// Cache hits of the gh-perf-armed (serial, so deterministic) pass.
    pub cache_hits: u64,
    /// Cache lookups of the same pass.
    pub cache_lookups: u64,
}

/// Computes every metric of [`METRICS`], in order, from one cycle:
/// `profiled` are the gh-perf-armed runs, `traced` the trace-and-
/// sanitize runs.
pub fn metrics(t: &CycleTimes, profiled: &[Outcome], traced: &[Outcome]) -> Vec<f64> {
    let profiles: Vec<&PerfData> = profiled.iter().filter_map(|o| o.perf.as_ref()).collect();
    let ctr = |name: &str| profiles.iter().map(|d| d.counter(name)).sum::<u64>();
    let (mut kernel, mut memcpy, mut algo, mut uvm) = (0, 0, 0, 0);
    for o in profiled {
        let Some(d) = &o.perf else { continue };
        let s = HostSplit::of(d);
        kernel += s.kernel_ns;
        memcpy += s.memcpy_ns;
        if o.algorithmic {
            algo += s.outside_ns();
        } else {
            uvm += s.outside_ns();
        }
    }
    let phase = |label: &str| ms(profiles.iter().map(|d| phase_ns(&d.phases, label)).sum());
    let host_total: u64 = profiles.iter().map(|d| d.host_total_ns).sum();
    let simulated = || profiled.iter().filter(|o| !o.cached);
    let sum = |f: fn(&Outcome) -> u64| simulated().map(f).sum::<u64>();
    let walks = ctr("tlb.walks");
    let misses = ctr("tlb.misses");
    let migrated = ctr("uvm.migrated_pages");
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    vec![
        ms(kernel),
        ratio(kernel as f64, walks as f64),
        ctr("cuda.kernel_launches") as f64,
        ctr("access.fast_spans") as f64,
        ctr("access.batch_runs") as f64,
        ms(memcpy),
        ms(uvm),
        migrated as f64,
        ratio(uvm as f64, migrated as f64),
        ms(algo),
        walks as f64,
        misses as f64,
        ratio(misses as f64, walks as f64),
        ctr("os.faults") as f64,
        phase("alloc"),
        phase("cpu_init"),
        phase("compute"),
        phase("dealloc"),
        ms(t.perf_boot_ns),
        ms(sum(|o| o.virtual_ns)),
        sum(|o| o.gpu_faults) as f64,
        sum(|o| o.ats_faults) as f64,
        mib(sum(|o| o.migrated_bytes)),
        mib(sum(|o| o.c2c_bytes)),
        ratio(t.cache_hits as f64, t.cache_lookups as f64),
        ms(t.perf_ns.saturating_sub(host_total)),
        ratio(
            (t.unarmed_ns + t.serial_boot_ns) as f64,
            t.parallel_ns as f64,
        ),
        ratio(t.perf_ns as f64, t.unarmed_ns as f64),
        ratio(t.traced_ns as f64, t.unarmed_ns as f64),
        traced.iter().map(|o| o.trace_events).sum::<u64>() as f64,
        traced.iter().map(|o| o.verdict.violations).sum::<u64>() as f64,
    ]
}

/// Merges per-run profiles into one whose span and phase paths are
/// rooted at each run's label, for `gh_perf::export::folded`.
pub fn merged_profile<'a>(runs: impl IntoIterator<Item = (&'a str, &'a PerfData)>) -> PerfData {
    let mut m = PerfData::default();
    for (root, d) in runs {
        m.host_total_ns += d.host_total_ns;
        m.sim_total_ns += d.sim_total_ns;
        m.runs += d.runs;
        m.phases.extend(d.phases.iter().map(|p| PhasePerf {
            label: format!("{root};{}", p.label),
            ..p.clone()
        }));
        m.spans.extend(d.spans.iter().map(|s| SpanAgg {
            path: format!("{root};{}", s.path),
            ..s.clone()
        }));
        for &(name, v) in &d.counters {
            match m.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => *acc += v,
                None => m.counters.push((name, v)),
            }
        }
        m.peak_rss_bytes = m.peak_rss_bytes.max(d.peak_rss_bytes);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, total_ns: u64) -> SpanAgg {
        SpanAgg {
            path: path.into(),
            count: 1,
            total_ns,
            self_ns: total_ns,
        }
    }

    fn phase(label: &str, host_ns: u64) -> PhasePerf {
        PhasePerf {
            label: label.into(),
            count: 1,
            host_ns,
            sim_ns: 1,
        }
    }

    #[test]
    fn split_subtracts_compute_phase_kernels_and_copies() {
        let d = PerfData {
            phases: vec![phase("compute", 1000), phase("cpu_init", 500)],
            spans: vec![
                span("compute;kernel:a", 300),
                span("compute;kernel:a;inner", 100),
                span("compute;memcpy", 200),
                span("compute;kernel:b;memcpy", 50),
                span("cpu_init;memcpy_2d", 70),
                span("cpu_init;kernel:init", 40),
            ],
            ..PerfData::default()
        };
        let s = HostSplit::of(&d);
        assert_eq!(s.kernel_ns, 340, "nested spans are not counted twice");
        assert_eq!(s.memcpy_ns, 270);
        assert_eq!((s.compute_kernel_ns, s.compute_memcpy_ns), (300, 200));
        assert_eq!(s.outside_ns(), 500);
    }

    #[test]
    fn outside_time_never_goes_negative() {
        let d = PerfData {
            phases: vec![phase("compute", 100)],
            spans: vec![span("compute;kernel:a", 90), span("compute;memcpy", 30)],
            ..PerfData::default()
        };
        assert_eq!(HostSplit::of(&d).outside_ns(), 0);
        assert_eq!(HostSplit::of(&PerfData::default()).outside_ns(), 0);
    }

    #[test]
    fn zero_denominators_give_zero_not_nan() {
        let v = metrics(&CycleTimes::default(), &[], &[]);
        assert_eq!(v.len(), METRICS.len());
        assert!(v.iter().all(|x| *x == 0.0), "{v:?}");
        // Numerators without denominators: wall times but no unarmed or
        // parallel pass, hits without lookups.
        let t = CycleTimes {
            perf_ns: 5,
            traced_ns: 7,
            serial_boot_ns: 3,
            cache_hits: 2,
            ..CycleTimes::default()
        };
        let v = metrics(&t, &[], &[]);
        for (&(name, _), x) in METRICS.iter().zip(&v) {
            assert!(x.is_finite(), "{name} = {x}");
            if name.contains("ratio") || name.contains("speedup") || name.contains("_per_") {
                assert_eq!(*x, 0.0, "{name}");
            }
        }
    }

    #[test]
    fn merged_profile_roots_paths_at_run_labels() {
        let d = PerfData {
            phases: vec![phase("compute", 10)],
            spans: vec![span("compute;kernel:a", 4)],
            counters: vec![("tlb.walks", 3)],
            host_total_ns: 10,
            ..PerfData::default()
        };
        let merged = merged_profile([("needle/system", &d), ("bfs/managed", &d)]);
        let folded = gh_perf::export::folded(&merged);
        assert!(
            folded.contains("needle/system;compute;kernel:a 4\n"),
            "{folded}"
        );
        assert!(folded.contains("bfs/managed;compute 6\n"), "{folded}");
        assert_eq!(merged.counter("tlb.walks"), 6);
        assert_eq!(merged.host_total_ns, 20);
    }
}
