//! The four workloads and the expansion of a workload seed into the
//! inputs the simulator receives.
//!
//! The program never sees the seed itself: [`plan`] turns it into the
//! per-job `seed` fields of the `*Params`/`QsimParams` structs and, for
//! `sweep`, into the submission order and the duplicated specs.

use gh_apps::bfs::BfsParams;
use gh_apps::hotspot::HotspotParams;
use gh_apps::needle::NeedleParams;
use gh_apps::pathfinder::PathfinderParams;
use gh_apps::srad::SradParams;
use gh_apps::{Machine, MemMode, RunReport};
use gh_cuda::SessionOptions;
use gh_jobs::JobSpec;
use gh_qsim::QsimParams;
use gh_sim::platform::{self, MachineConfig, PlatformError};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// needle and bfs: access metering dominates.
    Irregular,
    /// srad, hotspot, pathfinder and QV 20 with amplitudes: the real
    /// algorithms dominate.
    Compute,
    /// QV past the 96 MiB of simulated HBM plus needle at ratio 1.5: page
    /// table, fault and UVM migration paths dominate.
    Oversub,
    /// The small `gh_jobs::matrix` over every page size on both
    /// platforms: executor, cache and per-job setup dominate.
    Sweep,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::Irregular,
        Workload::Compute,
        Workload::Oversub,
        Workload::Sweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Irregular => "irregular",
            Workload::Compute => "compute",
            Workload::Oversub => "oversub",
            Workload::Sweep => "sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64: expands one workload seed into a stream of job seeds.
#[derive(Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The algorithm a job runs, with its seeded input parameters.
#[derive(Debug, Clone)]
pub enum Work {
    /// Needleman-Wunsch alignment.
    Needle(NeedleParams),
    /// Breadth-first search.
    Bfs(BfsParams),
    /// Speckle-reducing anisotropic diffusion.
    Srad(SradParams),
    /// Thermal stencil.
    Hotspot(HotspotParams),
    /// Grid dynamic programming.
    Pathfinder(PathfinderParams),
    /// Quantum Volume.
    Qv(QsimParams),
}

impl Work {
    fn name(&self) -> String {
        match self {
            Work::Needle(_) => "needle".into(),
            Work::Bfs(_) => "bfs".into(),
            Work::Srad(_) => "srad".into(),
            Work::Hotspot(_) => "hotspot".into(),
            Work::Pathfinder(_) => "pathfinder".into(),
            Work::Qv(p) => format!("qv{}", p.sim_qubits),
        }
    }

    fn seed(&self) -> u64 {
        match self {
            Work::Needle(p) => p.seed,
            Work::Bfs(p) => p.seed,
            Work::Srad(p) => p.seed,
            Work::Hotspot(p) => p.seed,
            Work::Pathfinder(p) => p.seed,
            Work::Qv(p) => p.seed,
        }
    }
}

/// One simulated run on a cold GH200.
#[derive(Debug, Clone)]
pub struct Job {
    /// What runs.
    pub work: Work,
    /// Memory-management strategy.
    pub mode: MemMode,
    /// System page size; `None` = the platform default (64 KiB).
    pub page_size: Option<u64>,
    /// Oversubscription ratio applied after a peak-usage probe.
    pub oversub_ratio: Option<f64>,
}

impl Job {
    fn new(work: Work, mode: MemMode) -> Self {
        Job {
            work,
            mode,
            page_size: None,
            oversub_ratio: None,
        }
    }

    /// A label unique within a workload, stable across passes.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.work.name(), self.mode.label());
        if let Work::Qv(p) = &self.work {
            if p.prefetch {
                s.push_str("+prefetch");
            }
        }
        if let Some(ps) = self.page_size {
            s.push_str(&format!("/{}k", ps / KIB));
        }
        if let Some(r) = self.oversub_ratio {
            s.push_str(&format!("/x{r}"));
        }
        s
    }

    /// Jobs with equal keys must produce bit-identical checksums: the
    /// same algorithm on the same input, whatever the mode, page size or
    /// oversubscription. `None` for QV without amplitudes, whose
    /// checksum is always 0.
    pub fn checksum_group(&self) -> Option<String> {
        if let Work::Qv(p) = &self.work {
            if !p.compute_amplitudes {
                return None;
            }
        }
        Some(format!("{}:{}", self.work.name(), self.work.seed()))
    }

    /// Whether the job runs a real algorithm on its data. QV without
    /// amplitudes does not, so its compute-phase host time outside
    /// kernels is the UVM engine's.
    pub fn algorithmic(&self) -> bool {
        !matches!(&self.work, Work::Qv(p) if !p.compute_amplitudes)
    }

    /// Boots a cold GH200 for this job under `so`. `peak` is the probed
    /// GPU peak of an oversubscribed job.
    pub fn boot(&self, so: &SessionOptions, peak: Option<u64>) -> Result<Machine, PlatformError> {
        let cfg = self
            .page_size
            .map_or_else(MachineConfig::default, MachineConfig::with_page_size);
        let mut m = platform::gh200().machine_session(&cfg, so)?;
        if let (Some(ratio), Some(peak)) = (self.oversub_ratio, peak) {
            m.oversubscribe(peak, ratio);
        }
        Ok(m)
    }

    /// Runs the job's algorithm on `m`.
    pub fn run(&self, m: Machine) -> RunReport {
        self.run_as(m, self.mode)
    }

    /// The paper's peak probe (§3.2): GPU usage of the managed run on an
    /// unconstrained machine, driver baseline excluded. Returns the probe
    /// report too, for its checksum.
    pub fn probe_peak(&self) -> Result<(u64, RunReport), PlatformError> {
        let plain = Job {
            oversub_ratio: None,
            ..self.clone()
        };
        let m = plain.boot(&SessionOptions::default(), None)?;
        let r = plain.run_as(m, MemMode::Managed);
        let peak = r.peak_gpu - platform::gh200().gpu_driver_baseline();
        Ok((peak, r))
    }

    fn run_as(&self, m: Machine, mode: MemMode) -> RunReport {
        match &self.work {
            Work::Needle(p) => gh_apps::needle::run(m, mode, p),
            Work::Bfs(p) => gh_apps::bfs::run(m, mode, p),
            Work::Srad(p) => gh_apps::srad::run(m, mode, p),
            Work::Hotspot(p) => gh_apps::hotspot::run(m, mode, p),
            Work::Pathfinder(p) => gh_apps::pathfinder::run(m, mode, p),
            Work::Qv(p) => gh_qsim::run_qv(m, mode, p),
        }
    }
}

/// What a workload runs: a list of custom jobs, or `gh_jobs` specs.
#[derive(Debug)]
pub enum Plan {
    /// Jobs the benchmark boots and runs itself, in order.
    Jobs(Vec<Job>),
    /// Specs submitted to `gh_jobs::run_suite` in this order, duplicates
    /// included.
    Specs(Vec<JobSpec>),
}

fn qv(sim_qubits: u32, seed: u64, amplitudes: bool, prefetch: bool) -> Work {
    Work::Qv(QsimParams {
        sim_qubits,
        seed,
        compute_amplitudes: amplitudes,
        prefetch,
        ..QsimParams::default()
    })
}

/// Both unified modes of one seeded input.
fn unified(work: Work) -> [Job; 2] {
    [
        Job::new(work.clone(), MemMode::System),
        Job::new(work, MemMode::Managed),
    ]
}

/// Expands `seed` into the workload's inputs. Every size is the
/// paper-scaled (1:1024) default unless noted.
pub fn plan(w: Workload, seed: u64) -> Plan {
    let mut rng = SplitMix::new(seed);
    match w {
        Workload::Irregular => {
            let needle = Work::Needle(NeedleParams {
                seed: rng.next_u64(),
                ..NeedleParams::default()
            });
            let bfs = Work::Bfs(BfsParams {
                seed: rng.next_u64(),
                ..BfsParams::default()
            });
            Plan::Jobs([unified(needle), unified(bfs)].concat())
        }
        Workload::Compute => {
            let srad = Work::Srad(SradParams {
                seed: rng.next_u64(),
                ..SradParams::default()
            });
            let hotspot = Work::Hotspot(HotspotParams {
                seed: rng.next_u64(),
                ..HotspotParams::default()
            });
            let pathfinder = Work::Pathfinder(PathfinderParams {
                seed: rng.next_u64(),
                ..PathfinderParams::default()
            });
            let qv20 = qv(20, rng.next_u64(), true, false);
            Plan::Jobs(
                [
                    unified(srad),
                    unified(hotspot),
                    unified(pathfinder),
                    unified(qv20),
                ]
                .concat(),
            )
        }
        Workload::Oversub => {
            // 2^24 and 2^25 amplitudes (128 and 256 MiB) exceed the
            // 96 MiB of simulated HBM.
            let (s24, s25) = (rng.next_u64(), rng.next_u64());
            let needle = Work::Needle(NeedleParams {
                seed: rng.next_u64(),
                ..NeedleParams::default()
            });
            let at_4k = |mut j: Job| {
                j.page_size = Some(4 * KIB);
                j
            };
            Plan::Jobs(vec![
                at_4k(Job::new(qv(24, s24, false, false), MemMode::System)),
                at_4k(Job::new(qv(24, s24, false, false), MemMode::Managed)),
                Job::new(qv(25, s25, false, true), MemMode::Managed),
                Job::new(qv(25, s25, false, false), MemMode::System),
                Job::new(qv(24, s24, false, false), MemMode::Explicit),
                Job {
                    oversub_ratio: Some(1.5),
                    ..Job::new(needle, MemMode::Managed)
                },
            ])
        }
        Workload::Sweep => {
            let mut specs = sweep_matrix(&SessionOptions::default());
            // Fisher-Yates with the seed stream, then resubmit a
            // seed-chosen quarter so some lookups hit the cache.
            for i in (1..specs.len()).rev() {
                specs.swap(i, rng.below(i + 1));
            }
            let dups: Vec<JobSpec> = (0..specs.len() / 4)
                .map(|_| specs[rng.below(specs.len())].clone())
                .collect();
            for d in dups {
                let at = rng.below(specs.len() + 1);
                specs.insert(at, d);
            }
            Plan::Specs(specs)
        }
    }
}

/// The small `gh_jobs::matrix` crossed with every page size in
/// {4 KiB, 64 KiB, 2 MiB} that each platform supports.
fn sweep_matrix(session: &SessionOptions) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for spec in gh_jobs::matrix(true, session) {
        let caps = platform::by_name(&spec.platform)
            .expect("matrix names registered platforms")
            .caps();
        for page in [4 * KIB, 64 * KIB, 2 * MIB] {
            if caps.page_sizes.contains(&page) {
                specs.push(JobSpec {
                    page_size: Some(page),
                    ..spec.clone()
                });
            }
        }
    }
    specs
}

/// Label of a sweep spec, independent of its session options.
pub fn spec_label(s: &JobSpec) -> String {
    format!(
        "{}/{}/{}/{}k",
        s.app.name(),
        s.platform,
        s.mode.label(),
        s.page_size.unwrap_or(0) / KIB
    )
}

/// Checksum group of a sweep spec: every spec of one app runs the same
/// default small input.
pub fn spec_group(s: &JobSpec) -> String {
    format!("{}:small", s.app.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = format!("{:?}", plan(w, 7));
            assert_eq!(a, format!("{:?}", plan(w, 7)), "{}", w.name());
            assert_ne!(a, format!("{:?}", plan(w, 8)), "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn sweep_resubmits_a_quarter_of_a_valid_matrix() {
        let Plan::Specs(specs) = plan(Workload::Sweep, 3) else {
            panic!("sweep is a spec plan");
        };
        let distinct: std::collections::BTreeSet<u64> =
            specs.iter().map(JobSpec::stable_hash).collect();
        // 5 apps x 2 modes x (gh200 {4k,64k} + mi300a {4k,2m}).
        assert_eq!(distinct.len(), 40);
        assert_eq!(specs.len(), 50);
        for s in &specs {
            let caps = platform::by_name(&s.platform).unwrap().caps();
            assert!(caps.page_sizes.contains(&s.page_size.unwrap()));
        }
    }

    #[test]
    fn modes_of_one_input_share_a_checksum_group() {
        let Plan::Jobs(jobs) = plan(Workload::Irregular, 1) else {
            panic!("irregular is a job plan");
        };
        assert_eq!(jobs[0].checksum_group(), jobs[1].checksum_group());
        assert_ne!(jobs[0].checksum_group(), jobs[2].checksum_group());
        let Plan::Jobs(jobs) = plan(Workload::Oversub, 1) else {
            panic!("oversub is a job plan");
        };
        assert_eq!(jobs[0].checksum_group(), None, "QV without amplitudes");
        assert!(!jobs[0].algorithmic());
        assert!(jobs[5].algorithmic());
    }
}
