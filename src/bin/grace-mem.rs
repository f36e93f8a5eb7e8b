//! `grace-mem` CLI: run applications and experiments from the shell.
//!
//! ```sh
//! cargo run --release --bin grace-mem -- app hotspot --mode system --page 64k
//! cargo run --release --bin grace-mem -- qv 22 --mode managed --prefetch
//! cargo run --release --bin grace-mem -- list
//! ```

use grace_mem::sim::{KIB, MIB};
use grace_mem::{
    platform, AppId, JobCache, Machine, MachineConfig, MemMode, Platform, QsimParams,
    SessionOptions,
};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:
  grace-mem list
  grace-mem app <needle|pathfinder|bfs|hotspot|srad>
            [--platform gh200|mi300a] [--mode explicit|system|managed]
            [--page 4k|64k|2m] [--no-migration] [--oversubscribe <ratio>]
            [--small] [--json] [--trace-out <json-file>]
            [--perf] [--perf-out <json-file>]
  grace-mem app <kmeans|lud|stream|gups|pointer-chase>
            [--platform gh200|mi300a] [--mode explicit|system|managed]
            [--page 4k|64k|2m] [--no-migration] [--json]
            [--trace-out <json-file>] [--perf] [--perf-out <json-file>]
  grace-mem qv <sim_qubits>
            [--platform gh200|mi300a] [--mode explicit|system|managed]
            [--page 4k|64k|2m] [--prefetch] [--amplitudes] [--json]
            [--trace-out <json-file>] [--perf] [--perf-out <json-file>]
  grace-mem replay <trace-file>
            [--platform gh200|mi300a] [--mode explicit|system|managed]
            [--page 4k|64k|2m] [--no-migration] [--json]
            [--trace-out <json-file>] [--perf] [--perf-out <json-file>]
  grace-mem advise <trace-file> [--platform gh200|mi300a]
  grace-mem suite [--jobs <n>] [--small]

A flag outside its subcommand's line above is an error, never ignored.

platforms: gh200 (default; two tiers + migration), mi300a (one unified
           physical pool, no page migration). The default page size is
           the platform's own (gh200: 64k, mi300a: 4k).

suite: the full app x platform x mode matrix on the gh-jobs executor
       (--jobs <n> worker threads, at most one per job; 1 = serial
       reference). Reports are bitwise-identical at any worker count;
       the workers used and cache hit/miss counts go to stderr.

environment (read HERE, at the CLI boundary, to seed the per-run
session — library code never reads GH_* variables):
  GH_TRACE=1       trace the run on its session bus and print the
                   per-phase explain table (implied by --trace-out)
  GH_PERF=1        profile the simulator itself (host wall-clock) and
                   print the gh-perf table on stderr (implied by
                   --perf/--perf-out); never changes simulated output
  GH_SANITIZE=0|1  force the invariant sanitizer off/on (default: on in
                   debug builds only)
  GH_ACCESS_REF=1  use the per-line reference access path instead of the
                   batched fast core (differential debugging; reports
                   are bit-identical either way)"
    );
    std::process::exit(2);
}

/// Exits with the platform layer's error message on a bad registry name,
/// unsupported page size, or invalid parameter tweak.
fn platform_fail(e: grace_mem::PlatformError) -> ! {
    eprintln!("{e}");
    std::process::exit(2);
}

/// Everything that can go wrong after argument parsing. All variants
/// render as one `grace-mem: ...` line on stderr and exit with status 2,
/// the same code as usage errors, so scripts can test a single status.
#[derive(Debug)]
enum CliError {
    /// An input file (trace to replay or advise on) could not be read.
    Read(String, std::io::Error),
    /// An output file (`--trace-out`, `--perf-out`) could not be written.
    Write(String, std::io::Error),
    /// The simulator rejected the run (malformed trace, replay error).
    Sim(String),
    /// A flag or argument parsed but is outside what the model can run.
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, w: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Read(path, e) => write!(w, "cannot read {path}: {e}"),
            CliError::Write(path, e) => write!(w, "cannot write {path}: {e}"),
            CliError::Sim(e) | CliError::Invalid(e) => write!(w, "{e}"),
        }
    }
}

fn fail(e: CliError) -> ! {
    eprintln!("grace-mem: {e}");
    std::process::exit(2);
}

struct Flags {
    platform: &'static dyn Platform,
    mode: MemMode,
    page: Option<u64>,
    migration: bool,
    oversubscribe: Option<f64>,
    small: bool,
    prefetch: bool,
    amplitudes: bool,
    json: bool,
    trace_out: Option<String>,
    perf: bool,
    perf_out: Option<String>,
    jobs: usize,
}

/// The flags each subcommand honours, as its usage line lists them.
const APP_FLAGS: &[&str] = &[
    "--platform",
    "--mode",
    "--page",
    "--no-migration",
    "--oversubscribe",
    "--small",
    "--json",
    "--trace-out",
    "--perf",
    "--perf-out",
];
/// `replay` and the extension workloads, which have no `--small` size or
/// oversubscription re-run.
const RUN_FLAGS: &[&str] = &[
    "--platform",
    "--mode",
    "--page",
    "--no-migration",
    "--json",
    "--trace-out",
    "--perf",
    "--perf-out",
];
const QV_FLAGS: &[&str] = &[
    "--platform",
    "--mode",
    "--page",
    "--prefetch",
    "--amplitudes",
    "--json",
    "--trace-out",
    "--perf",
    "--perf-out",
];
const ADVISE_FLAGS: &[&str] = &["--platform"];
const SUITE_FLAGS: &[&str] = &["--jobs", "--small"];

/// The extension workloads `app` runs through their own entry points.
const EXTENSIONS: &[&str] = &["kmeans", "lud", "stream", "gups", "pointer-chase"];

/// Parses `args` for subcommand `cmd`. A flag outside `accepted` fails
/// in one line instead of being silently ignored.
fn parse_flags(args: &[String], cmd: &str, accepted: &[&str]) -> Flags {
    let mut f = Flags {
        platform: platform::gh200(),
        mode: MemMode::System,
        page: None,
        migration: true,
        oversubscribe: None,
        small: false,
        prefetch: false,
        amplitudes: false,
        json: false,
        trace_out: None,
        perf: false,
        perf_out: None,
        jobs: 1,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !accepted.contains(&a.as_str()) {
            if a.starts_with("--") {
                fail(CliError::Invalid(format!("{a} is not supported by {cmd}")));
            }
            usage()
        }
        match a.as_str() {
            "--platform" => {
                let Some(name) = it.next() else { usage() };
                f.platform = platform::by_name(name).unwrap_or_else(|e| platform_fail(e));
            }
            "--mode" => {
                f.mode = match it.next().map(String::as_str) {
                    Some("explicit") => MemMode::Explicit,
                    Some("system") => MemMode::System,
                    Some("managed") => MemMode::Managed,
                    _ => usage(),
                }
            }
            "--page" => {
                f.page = match it.next().map(String::as_str) {
                    Some("4k") => Some(4 * KIB),
                    Some("64k") => Some(64 * KIB),
                    Some("2m") => Some(2 * MIB),
                    _ => usage(),
                }
            }
            "--no-migration" => f.migration = false,
            "--oversubscribe" => {
                let Some(arg) = it.next() else { usage() };
                let Ok(ratio) = arg.parse::<f64>() else {
                    usage()
                };
                // `Machine::oversubscribe` asserts a ratio of at least 1.
                if !(ratio.is_finite() && ratio >= 1.0) {
                    fail(CliError::Invalid(format!(
                        "--oversubscribe needs a finite ratio >= 1, got {arg}"
                    )));
                }
                f.oversubscribe = Some(ratio);
            }
            "--small" => f.small = true,
            "--json" => f.json = true,
            "--prefetch" => f.prefetch = true,
            "--amplitudes" => f.amplitudes = true,
            "--trace-out" => {
                f.trace_out = it.next().cloned();
                if f.trace_out.is_none() {
                    usage();
                }
            }
            "--jobs" => {
                f.jobs = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                }
            }
            "--perf" => f.perf = true,
            "--perf-out" => {
                f.perf_out = it.next().cloned();
                if f.perf_out.is_none() {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    f
}

fn machine(f: &Flags, so: &SessionOptions) -> Machine {
    let cfg = MachineConfig {
        page_size: f.page,
        auto_migration: f.migration,
        ..Default::default()
    };
    f.platform
        .machine_session(&cfg, so)
        .unwrap_or_else(|e| platform_fail(e))
}

fn print_report_maybe_json(label: &str, r: &grace_mem::RunReport, json: bool) {
    if json {
        println!("{}", r.to_json());
    } else {
        print_report(label, r);
    }
    report_sanitizer(r);
}

/// Surfaces invariant-sanitizer violations on stderr (see
/// `docs/units.md`). Clean runs print nothing, so sanitized stdout
/// stays bitwise-identical to an unsanitized run.
fn report_sanitizer(r: &grace_mem::RunReport) {
    let Some(s) = &r.sanitizer else { return };
    if s.is_clean() {
        return;
    }
    eprintln!("sanitizer: {s}");
    for v in &s.violations {
        eprintln!("  {v}");
    }
}

/// Reads a `GH_*` boolean env toggle: `None` when unset, `Some(false)`
/// for `""`/`"0"`, `Some(true)` otherwise. This is the *only* layer that
/// reads these variables — they seed the [`SessionOptions`] below and
/// never leak into library code (audit rule `session-isolation`).
fn env_flag(name: &str) -> Option<bool> {
    std::env::var(name).ok().map(|v| v != "0" && !v.is_empty())
}

/// Folds flags and boundary env vars into the run's session options.
fn session_opts(f: &Flags) -> SessionOptions {
    SessionOptions {
        trace: f.trace_out.is_some() || env_flag("GH_TRACE").unwrap_or(false),
        perf: f.perf || f.perf_out.is_some() || env_flag("GH_PERF").unwrap_or(false),
        sanitize: env_flag("GH_SANITIZE"),
        access_ref: env_flag("GH_ACCESS_REF").unwrap_or(false),
        ..Default::default()
    }
}

/// Prints the gh-perf table on stderr and writes the JSON + folded-stack
/// files for `--perf-out` (no-op when the session never armed the
/// profiler). Everything goes to stderr or side files: stdout carries
/// only the deterministic RunReport.
fn maybe_dump_perf(f: &Flags, perf: &gh_perf::Perf) {
    if !perf.is_on() {
        return;
    }
    let data = perf.take();
    eprint!("{}", gh_perf::export::table(&data));
    if let Some(out) = &f.perf_out {
        let folded = format!("{out}.folded");
        std::fs::write(out, gh_perf::export::json(&data))
            .unwrap_or_else(|e| fail(CliError::Write(out.clone(), e)));
        std::fs::write(&folded, gh_perf::export::folded(&data))
            .unwrap_or_else(|e| fail(CliError::Write(folded.clone(), e)));
        eprintln!("gh-perf profile written to {out} (folded stacks: {folded})");
    }
}

/// Writes the Chrome trace + metrics dump and prints the explain table
/// for a traced run (no-op when the run was not traced).
fn maybe_dump_trace(r: &grace_mem::RunReport, f: &Flags) {
    let Some(t) = &r.trace else { return };
    if let Some(out) = &f.trace_out {
        let metrics = format!("{out}.metrics.csv");
        std::fs::write(out, gh_trace::export::chrome_trace(t))
            .unwrap_or_else(|e| fail(CliError::Write(out.clone(), e)));
        std::fs::write(&metrics, gh_trace::export::metrics_csv(t))
            .unwrap_or_else(|e| fail(CliError::Write(metrics.clone(), e)));
        eprintln!("chrome trace written to {out} (metrics: {metrics})");
    }
    eprint!("{}", gh_trace::export::explain(t));
}

fn print_report(label: &str, r: &grace_mem::RunReport) {
    println!("== {label} [{}] ==", r.platform);
    println!(
        "phases (ms): ctx {:.3} | alloc {:.3} | cpu_init {:.3} | compute {:.3} | dealloc {:.3}",
        r.phases.ctx_init as f64 / 1e6,
        r.phases.alloc as f64 / 1e6,
        r.phases.cpu_init as f64 / 1e6,
        r.phases.compute as f64 / 1e6,
        r.phases.dealloc as f64 / 1e6,
    );
    println!(
        "reported total: {:.3} ms   checksum: {:.6}",
        r.reported_total() as f64 / 1e6,
        r.checksum
    );
    println!(
        "traffic (MiB): HBM r/w {}/{} | C2C r/w {}/{} | migrated in/out {}/{}",
        r.traffic.hbm_read >> 20,
        r.traffic.hbm_write >> 20,
        r.traffic.c2c_read >> 20,
        r.traffic.c2c_write >> 20,
        r.traffic.bytes_migrated_in >> 20,
        r.traffic.bytes_migrated_out >> 20,
    );
    println!(
        "faults: {} GPU (managed), {} ATS (system) | peak GPU {} MiB | peak RSS {} MiB",
        r.traffic.gpu_faults,
        r.traffic.ats_faults,
        r.peak_gpu >> 20,
        r.peak_rss >> 20,
    );
    for note in &r.not_applicable {
        println!("n/a: {note}");
    }
}

fn run_extension(name: &str, f: &Flags) -> (grace_mem::RunReport, gh_perf::Perf) {
    use grace_mem::apps::{kmeans, lud, micro};
    let so = session_opts(f);
    let m = machine(f, &so);
    let perf = m.rt.session().perf.clone();
    let mp = micro::MicroParams::default();
    let r = match name {
        "kmeans" => kmeans::run(m, f.mode, &kmeans::KmeansParams::default()),
        "lud" => lud::run(m, f.mode, &lud::LudParams::default()),
        "stream" => micro::stream(m, f.mode, &mp),
        "gups" => micro::gups(m, f.mode, &mp),
        "pointer-chase" => micro::pointer_chase(m, f.mode, &mp),
        _ => unreachable!("callers pass a name from EXTENSIONS"),
    };
    (r, perf)
}

/// Rejects QV sizes the model cannot run: fewer than 2 qubits (no
/// two-qubit layer to generate), or a statevector that `mode` cannot
/// place on the fresh machine `m` (which also covers sizes whose byte
/// count would overflow a `u64`). See [`qv_capacity`].
fn check_qv_size(q: u32, m: &Machine, mode: MemMode, platform: &str) {
    if q < 2 {
        fail(CliError::Invalid(format!(
            "qv needs at least 2 qubits, got {q}"
        )));
    }
    let (cap, rule) = qv_capacity(m, mode);
    let fits = q <= grace_mem::qsim::statevector_bytes(0).leading_zeros()
        && grace_mem::qsim::statevector_bytes(q) <= cap;
    if !fits {
        fail(CliError::Invalid(format!(
            "qv {q}: the statevector exceeds the {} MiB {rule} on {platform}",
            cap / MIB
        )));
    }
}

/// The largest statevector `mode` can place on the fresh machine `m`,
/// and how that bound reads in an error. System memory spreads over
/// both tiers, as does everything in a unified pool. On two tiers, a
/// statevector that outgrows HBM must fit CPU memory whole: managed
/// memory pins a thrashing allocation there, and the explicit pipeline
/// streams through a pinned host copy (a device copy keeps 2 MiB of HBM
/// for the runtime).
fn qv_capacity(m: &Machine, mode: MemMode) -> (u64, &'static str) {
    let free = m.rt.mem_free();
    if mode == MemMode::System || m.rt.params().unified_pool {
        return (free, "of free simulated memory");
    }
    let gpu = m.rt.gpu_free();
    let (device, rule) = match mode {
        MemMode::Explicit => (
            gpu.saturating_sub(2 * MIB),
            "explicit copies can place (HBM, or a pinned host copy)",
        ),
        _ => (gpu, "managed memory can place (HBM, or CPU memory whole)"),
    };
    (device.max(free - gpu), rule)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            parse_flags(&args[1..], "list", &[]);
            println!("paper applications:");
            for app in AppId::ALL {
                println!("  {:<14} {}", app.name(), app.pattern());
            }
            println!(
                "  {:<14} mixed (gh-qsim, `grace-mem qv <qubits>`)",
                "qiskit-qv"
            );
            println!("extension workloads (future-work study):");
            println!("  {:<14} iterative reuse, read-only hot set", "kmeans");
            println!("  {:<14} shrinking working set", "lud");
            println!("  {:<14} sequential bandwidth", "stream");
            println!("  {:<14} uniform sparse updates", "gups");
            println!("  {:<14} skewed irregular reads", "pointer-chase");
        }
        Some("app") => {
            let Some(name) = args.get(1) else { usage() };
            if EXTENSIONS.contains(&name.as_str()) {
                let f = parse_flags(&args[2..], &format!("app {name}"), RUN_FLAGS);
                let (report, perf) = run_extension(name, &f);
                print_report_maybe_json(name, &report, f.json);
                maybe_dump_trace(&report, &f);
                maybe_dump_perf(&f, &perf);
                return;
            }
            let Some(app) = AppId::ALL.iter().find(|a| a.name() == name) else {
                usage()
            };
            let f = parse_flags(&args[2..], "app", APP_FLAGS);
            let so = session_opts(&f);
            let mut m = machine(&f, &so);
            let perf = m.rt.session().perf.clone();
            if let Some(ratio) = f.oversubscribe {
                let peak = if f.small {
                    app.run_small(f.platform.machine(), MemMode::Managed)
                } else {
                    app.run(f.platform.machine(), MemMode::Managed)
                }
                .peak_gpu
                .saturating_sub(f.platform.gpu_driver_baseline());
                m.oversubscribe(peak, ratio);
            }
            let r = if f.small {
                app.run_small(m, f.mode)
            } else {
                app.run(m, f.mode)
            };
            print_report_maybe_json(&format!("{} ({})", app.name(), f.mode), &r, f.json);
            maybe_dump_trace(&r, &f);
            maybe_dump_perf(&f, &perf);
        }
        Some("qv") => {
            let Some(q) = args.get(1).and_then(|s| s.parse::<u32>().ok()) else {
                usage()
            };
            let f = parse_flags(&args[2..], "qv", QV_FLAGS);
            let so = session_opts(&f);
            let p = QsimParams {
                sim_qubits: q,
                compute_amplitudes: f.amplitudes,
                prefetch: f.prefetch,
                ..Default::default()
            };
            let m = machine(&f, &so);
            check_qv_size(q, &m, f.mode, f.platform.caps().name);
            let perf = m.rt.session().perf.clone();
            let r = grace_mem::run_qv(m, f.mode, &p);
            print_report_maybe_json(
                &format!("qv {q} sim-qubits / paper {} ({})", q + 10, f.mode),
                &r,
                f.json,
            );
            maybe_dump_trace(&r, &f);
            maybe_dump_perf(&f, &perf);
        }
        Some("replay") => {
            let Some(path) = args.get(1) else { usage() };
            let explicit_mode = args[2..].iter().any(|a| a == "--mode");
            let f = parse_flags(&args[2..], "replay", RUN_FLAGS);
            let so = session_opts(&f);
            let trace = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(CliError::Read(path.clone(), e)));
            let mode = explicit_mode.then_some(f.mode);
            let m = machine(&f, &so);
            let perf = m.rt.session().perf.clone();
            match grace_mem::sim::replay(m, &trace, mode) {
                Ok(r) => {
                    print_report_maybe_json(&format!("replay {path}"), &r, f.json);
                    // The bus captured the run as it happened — no second
                    // replay needed to export the timeline.
                    maybe_dump_trace(&r, &f);
                    maybe_dump_perf(&f, &perf);
                }
                Err(e) => fail(CliError::Sim(e.to_string())),
            }
        }
        Some("suite") => {
            let f = parse_flags(&args[1..], "suite", SUITE_FLAGS);
            let so = session_opts(&f);
            let specs = grace_mem::jobs::matrix(f.small, &so);
            let cache = Arc::new(JobCache::new());
            let outcomes = grace_mem::jobs::run_suite(&specs, f.jobs, &cache);
            // Deterministic stdout: one line per job, identical at any
            // worker count (CI diffs `--jobs 8` against `--jobs 1`).
            println!("app,platform,mode,total_ns,checksum_bits,job_hash");
            for (spec, out) in specs.iter().zip(outcomes) {
                let out = out.unwrap_or_else(|e| platform_fail(e));
                println!(
                    "{},{},{},{},0x{:016x},0x{:016x}",
                    spec.app.name(),
                    spec.platform,
                    spec.mode.label(),
                    out.report.reported_total(),
                    out.report.checksum.to_bits(),
                    out.hash,
                );
                report_sanitizer(&out.report);
            }
            // run_suite starts no more workers than there are jobs.
            eprintln!(
                "suite: {} jobs on {} worker(s); cache {} hit(s), {} miss(es)",
                specs.len(),
                f.jobs.min(specs.len()),
                cache.hits(),
                cache.misses(),
            );
        }
        Some("advise") => {
            let Some(path) = args.get(1) else { usage() };
            let f = parse_flags(&args[2..], "advise", ADVISE_FLAGS);
            let trace = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(CliError::Read(path.clone(), e)));
            match grace_mem::sim::advise_on(f.platform, &trace) {
                Ok(a) => print!("{}", a.render()),
                Err(e) => fail(CliError::Sim(e.to_string())),
            }
        }
        _ => usage(),
    }
}
