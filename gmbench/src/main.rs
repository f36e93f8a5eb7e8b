//! `gm-bench`: times the grace-mem simulator end to end and per layer on
//! one seeded workload, checks every simulated run, and prints one JSON
//! result line. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --offline --manifest-path gmbench/Cargo.toml -- \
//!     --workload irregular --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `BENCHMARK.json` adds the glibc malloc settings the README explains.

mod check;
mod layers;
mod run;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Checker;
use gh_cuda::SessionOptions;
use gh_sim::platform::PlatformError;
use layers::CycleTimes;
use run::{Outcome, Pass};
use stats::{median, ratio};
use workloads::Workload;

const USAGE: &str =
    "usage: gm-bench --workload <irregular|compute|oversub|sweep> --seed <n> --seconds <n> --trace <0|1>";

/// End-to-end metrics, `(name, unit)`. Must match `end_to_end` in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_speed", "ns/ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Timed passes taken even when one pass outlasts `--seconds`, so every
/// median has at least this many samples.
const MIN_SAMPLES: usize = 3;

/// Set-up samples a run aims for (see [`setup_samples`]).
const SETUP_SAMPLES: usize = 25;

/// Minimum length of the batch of set-ups one set-up sample times.
const SETUP_BATCH: Duration = Duration::from_millis(5);

/// Where the traced run writes its per-layer JSON and folded stacks.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Checks a set-up's probe runs and then a pass's runs.
fn check_all(c: &mut Checker, probes: &[Outcome], pass: &Pass) {
    for o in probes.iter().chain(&pass.outcomes) {
        c.record(&o.verdict);
    }
}

/// Sets up under `session` and runs one pass, checking every run.
/// Returns the set-up's boot ns and the pass.
fn setup_and_pass(
    a: &Args,
    c: &mut Checker,
    session: &SessionOptions,
    boot: bool,
    workers: usize,
) -> Result<(u64, Pass), PlatformError> {
    let mut s = run::setup(a.workload, a.seed, session, boot)?;
    let probes = std::mem::take(&mut s.probes);
    let boot_ns = s.boot_ns;
    let p = run::pass(s, workers)?;
    check_all(c, &probes, &p);
    Ok((boot_ns, p))
}

/// Set-up samples, taken before any pass so that every run measures
/// set-up on the same fresh heap. Set-up takes microseconds on most
/// workloads, so each sample times a batch of set-ups lasting at least
/// [`SETUP_BATCH`], machines dropped unrun, and divides by its size.
/// Sampling stops at [`SETUP_SAMPLES`] or after a tenth of the window.
fn setup_samples(a: &Args) -> Result<Vec<f64>, PlatformError> {
    let deadline = Instant::now() + Duration::from_secs(a.seconds) / 10;
    let mut samples = Vec::new();
    while samples.is_empty() || (samples.len() < SETUP_SAMPLES && Instant::now() < deadline) {
        let (t0, mut n) = (Instant::now(), 0u32);
        while n == 0 || t0.elapsed() < SETUP_BATCH {
            run::setup(a.workload, a.seed, &run::unarmed(), true)?;
            n += 1;
        }
        samples.push(t0.elapsed().as_secs_f64() / f64::from(n));
    }
    Ok(samples)
}

/// Set-up samples, then one warm-up pass, then unarmed timed passes
/// until `--seconds` have passed since the start (at least
/// [`MIN_SAMPLES`]), then one pass with gh-perf, the trace bus and the
/// sanitizer all armed, whose digests must match the unarmed ones.
fn end_to_end(a: &Args, c: &mut Checker) -> Result<Vec<f64>, PlatformError> {
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let setups = setup_samples(a)?;
    // Untimed: the first pass of a process grows the heap to the
    // workload's buffer sizes, which later passes reuse. It runs
    // serially so the peak RSS read after it does not depend on which
    // sweep jobs happened to overlap.
    setup_and_pass(a, c, &run::unarmed(), true, 1)?;
    let rss_mib = gh_perf::peak_rss_bytes() as f64 / (1 << 20) as f64;
    let (mut walls, mut virtual_ns) = (Vec::new(), 0);
    while walls.len() < MIN_SAMPLES || Instant::now() < deadline {
        let (_, p) = setup_and_pass(a, c, &run::unarmed(), true, nproc())?;
        walls.push(p.wall_ns as f64 / 1e9);
        virtual_ns = p.virtual_ns();
    }
    setup_and_pass(a, c, &run::all_armed(), true, nproc())?;
    let wall_s = median(&walls);
    eprintln!(
        "gm-bench: {} timed passes, {} set-up samples (median of each), wall_s min {:.4} max {:.4}",
        walls.len(),
        setups.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    );
    Ok(vec![
        wall_s,
        ratio(virtual_ns as f64, wall_s * 1e3),
        median(&setups),
        rss_mib,
    ])
}

/// Traced cycles until `--seconds` have passed (at least one): unarmed
/// serial, unarmed on `nproc` workers, gh-perf-armed and trace-and-
/// sanitize passes. Returns the per-metric medians of [`layers::METRICS`],
/// the cycle count and the last cycle's merged folded stacks.
fn per_layer(a: &Args, c: &mut Checker) -> Result<(Vec<f64>, usize, String), PlatformError> {
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut cycles: Vec<Vec<f64>> = Vec::new();
    let mut folded = String::new();
    while cycles.is_empty() || Instant::now() < deadline {
        let (boot_ns, unarmed) = setup_and_pass(a, c, &run::unarmed(), true, 1)?;
        let (_, parallel) = setup_and_pass(a, c, &run::unarmed(), false, nproc())?;
        let (perf_boot_ns, profiled) = setup_and_pass(a, c, &run::perf_armed(), true, 1)?;
        let (_, traced) = setup_and_pass(a, c, &run::traced(), true, 1)?;
        let t = CycleTimes {
            unarmed_ns: unarmed.wall_ns,
            parallel_ns: parallel.wall_ns,
            // A sweep's boots happen inside `run_suite` on both sides.
            serial_boot_ns: if a.workload == Workload::Sweep {
                0
            } else {
                boot_ns
            },
            perf_ns: profiled.wall_ns,
            perf_boot_ns,
            traced_ns: traced.wall_ns,
            cache_hits: profiled.cache_hits,
            cache_lookups: profiled.cache_lookups,
        };
        cycles.push(layers::metrics(&t, &profiled.outcomes, &traced.outcomes));
        let runs = profiled
            .outcomes
            .iter()
            .filter_map(|o| Some((o.verdict.label.as_str(), o.perf.as_ref()?)));
        folded = gh_perf::export::folded(&layers::merged_profile(runs));
    }
    let medians = (0..layers::METRICS.len())
        .map(|i| median(&cycles.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .collect();
    Ok((medians, cycles.len(), folded))
}

/// Writes `out/<workload>-<seed>.layers.json` and `.folded`. A failed
/// write is reported on stderr and does not fail the run.
fn write_outputs(a: &Args, metrics: &str, cycles: usize, folded: &str) {
    let base = format!("{OUT_DIR}/{}-{}", a.workload.name(), a.seed);
    let j = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cycles\": {cycles}, \"metrics\": {metrics}}}\n",
        a.workload.name(),
        a.seed
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{base}.layers.json"), j))
        .and_then(|()| std::fs::write(format!("{base}.folded"), folded));
    match written {
        Ok(()) => eprintln!("gm-bench: wrote {base}.layers.json and {base}.folded"),
        Err(e) => eprintln!("gm-bench: could not write {base}.*: {e}"),
    }
}

/// Appends `{"name": {"value": v, "unit": "u"}, ...}`. Non-finite values
/// cannot occur (every ratio guards its denominator) but would be
/// invalid JSON, so they print as 0.
fn metrics_json<'a>(o: &mut String, ms: impl Iterator<Item = ((&'a str, &'a str), f64)>) {
    o.push('{');
    for (i, ((name, unit), v)) in ms.enumerate() {
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            o,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    o.push('}');
}

fn bench(a: &Args) -> Result<String, PlatformError> {
    let mut c = Checker::default();
    let (names, values, traced) = if a.trace {
        let (mut v, cycles, folded) = per_layer(a, &mut c)?;
        v.push(ratio(c.failed as f64, c.attempted as f64));
        let names: Vec<(&str, &str)> = layers::METRICS
            .iter()
            .copied()
            .chain([("failed_ratio", "ratio")])
            .collect();
        eprintln!("gm-bench: {cycles} traced cycles (median of each)");
        (names, v, Some((cycles, folded)))
    } else {
        (END_TO_END.to_vec(), end_to_end(a, &mut c)?, None)
    };
    for f in c.failures.iter().take(20) {
        eprintln!("gm-bench: FAILED {f}");
    }
    eprintln!(
        "gm-bench: {} {} seed {}: {} runs checked, {} failed",
        a.workload.name(),
        if a.trace { "per-layer" } else { "end-to-end" },
        a.seed,
        c.attempted,
        c.failed
    );
    for ((name, unit), v) in names.iter().zip(&values) {
        eprintln!("  {name:<32} {v:>16.6} {unit}");
    }
    let mut metrics = String::new();
    metrics_json(
        &mut metrics,
        names.iter().copied().zip(values.iter().copied()),
    );
    if let Some((cycles, folded)) = traced {
        write_outputs(a, &metrics, cycles, &folded);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        c.failed == 0,
        c.attempted,
        c.failed
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gm-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&a) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gm-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload sweep --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Sweep);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload sweep --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 1").is_err());
        assert!(args("--workload sweep --seed 1 --seconds 1 --trace").is_err());
    }

    #[test]
    fn metrics_json_is_named_values_with_units() {
        let mut s = String::new();
        metrics_json(
            &mut s,
            [(("a", "ms"), 1.5), (("b", "count"), f64::NAN)].into_iter(),
        );
        assert_eq!(
            s,
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}"
        );
    }

    /// Every metric name the binary prints is declared in
    /// `BENCHMARK.json`, and every other declared name is a workload.
    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap())
            .collect();
        let printed: Vec<&str> = END_TO_END
            .iter()
            .chain(layers::METRICS.iter())
            .map(|(n, _)| *n)
            .chain(["failed_ratio"])
            .collect();
        for n in &printed {
            assert!(declared.contains(n), "{n} not declared");
        }
        let workloads: Vec<&str> = declared
            .iter()
            .copied()
            .filter(|n| !printed.contains(n))
            .collect();
        assert!(workloads.len() >= 2, "{workloads:?}");
        for w in workloads {
            assert!(
                Workload::parse(w).is_some(),
                "{w} is neither metric nor workload"
            );
        }
    }
}
