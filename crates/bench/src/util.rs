//! Shared harness utilities.
//!
//! Benches are a *boundary*: this module is where `GH_TRACE`/`GH_JOBS`
//! env vars are read and folded into per-run
//! [`SessionOptions`](gh_cuda::SessionOptions). Library code below this
//! layer never touches the environment (audit rule `session-isolation`).

use gh_apps::{AppId, MemMode};
use gh_cuda::SessionOptions;
use gh_mem::clock::Ns;
use gh_sim::{platform, Machine, MachineConfig, RunReport, KIB};

/// Builds a GH200 machine with the given page size and migration switch
/// and a quiet session.
pub fn machine(page_4k: bool, auto_migration: bool) -> Machine {
    machine_session(page_4k, auto_migration, &SessionOptions::default())
}

/// Builds a GH200 machine under explicit session options.
pub fn machine_session(page_4k: bool, auto_migration: bool, so: &SessionOptions) -> Machine {
    let cfg = MachineConfig {
        page_size: Some(if page_4k { 4 * KIB } else { 64 * KIB }),
        auto_migration,
        ..Default::default()
    };
    platform::gh200()
        .machine_session(&cfg, so)
        .expect("GH200 supports both paper page sizes")
}

/// Runs one application (default or shrunk input) on a fresh machine.
/// With `GH_TRACE=1` the run is traced on its session bus and the trace
/// artifacts are exported (see [`traced`]).
pub fn run_app(
    app: AppId,
    mode: MemMode,
    page_4k: bool,
    auto_migration: bool,
    fast: bool,
) -> RunReport {
    let label = format!(
        "{}-{}-{}",
        app.name(),
        mode.label(),
        if page_4k { "4k" } else { "64k" }
    );
    traced(&label, |so| {
        let m = machine_session(page_4k, auto_migration, so);
        if fast {
            app.run_small(m, mode)
        } else {
            app.run(m, mode)
        }
    })
}

/// True when the `GH_TRACE` environment variable asks for bus tracing.
pub fn trace_requested() -> bool {
    std::env::var("GH_TRACE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Worker count for concurrent harnesses: `GH_JOBS=<n>` wins, otherwise
/// `default` (pass 1 for serial-by-default suites).
pub fn jobs_requested(default: usize) -> usize {
    std::env::var("GH_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// Session options for one harness run: tracing per `GH_TRACE`,
/// everything else default.
pub fn session_opts() -> SessionOptions {
    SessionOptions {
        trace: trace_requested(),
        ..Default::default()
    }
}

/// Runs `f` under session options seeded from the environment
/// (`GH_TRACE=1` arms the bus); the report's embedded trace is exported
/// via [`export_trace`] under `label`. When tracing is off, the bus
/// no-ops — virtual-time results are identical either way.
pub fn traced(label: &str, f: impl FnOnce(&SessionOptions) -> RunReport) -> RunReport {
    let so = session_opts();
    let r = f(&so);
    if so.trace {
        export_trace(label, &r);
    }
    r
}

/// Writes `<prefix>-<label>.trace.json` (Chrome trace, Perfetto-loadable)
/// and `<prefix>-<label>.metrics.csv` next to the working directory and
/// prints the explain table to stderr. The prefix defaults to `gh-trace`
/// and is overridden with `GH_TRACE_OUT`.
pub fn export_trace(label: &str, r: &RunReport) {
    let Some(t) = &r.trace else { return };
    let prefix = std::env::var("GH_TRACE_OUT").unwrap_or_else(|_| "gh-trace".into());
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let trace_path = format!("{prefix}-{slug}.trace.json");
    let metrics_path = format!("{prefix}-{slug}.metrics.csv");
    if let Err(e) = std::fs::write(&trace_path, gh_trace::export::chrome_trace(t)) {
        eprintln!("cannot write {trace_path}: {e}");
        return;
    }
    if let Err(e) = std::fs::write(&metrics_path, gh_trace::export::metrics_csv(t)) {
        eprintln!("cannot write {metrics_path}: {e}");
        return;
    }
    eprintln!("{}", gh_trace::export::explain(t));
    eprintln!("trace: {trace_path}  metrics: {metrics_path}");
}

/// Measures an application's peak GPU usage (above the driver baseline)
/// in a non-oversubscribed managed run — the §3.2 recipe for computing
/// simulated-oversubscription ratios.
pub fn peak_gpu_usage(app: AppId, fast: bool) -> u64 {
    let r = run_app(app, MemMode::Managed, false, true, fast);
    r.peak_gpu
        .saturating_sub(platform::gh200().gpu_driver_baseline())
}

/// Formats a virtual duration in milliseconds with three decimals.
pub fn ms(t: Ns) -> String {
    format!("{:.3}", t as f64 / 1e6)
}

/// Ratio `a/b` with three decimals; `inf` when `b` is 0.
pub fn ratio(a: Ns, b: Ns) -> String {
    if b == 0 {
        "inf".into()
    } else {
        format!("{:.3}", a as f64 / b as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_page_sizes() {
        assert_eq!(machine(true, true).rt.params().system_page_size, 4096);
        assert_eq!(machine(false, true).rt.params().system_page_size, 65536);
    }

    #[test]
    fn run_app_smoke() {
        let r = run_app(AppId::Hotspot, MemMode::System, false, true, true);
        assert!(r.checksum != 0.0);
    }

    #[test]
    fn peak_usage_is_positive() {
        assert!(peak_gpu_usage(AppId::Hotspot, true) > 0);
    }

    #[test]
    fn jobs_default_applies_without_env() {
        // GH_JOBS is not set under `cargo test`; the default wins.
        if std::env::var("GH_JOBS").is_err() {
            assert_eq!(jobs_requested(1), 1);
            assert_eq!(jobs_requested(8), 8);
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(1_500_000), "1.500");
        assert_eq!(ratio(3, 2), "1.500");
        assert_eq!(ratio(1, 0), "inf");
    }
}
