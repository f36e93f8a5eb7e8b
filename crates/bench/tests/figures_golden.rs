//! Pins every figure harness's fast-mode output: `run(true).render()` of
//! each module must equal its committed CSV under `tests/golden/` byte for
//! byte. Virtual time, checksums and the concurrent `run_suite` matrices
//! (platform, grand) all feed these tables, so any scheduling or model
//! change that moves a figure shows up here.
//!
//! Ignored by default (slow in debug builds); run with
//! `cargo test --release -p gh-bench --test figures_golden -- --ignored`.

use gh_bench::Csv;

fn check(name: &str, run: fn(bool) -> Csv) {
    let path = format!("{}/tests/golden/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(run(true).render(), want, "{name} differs from {path}");
}

macro_rules! figure_goldens {
    ($($name:ident => $run:expr),* $(,)?) => {$(
        #[test]
        #[ignore = "slow in debug; run in release with -- --ignored"]
        fn $name() {
            check(stringify!($name), $run);
        }
    )*};
}

figure_goldens!(
    bandwidth => gh_bench::bandwidth::run,
    table1 => |_| gh_bench::tables::table1(),
    table2 => gh_bench::tables::table2,
    ablation_threshold => gh_bench::ablations::threshold_sweep,
    ablation_budget => gh_bench::ablations::budget_sweep,
    ablation_fault_batch => gh_bench::ablations::fault_batch_sweep,
    ablation_host_register => gh_bench::ablations::host_register,
    ablation_numa_placement => gh_bench::ablations::numa_placement,
    ablation_fusion => gh_bench::ablations::fusion_sweep,
    fig03_overview => gh_bench::fig03_overview::run,
    fig04_hotspot_profile => gh_bench::fig04_hotspot_profile::run,
    fig05_qiskit_profile => gh_bench::fig05_qiskit_profile::run,
    fig06_alloc_dealloc => gh_bench::fig06_alloc_dealloc::run,
    fig07_pagesize_compute => gh_bench::fig07_pagesize_compute::run,
    fig08_qv_pagesize => gh_bench::fig08_qv_pagesize::run,
    fig09_qv_breakdown => gh_bench::fig09_qv_breakdown::run,
    fig10_srad_migration => gh_bench::fig10_srad_migration::run,
    fig11_oversubscription => gh_bench::fig11_oversubscription::run,
    fig12_qv_throughput => gh_bench::fig12_qv_throughput::run,
    fig13_qv_oversub_breakdown => gh_bench::fig13_qv_oversub_breakdown::run,
    platform_matrix => gh_bench::platform_matrix::run,
    grand_matrix => gh_bench::grand_matrix::run,
    future_work => gh_bench::future_work::run,
);
