//! Fixture-based end-to-end tests for the audit engine: every rule must
//! fire on the seeded-violation tree, stay silent on its clean twin, and
//! the real workspace itself must audit clean.

use gh_audit::{audit_workspace, AuditConfig, Finding};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit(name: &str) -> Vec<Finding> {
    audit_workspace(&AuditConfig::new(fixture_root(name))).expect("fixture tree is readable")
}

fn rule_hits<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

const JOBS: &str = "crates/gh-jobs/src/lib.rs";
const MEM: &str = "crates/gh-mem/src/lib.rs";
const PERF: &str = "crates/gh-perf/src/lib.rs";
const TRACE: &str = "crates/gh-trace/src/lib.rs";

/// Every finding the seeded tree reports, in report order (path, line,
/// rule). 25 findings at 23 distinct sites: two `typed-units` parameters
/// share line 59 and two raw-unit escapes share line 67.
const SEEDED: [(&str, u32, &str); 25] = [
    (JOBS, 21, "cache-key-completeness"),
    (JOBS, 41, "session-isolation"),
    (JOBS, 58, "lock-discipline"),
    (MEM, 6, "no-wall-clock"),
    (MEM, 16, "typed-units"),
    (MEM, 17, "typed-units"),
    (MEM, 27, "unordered-iter-flow"),
    (MEM, 31, "no-wall-clock"),
    (MEM, 32, "no-wall-clock"),
    (MEM, 37, "no-float-eq"),
    (MEM, 42, "no-unwrap-in-lib"),
    (MEM, 48, "allow-syntax"),
    (MEM, 53, "no-platform-leak"),
    (MEM, 59, "typed-units"),
    (MEM, 59, "typed-units"),
    (MEM, 67, "typed-units"),
    (MEM, 67, "typed-units"),
    (MEM, 80, "epoch-coherence"),
    (MEM, 94, "typed-units"),
    (MEM, 101, "session-isolation"),
    (MEM, 105, "session-isolation"),
    (MEM, 108, "session-isolation"),
    (MEM, 109, "session-isolation"),
    (PERF, 26, "no-wall-clock"),
    (TRACE, 10, "trace-coverage"),
];

/// Messages of the findings at `path:line`.
fn msgs_at<'a>(findings: &'a [Finding], path: &str, line: u32) -> Vec<&'a str> {
    findings
        .iter()
        .filter(|f| f.path == path && f.line == line)
        .map(|f| f.msg.as_str())
        .collect()
}

#[test]
fn seeded_fixture_reports_the_golden_findings() {
    let f = audit("seeded");
    let got: Vec<(&str, u32, &str)> = f
        .iter()
        .map(|x| (x.path.as_str(), x.line, x.rule))
        .collect();
    assert_eq!(got, SEEDED, "{f:#?}");
    let sites: BTreeSet<(&str, u32)> = SEEDED.iter().map(|&(p, l, _)| (p, l)).collect();
    assert_eq!(sites.len(), 23);

    // Wall clock: gh-perf may read host time (its banned-ident probe at
    // lines 13-18 stays silent) but a measured duration reaching a
    // counter fires.
    assert!(msgs_at(&f, MEM, 31)[0].contains("virtual clock"));
    assert!(msgs_at(&f, PERF, 26)[0].contains("trace/counter sink"));
    // Units: raw unit-named parameters name the newtype to use.
    assert!(msgs_at(&f, MEM, 16)[0].contains("gh_units::Bytes"));
    let span_cost = msgs_at(&f, MEM, 59);
    assert!(span_cost.iter().any(|m| m.contains("gh_units::Bytes")));
    assert!(span_cost.iter().any(|m| m.contains("gh_units::SimNs")));
    assert!(msgs_at(&f, MEM, 17)[0].contains("saturating"));
    let escape_hatch = msgs_at(&f, MEM, 67);
    assert!(escape_hatch.iter().any(|m| m.contains("widen")));
    assert!(escape_hatch.iter().any(|m| m.contains(".get()")));
    let launder = msgs_at(&f, MEM, 94)[0];
    assert!(launder.contains("`Bytes`") && launder.contains("`Pages`"));
    // Session state: the pool-task capture names the handle, and the
    // ambient-state hits point at the SessionCtx.
    assert!(msgs_at(&f, JOBS, 41)[0].contains("`bus`"));
    for line in [101, 105, 108, 109] {
        assert!(msgs_at(&f, MEM, line)[0].contains("SessionCtx"), "{line}");
    }
}

#[test]
fn seeded_fixture_fires_unordered_iter_flow() {
    // `report()` pushes hash-ordered values element-wise into the
    // returned vec; the flow rule flags the escape, not the iteration.
    let f = audit("seeded");
    let hits = rule_hits(&f, "unordered-iter-flow");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-mem/src/lib.rs"));
    assert!(hits[0].msg.contains("returned"), "{}", hits[0].msg);
}

#[test]
fn seeded_fixture_fires_epoch_coherence() {
    // `PageTable::populate` mutates placement without bumping the epoch;
    // `retire` bumps and must stay silent.
    let f = audit("seeded");
    let hits = rule_hits(&f, "epoch-coherence");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].msg.contains("PageTable::populate"),
        "{}",
        hits[0].msg
    );
}

#[test]
fn seeded_fixture_fires_no_float_eq() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-float-eq");
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn seeded_fixture_fires_no_unwrap_in_lib() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-unwrap-in-lib");
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn seeded_fixture_fires_no_platform_leak() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-platform-leak");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-mem/src/lib.rs"));
    assert!(hits[0].msg.contains("machine_cfg"), "{}", hits[0].msg);
}

#[test]
fn seeded_fixture_fires_trace_coverage() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "trace-coverage");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].msg.contains("Ghost"), "{}", hits[0].msg);
    assert!(hits[0].path.contains("gh-trace/src/lib.rs"));
}

#[test]
fn seeded_fixture_fires_cache_key_completeness() {
    // `JobSpec::canonical_key` reads `self.session.trace` field by field
    // instead of destructuring `self`, so the compiler cannot prove that
    // `session.perf` is keyed; the finding anchors at the key definition.
    let f = audit("seeded");
    let hits = rule_hits(&f, "cache-key-completeness");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-jobs/src/lib.rs"));
    assert!(hits[0].msg.contains("canonical_key"), "{}", hits[0].msg);
    assert!(
        hits[0].msg.contains("exhaustive destructure"),
        "{}",
        hits[0].msg
    );
}

#[test]
fn seeded_fixture_fires_lock_discipline() {
    // `publish` calls `count` (which locks `map`) while still holding
    // the `map` guard — an interprocedural self-deadlock.
    let f = audit("seeded");
    let hits = rule_hits(&f, "lock-discipline");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-jobs/src/lib.rs"));
    assert!(hits[0].msg.contains("`map`"), "{}", hits[0].msg);
    assert!(hits[0].msg.contains("count"), "{}", hits[0].msg);
}

#[test]
fn seeded_fixture_flags_reasonless_allow() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "allow-syntax");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].msg.contains("reason"), "{}", hits[0].msg);
}

#[test]
fn rule_filter_narrows_to_requested_rules() {
    let mut cfg = AuditConfig::new(fixture_root("seeded"));
    cfg.only_rules.insert("no-float-eq".to_string());
    let f = audit_workspace(&cfg).expect("fixture tree is readable");
    assert!(!f.is_empty());
    assert!(f.iter().all(|x| x.rule == "no-float-eq"), "{f:?}");
}

#[test]
fn clean_fixture_has_zero_findings() {
    let f = audit("clean");
    assert!(f.is_empty(), "clean fixture must audit clean: {f:#?}");
}

#[test]
fn real_workspace_audits_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let f = audit_workspace(&AuditConfig::new(root)).expect("workspace is readable");
    assert!(
        f.is_empty(),
        "the workspace must stay violation-free; run `cargo run -p gh-audit` for details: {f:#?}"
    );
}
