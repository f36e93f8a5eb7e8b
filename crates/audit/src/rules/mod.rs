//! The audit rules, one per invariant. A rule may check token shapes
//! per file ([`Rule::check_file`]), reason over the parsed workspace
//! ([`Rule::check_workspace`], which by default runs the per-file check
//! on every file), or both.

pub mod cache_key;
pub mod epoch_coherence;
pub mod float_eq;
pub mod lock_discipline;
pub mod no_platform_leak;
pub mod session_isolation;
pub mod trace_coverage;
pub mod units;
pub mod unordered_flow;
pub mod unwrap_lib;
pub mod wall_clock;

use crate::resolve::Workspace;
use crate::source::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (stable; used in allow directives).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub msg: String,
}

/// One audit rule.
pub trait Rule {
    /// Stable rule name (what `allow(...)` takes).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Appends token-level findings for one file (allow filtering
    /// happens later, in the engine, so rules stay oblivious to
    /// suppression). The default checks nothing.
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}
    /// Appends findings for the whole workspace. The default runs
    /// [`Rule::check_file`] on every file; rules that need the parsed
    /// workspace (call graph, taint dataflow) extend it.
    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        for file in ws.files {
            self.check_file(file, out);
        }
    }
}

/// Every rule, in `--list-rules` order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(wall_clock::WallClock),
        Box::new(units::TypedUnits),
        Box::new(float_eq::FloatEq),
        Box::new(unwrap_lib::UnwrapInLib),
        Box::new(no_platform_leak::PlatformLeak),
        Box::new(trace_coverage::TraceCoverage),
        Box::new(epoch_coherence::EpochCoherence),
        Box::new(unordered_flow::UnorderedIterFlow),
        Box::new(cache_key::CacheKeyCompleteness),
        Box::new(session_isolation::SessionIsolation),
        Box::new(lock_discipline::LockDiscipline),
    ]
}

/// Names of every rule plus the `allow-syntax` meta rule, for `--rule`
/// validation and allow-directive checking.
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    names.push(crate::engine::ALLOW_SYNTAX);
    names
}
