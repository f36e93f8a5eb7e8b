//! `no-platform-leak`: experiment layers must not name backend
//! cost-model types.
//!
//! The platform seam (`gh_sim::platform`) exists so that apps, benches,
//! the replay/advisor layer, the CLI and the integration tests work
//! against *any* registered backend. A single direct mention of
//! `CostParams`, `RuntimeOptions` or `Machine::default_gh200` outside
//! the backend layer hard-codes GH200 assumptions and silently excludes
//! every other platform from that experiment. Callers build machines
//! through `Platform::machine_cfg` / `machine_tweaked` instead; the
//! tweak closure's parameter type is inferred, so even parameter sweeps
//! never spell the banned names.
//!
//! The backend layer itself is exempt: the cost-model crates (`gh-mem`,
//! `gh-cuda`, `gh-os` — identified by path, `crates/mem/` etc.), the
//! platform implementations under `crates/core/src/platform/`, and the
//! `Machine` facade that adapts them. Tests and benches are *not*
//! exempt — they are experiment layers too.

use crate::rules::{Finding, Rule};
use crate::source::SourceFile;

/// Identifiers that belong to the backend layer only.
const BANNED: [&str; 3] = ["CostParams", "RuntimeOptions", "default_gh200"];

/// Path prefixes of the backend layer (workspace-relative).
const ALLOWED_PREFIXES: [&str; 4] = [
    "crates/mem/",
    "crates/cuda/",
    "crates/os/",
    "crates/core/src/platform",
];

/// Individual backend-layer files.
const ALLOWED_FILES: [&str; 1] = ["crates/core/src/machine.rs"];

/// See module docs.
#[derive(Debug)]
pub struct PlatformLeak;

impl Rule for PlatformLeak {
    fn name(&self) -> &'static str {
        "no-platform-leak"
    }

    fn describe(&self) -> &'static str {
        "experiment layers must build machines via gh_sim::platform, never backend cost types"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let path = file.rel_path.as_str();
        if ALLOWED_PREFIXES.iter().any(|p| path.starts_with(p)) || ALLOWED_FILES.contains(&path) {
            return;
        }
        for t in file.code_tokens() {
            if BANNED.iter().any(|b| t.is_ident(b)) {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    msg: format!(
                        "`{}` is a platform-backend identifier; build machines through \
                         gh_sim::platform (machine_cfg / machine_tweaked) so the \
                         experiment works on every registered backend",
                        t.text
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn run(path: &str, kind: FileKind, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, "c", kind, src);
        let mut out = Vec::new();
        PlatformLeak.check_file(&f, &mut out);
        out
    }

    #[test]
    fn cost_params_in_bench_fires() {
        let out = run(
            "crates/bench/src/util.rs",
            FileKind::Lib,
            "let p = CostParams::default();",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "no-platform-leak");
        assert!(out[0].msg.contains("machine_cfg"), "{}", out[0].msg);
    }

    #[test]
    fn default_gh200_in_root_test_fires() {
        let out = run(
            "tests/determinism.rs",
            FileKind::Test,
            "let m = Machine::default_gh200();",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn runtime_options_in_example_fires() {
        let out = run(
            "examples/quickstart.rs",
            FileKind::Example,
            "let o = RuntimeOptions::default();",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn test_mods_are_not_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let p = CostParams::default(); }\n}\n";
        assert_eq!(run("crates/apps/src/lib.rs", FileKind::Lib, src).len(), 1);
    }

    #[test]
    fn backend_layer_is_exempt() {
        for path in [
            "crates/mem/src/params.rs",
            "crates/cuda/src/runtime.rs",
            "crates/os/src/lib.rs",
            "crates/core/src/platform/gh200.rs",
            "crates/core/src/machine.rs",
        ] {
            let out = run(path, FileKind::Lib, "pub struct CostParams;");
            assert!(out.is_empty(), "{path} must be exempt");
        }
    }

    #[test]
    fn banned_words_in_strings_and_comments_are_fine() {
        let src = "// CostParams is banned here\nlet s = \"RuntimeOptions\";";
        assert!(run("crates/bench/src/util.rs", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn platform_api_usage_is_fine() {
        let src = "let m = platform::gh200().machine_cfg(&cfg).unwrap();";
        assert!(run("crates/bench/src/util.rs", FileKind::Lib, src).is_empty());
    }
}
