//! `no-unwrap-in-lib`: library crates return errors; they do not abort the
//! process.
//!
//! The simulator is a library first (`gh-sim::Machine` is embedded by the
//! CLI, the bench harness, and integration tests). A `.unwrap()` on a
//! fallible path turns a recoverable condition — unparseable trace line,
//! out-of-range replay offset, poisoned lock — into a process abort that
//! takes the whole experiment batch down with it. Every panic site in lib
//! code must either become a typed error or carry an allow directive whose
//! reason documents the invariant that makes it unreachable
//! (`// gh-audit: allow(no-unwrap-in-lib) -- <invariant>`). `assert!` /
//! `debug_assert!` are deliberately NOT flagged: asserts state invariants,
//! and that is exactly the escape hatch this rule pushes panics toward.
//!
//! Exempt: tests, benches, examples, binaries, and the `gh-bench` harness
//! crate (experiment scaffolding, same trust level as benches).

use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};

/// Crates exempt from this rule (harness/scaffolding, not library API).
pub const EXEMPT_CRATES: [&str; 1] = ["gh-bench"];

/// See module docs.
#[derive(Debug)]
pub struct UnwrapInLib;

impl Rule for UnwrapInLib {
    fn name(&self) -> &'static str {
        "no-unwrap-in-lib"
    }

    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic in library code; return typed errors or document the invariant"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib || EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let code: Vec<_> = file.code_tokens().collect();
        for (i, t) in code.iter().enumerate() {
            if t.kind != crate::lexer::TokKind::Ident || file.in_test_mod(t.line) {
                continue;
            }
            let name = t.text.as_str();
            let flagged = match name {
                // `.unwrap()` / `.expect(` method calls.
                "unwrap" | "expect" => {
                    i > 0
                        && code[i - 1].is_punct(".")
                        && code.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false)
                }
                // Panicking macros.
                "panic" | "unreachable" | "todo" | "unimplemented" => {
                    code.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false)
                }
                _ => false,
            };
            if !flagged {
                continue;
            }
            out.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: t.line,
                msg: format!(
                    "`{name}` can abort the process from library code; return a typed error, \
                     or document the invariant with an allow directive if it is unreachable"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(kind: FileKind, crate_name: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("c/src/lib.rs", crate_name, kind, src);
        let mut out = Vec::new();
        UnwrapInLib.check_file(&f, &mut out);
        out
    }

    #[test]
    fn unwrap_and_expect_fire() {
        assert_eq!(
            run(FileKind::Lib, "c", "fn f(x: Option<u8>) { x.unwrap(); }").len(),
            1
        );
        assert_eq!(
            run(
                FileKind::Lib,
                "c",
                "fn f(x: Option<u8>) { x.expect(\"m\"); }"
            )
            .len(),
            1
        );
    }

    #[test]
    fn panic_macros_fire() {
        assert_eq!(
            run(FileKind::Lib, "c", "fn f() { panic!(\"boom\"); }").len(),
            1
        );
        assert_eq!(
            run(FileKind::Lib, "c", "fn f() { unreachable!(); }").len(),
            1
        );
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).min(x.unwrap_or_default()) }";
        assert!(run(FileKind::Lib, "c", src).is_empty());
    }

    #[test]
    fn asserts_are_fine() {
        let src = "fn f(n: u64) { assert!(n.is_power_of_two()); debug_assert_eq!(n % 2, 0); }";
        assert!(run(FileKind::Lib, "c", src).is_empty());
    }

    #[test]
    fn tests_bins_and_bench_crate_are_exempt() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(run(FileKind::Test, "c", src).is_empty());
        assert!(run(FileKind::Bin, "c", src).is_empty());
        assert!(run(FileKind::Lib, "gh-bench", src).is_empty());
    }

    #[test]
    fn cfg_test_mod_in_lib_file_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { None::<u8>.unwrap(); } }";
        assert!(run(FileKind::Lib, "c", src).is_empty());
    }
}
