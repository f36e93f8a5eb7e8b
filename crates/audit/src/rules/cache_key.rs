//! `cache-key-completeness`: every job-spec field is part of the job
//! cache key, by construction.
//!
//! The `gh-jobs` executor memoizes `RunReport`s keyed by a stable hash
//! of `JobSpec::canonical_key()`. That is sound only if *every* field
//! that can change a report is folded into the key — a field missing
//! from the key makes the cache serve one config's report for another,
//! silently and deterministically.
//!
//! The compiler proves completeness when the key opens with one
//! exhaustive destructure of `self`:
//!
//! ```text
//! let Self { app, platform, ..., session: SessionOptions { trace, ... } } = self;
//! ```
//!
//! With no `..` anywhere in the pattern, a new field fails to compile
//! until it is bound, and a bound field left out of the key trips
//! `unused_variables`, which CI's `clippy -D warnings` denies. This rule
//! checks the shape that makes the proof hold: every `canonical_key` in
//! lib/bin code must contain a `let <Struct> { ... } = self;` whose
//! pattern has no rest (`..`) and no `_`-prefixed binding (which would
//! silence the lint).

use crate::lexer::Tok;
use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};

/// See module docs.
#[derive(Debug)]
pub struct CacheKeyCompleteness;

impl Rule for CacheKeyCompleteness {
    fn name(&self) -> &'static str {
        "cache-key-completeness"
    }

    fn describe(&self) -> &'static str {
        "canonical_key destructures self exhaustively, so every spec field is keyed"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            return;
        }
        let code: Vec<_> = file.code_tokens().collect();
        for (i, t) in code.iter().enumerate() {
            let is_key_fn =
                t.is_ident("fn") && code.get(i + 1).is_some_and(|n| n.is_ident("canonical_key"));
            if !is_key_fn || file.in_test_mod(t.line) {
                continue;
            }
            let Some(body) = fn_body(&code[i..]) else {
                continue;
            };
            if let Err(problem) = check_destructure(body) {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    msg: format!(
                        "`canonical_key` {problem}; open it with one exhaustive \
                         `let Self {{ a, b, nested: Inner {{ c, d }} }} = self;` \
                         spelling every field (no `..`, no `_` bindings) so a new field \
                         fails to compile and an unkeyed one trips `unused_variables`"
                    ),
                });
            }
        }
    }
}

/// The tokens between the braces of the first body after `fn`; `None`
/// for a bodyless declaration.
fn fn_body<'a, 't>(code: &'a [&'t Tok]) -> Option<&'a [&'t Tok]> {
    let open = code
        .iter()
        .position(|t| t.is_punct("{") || t.is_punct(";"))?;
    if !code[open].is_punct("{") {
        return None;
    }
    let close = matching_brace(code, open)?;
    Some(&code[open + 1..close])
}

/// Index of the `}` closing the `{` at `open`.
fn matching_brace(code: &[&Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Finds `let Name { pattern } = self;` at the body's top level and
/// checks that its pattern spells every field.
fn check_destructure(body: &[&Tok]) -> Result<(), &'static str> {
    let mut depth = 0i32;
    for (i, t) in body.iter().enumerate() {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
        }
        let opens_pattern =
            depth == 0 && t.is_ident("let") && body.get(i + 2).is_some_and(|b| b.is_punct("{"));
        if !opens_pattern {
            continue;
        }
        let Some(close) = matching_brace(body, i + 2) else {
            continue;
        };
        let rhs: Vec<&str> = body[close + 1..]
            .iter()
            .take(3)
            .map(|t| t.text.as_str())
            .collect();
        if rhs != ["=", "self", ";"] {
            continue;
        }
        let pattern = &body[i + 3..close];
        if pattern.iter().any(|t| t.is_punct("..")) {
            return Err("leaves fields out of its `self` destructure with `..`");
        }
        if pattern.iter().any(|t| t.text.starts_with('_')) {
            return Err("binds a field to `_` in its `self` destructure");
        }
        return Ok(());
    }
    Err("reads `self` without an exhaustive destructure")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/gh-jobs/src/lib.rs", "gh-jobs", FileKind::Lib, src);
        let mut out = Vec::new();
        CacheKeyCompleteness.check_file(&f, &mut out);
        out
    }

    fn key_fn(body: &str) -> String {
        format!("impl Spec {{\n    pub fn canonical_key(&self) -> String {{ {body} }}\n}}")
    }

    #[test]
    fn exhaustive_destructure_is_clean() {
        let src = key_fn(
            "let Self { app, session: Opts { trace, perf } } = self; \
             format!(\"{app};{trace};{perf}\")",
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn field_reads_without_destructure_fire() {
        let out = check(&key_fn("format!(\"{}\", self.app)"));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert!(out[0].msg.contains("without an exhaustive destructure"));
    }

    #[test]
    fn rest_pattern_fires_at_any_depth() {
        for pat in [
            "Self { app, .. }",
            "Self { app, session: Opts { trace, .. } }",
        ] {
            let out = check(&key_fn(&format!("let {pat} = self; format!(\"{{app}}\")")));
            assert_eq!(out.len(), 1, "{pat}");
            assert!(out[0].msg.contains("`..`"), "{}", out[0].msg);
        }
    }

    #[test]
    fn underscore_bindings_fire() {
        for pat in ["Self { app, small: _ }", "Self { app, small: _small }"] {
            let out = check(&key_fn(&format!("let {pat} = self; format!(\"{{app}}\")")));
            assert_eq!(out.len(), 1, "{pat}");
            assert!(out[0].msg.contains("`_`"), "{}", out[0].msg);
        }
    }

    #[test]
    fn destructure_of_another_value_does_not_count() {
        let src = key_fn("let Opts { trace, perf } = &self.session; format!(\"{trace}{perf}\")");
        assert_eq!(check(&src).len(), 1);
    }

    #[test]
    fn other_fns_and_test_mods_are_out_of_scope() {
        assert!(
            check("impl Spec { pub fn label(&self) -> String { self.app.clone() } }").is_empty()
        );
        let in_test = format!(
            "#[cfg(test)]\nmod tests {{\n{}\n}}",
            key_fn("String::new()")
        );
        assert!(check(&in_test).is_empty());
    }
}
