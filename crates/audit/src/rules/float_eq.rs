//! `no-float-eq`: cost-model code must not compare floats with `==`/`!=`.
//!
//! Bandwidths, efficiencies, and utilization ratios flow through `f64`
//! (bytes ÷ GB/s). Exact float comparison is almost always a latent bug:
//! two mathematically equal cost expressions can differ in the last ulp
//! depending on evaluation order, so an `==` silently turns a model
//! decision into a platform/codegen coin flip — a determinism *and*
//! correctness hazard. Compare against an epsilon, restructure on integer
//! state, or allow the rare intentional exact-sentinel compare with a
//! reason.
//!
//! Detection: `==`/`!=` with a float literal on either side, or where the
//! adjacent identifier is float-annotated in this file (`: f64`, `: f32`).

use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// See module docs.
#[derive(Debug)]
pub struct FloatEq;

impl Rule for FloatEq {
    fn name(&self) -> &'static str {
        "no-float-eq"
    }

    fn describe(&self) -> &'static str {
        "no ==/!= on floating-point values in cost-model code"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            return;
        }
        let code: Vec<_> = file.code_tokens().collect();
        let float_idents = float_bound_idents(&code);
        for (i, t) in code.iter().enumerate() {
            if !(t.is_punct("==") || t.is_punct("!=")) || file.in_test_mod(t.line) {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| code[p]);
            let next = code.get(i + 1).copied();
            let lit = |tok: &Option<&crate::lexer::Tok>| {
                tok.map(|t| t.kind == crate::lexer::TokKind::Float)
                    .unwrap_or(false)
            };
            let bound = |tok: &Option<&crate::lexer::Tok>| {
                tok.map(|t| {
                    t.kind == crate::lexer::TokKind::Ident && float_idents.contains(t.text.as_str())
                })
                .unwrap_or(false)
            };
            // A float literal on either side is conclusive. Ident-only
            // matches need BOTH sides float-annotated: the ident table is
            // file-wide, so one `v: f64` must not taint an integer `v == 0`
            // in another function.
            if lit(&prev) || lit(&next) || (bound(&prev) && bound(&next)) {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    msg: format!(
                        "float `{}` comparison is exact to the last ulp and breaks under \
                         reordering; compare with an epsilon or restructure on integer state",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Identifiers annotated `: f64` / `: f32` anywhere in the file.
fn float_bound_idents<'a>(code: &[&'a crate::lexer::Tok]) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    for i in 2..code.len() {
        if (code[i].is_ident("f64") || code[i].is_ident("f32"))
            && code[i - 1].is_punct(":")
            && code[i - 2].kind == crate::lexer::TokKind::Ident
        {
            out.insert(code[i - 2].text.as_str());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("c/src/lib.rs", "c", FileKind::Lib, src);
        let mut out = Vec::new();
        FloatEq.check_file(&f, &mut out);
        out
    }

    #[test]
    fn literal_compare_fires() {
        assert_eq!(run("fn f(x: u64) { if ratio == 0.0 {} }").len(), 1);
        assert_eq!(run("fn f() { if 1.5 != y {} }").len(), 1);
    }

    #[test]
    fn annotated_ident_compare_fires() {
        assert_eq!(run("fn f(bw: f64, x: f64) { if bw == x {} }").len(), 1);
    }

    #[test]
    fn integer_compares_are_fine() {
        assert!(run("fn f(a: u64, b: u64) { if a == b || a != 0 {} }").is_empty());
    }

    #[test]
    fn shadowed_integer_ident_is_not_tainted_by_float_binding() {
        // `v: f64` in one fn must not flag `v == 0` (u64) in another.
        let src = "fn g(v: f64) -> f64 { v } fn f(v: u64) -> bool { v == 0 }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn tuple_field_integer_compare_is_fine() {
        assert!(run("fn f(slot: (u64, u64), line: u64) { if slot.0 == line {} }").is_empty());
    }

    #[test]
    fn test_mod_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { assert!(x == 0.0); } }";
        assert!(run(src).is_empty());
    }
}
