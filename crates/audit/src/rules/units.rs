//! `typed-units`: model-crate quantities go through gh-units.
//!
//! The `gh-units` crate (`Bytes`, `Pages`, `Lines`, `SimNs`, `Vpn`,
//! `BwGiBs`) exists so that a page count can never be added to a byte
//! count and a nanosecond duration can never be divided by a bandwidth
//! without going through a declared conversion, and its arithmetic
//! saturates, so an accumulator pins at the rail instead of wrapping.
//! The paper's results *are* these accumulators (fault counts × cost,
//! migrated bytes ÷ C2C bandwidth); one wrapped or mislabelled total
//! invalidates a figure without failing a test. The rule flags every way
//! a quantity can slip out of the newtypes in the lib sources of the
//! model crates (`gh-mem`, `gh-os`, `gh-cuda`; test modules exempt):
//!
//! * **raw unit parameters** — a `pub fn` taking a raw `u64` whose
//!   *name* says it is a unit quantity (`*bytes*`, `*pages*`, `*ns*`,
//!   `*vpn*`, `*lines*`). Virtual-address offsets and lengths (`addr`,
//!   `off`, `len`, pitches, strides) are the *address* domain and stay
//!   raw — only unit vocabulary matches.
//! * **raw casts** — `as u64` and `.0` tuple-field escapes bypass the
//!   conversion surface. `gh_units::widen` (usize → u64) and `.get()`
//!   are the sanctioned exits; `as f64`/`as usize` stay legal.
//! * **unchecked accounting** — `+=`/`-=`/`*=` on a place whose name is
//!   accounting vocabulary (bytes, pages, faults, costs, ...) wraps in
//!   release builds. Use `saturating_*`, or declare the place with a
//!   gh-units type (`field: Bytes`, `let mut n = Lines::ZERO`), whose
//!   operators saturate by construction.
//! * **unit laundering** (dataflow, every crate) — a raw value escaped
//!   through `.get()` and rewrapped in a *different* unit's constructor
//!   (`Pages::new(bytes.get())`): off by the page size, and
//!   deterministically so. Scaling arithmetic (`*`, `/`, `%`, shifts,
//!   mul/div-named methods) kills the label, since that is how a
//!   legitimate conversion looks; same-unit round-trips stay silent.

use crate::ast::Expr;
use crate::callgraph::for_each_graph_fn;
use crate::dataflow::{self, Labels, TaintEnv, TaintSpec};
use crate::lexer::{Tok, TokKind};
use crate::resolve::{expr_type, first_unit, fn_type_env, TypeEnv, Workspace, UNIT_TYPES};
use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, HashSet};

/// Rule name, shared by the sub-checks.
const NAME: &str = "typed-units";

/// Crates whose public APIs and accumulators must speak typed units.
const UNIT_CRATES: [&str; 3] = ["gh-mem", "gh-os", "gh-cuda"];

/// `_`-separated name segments that mark a parameter as a unit quantity,
/// with the newtype it should carry.
const UNIT_SEGMENTS: [(&str, &str); 6] = [
    ("bytes", "gh_units::Bytes"),
    ("pages", "gh_units::Pages"),
    ("ns", "gh_units::SimNs"),
    ("vpn", "gh_units::Vpn"),
    ("vpns", "gh_units::VpnRange"),
    ("lines", "gh_units::Lines"),
];

/// The newtype suggested for a parameter name, if any segment matches.
fn suggested_unit(name: &str) -> Option<&'static str> {
    name.split('_').find_map(|seg| {
        UNIT_SEGMENTS
            .iter()
            .find(|(s, _)| *s == seg)
            .map(|(_, u)| *u)
    })
}

/// See module docs.
#[derive(Debug)]
pub struct TypedUnits;

impl Rule for TypedUnits {
    fn name(&self) -> &'static str {
        NAME
    }

    fn describe(&self) -> &'static str {
        "model-crate quantities stay in gh-units: typed unit params, no raw casts, \
         saturating accumulators, no cross-unit .get() laundering"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib || !UNIT_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let code: Vec<_> = file.code_tokens().collect();
        check_params(file, &code, out);
        check_casts(file, &code, out);
        check_accounting(file, &code, out);
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        for file in ws.files {
            self.check_file(file, out);
        }
        check_laundering(ws, out);
    }
}

/// Flags unit-named raw-`u64` parameters of `pub fn`s.
fn check_params(file: &SourceFile, code: &[&Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < code.len() {
        let is_pub_fn = code[i].is_ident("fn") && i > 0 && code[i - 1].is_ident("pub");
        if !is_pub_fn || file.in_test_mod(code[i].line) {
            i += 1;
            continue;
        }
        let Some(open) = param_list_open(code, i + 1) else {
            i += 1;
            continue;
        };
        let (params, close) = split_params(code, open);
        for p in params {
            check_param(file, p, out);
        }
        i = close;
    }
}

/// Index of the parameter list's `(`, skipping the fn name and any
/// generic parameter list (where `<`/`>` nest and `<<`/`>>` count
/// double). `None` when the declaration has no parens before its body.
fn param_list_open(code: &[&Tok], from: usize) -> Option<usize> {
    let mut angle = 0i32;
    for (j, t) in code.iter().enumerate().skip(from) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "(" if angle == 0 => return Some(j),
                "{" | ";" if angle == 0 => return None,
                _ => {}
            }
        }
    }
    None
}

/// Splits the parameter list starting at `open` (`(`) into per-parameter
/// token slices (split on `,` at depth 1) and returns them with the
/// index just past the closing `)`.
fn split_params<'a>(code: &[&'a Tok], open: usize) -> (Vec<Vec<&'a Tok>>, usize) {
    let mut depth = 0i32;
    let mut params = Vec::new();
    let mut cur: Vec<&Tok> = Vec::new();
    let mut j = open;
    while j < code.len() {
        let t = code[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        if !cur.is_empty() {
                            params.push(std::mem::take(&mut cur));
                        }
                        return (params, j + 1);
                    }
                }
                "," if depth == 1 => {
                    if !cur.is_empty() {
                        params.push(std::mem::take(&mut cur));
                    }
                    j += 1;
                    continue;
                }
                _ => {}
            }
        }
        if depth >= 1 && !(depth == 1 && t.is_punct("(")) {
            cur.push(t);
        }
        j += 1;
    }
    (params, j)
}

/// Flags `name: <type containing u64>` when the name is unit vocabulary.
fn check_param(file: &SourceFile, p: Vec<&Tok>, out: &mut Vec<Finding>) {
    if p.iter().any(|t| t.is_ident("self")) {
        return;
    }
    let Some(k) = (0..p.len().saturating_sub(1))
        .find(|&k| p[k].kind == TokKind::Ident && p[k + 1].is_punct(":"))
    else {
        return;
    };
    let name = &p[k].text;
    let Some(unit) = suggested_unit(name) else {
        return;
    };
    if p[k + 2..].iter().any(|t| t.is_ident("u64")) {
        out.push(Finding {
            rule: NAME,
            path: file.rel_path.clone(),
            line: p[k].line,
            msg: format!(
                "`{name}: u64` crosses a public model-crate API as a raw integer; \
                 type it `{unit}` so unit mixups fail to compile"
            ),
        });
    }
}

/// Flags `as u64` casts and `.0` newtype escapes.
fn check_casts(file: &SourceFile, code: &[&Tok], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let t = code[i];
        if file.in_test_mod(t.line) {
            continue;
        }
        if t.is_ident("as") && i + 1 < code.len() && code[i + 1].is_ident("u64") {
            out.push(Finding {
                rule: NAME,
                path: file.rel_path.clone(),
                line: t.line,
                msg: "`as u64` re-launders any integer into any unit; convert through \
                      gh_units (`widen` for usize, the newtype constructors otherwise) \
                      or take `.get()` at the boundary"
                    .to_string(),
            });
        }
        let tuple_zero = t.is_punct(".")
            && i + 1 < code.len()
            && code[i + 1].kind == TokKind::Int
            && code[i + 1].text == "0"
            && i > 0
            && (code[i - 1].kind == TokKind::Ident
                || code[i - 1].is_punct(")")
                || code[i - 1].is_punct("]"));
        if tuple_zero {
            out.push(Finding {
                rule: NAME,
                path: file.rel_path.clone(),
                line: t.line,
                msg: "`.0` reads a newtype's payload without naming the operation; \
                      call `.get()` (units) or give the struct named fields"
                    .to_string(),
            });
        }
    }
}

/// Substrings of identifier names that denote accounting state.
const ACCT_SUBSTRINGS: [&str; 24] = [
    "byte", "page", "pte", "fault", "miss", "hit", "cost", "cycl", "notif", "evict", "hbm", "c2c",
    "l1l2", "walk", "total", "freed", "migrated", "used", "serviced", "xfer", "busy", "lines",
    "created", "removed",
];

/// Exact identifier names that denote accounting state (too short or too
/// generic for substring matching).
const ACCT_EXACT: [&str; 5] = ["dt", "tick", "dur", "pages", "bytes"];

/// True when `ident` names accounting state.
fn is_accounting_ident(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    ACCT_EXACT.iter().any(|e| *e == lower) || ACCT_SUBSTRINGS.iter().any(|s| lower.contains(s))
}

/// Scans a file's declarations for identifiers bound to a `gh-units`
/// newtype: struct fields and parameters (`name: Bytes`, `name: [Pages; 2]`)
/// and let bindings whose initializer calls into a unit type
/// (`let mut freed = Bytes::ZERO`, `let pages = gh_units::Pages::new(1)`).
fn unit_typed_idents(code: &[&Tok]) -> HashSet<String> {
    let mut set = HashSet::new();
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident {
            continue;
        }
        // `name: [&] [[]path::]Unit` — fields, params, typed lets.
        if i + 2 < code.len() && code[i + 1].is_punct(":") {
            let mut j = i + 2;
            while j < code.len()
                && (code[j].is_punct("[") || code[j].is_punct("&") || code[j].is_ident("mut"))
            {
                j += 1;
            }
            let mut last = None;
            while j < code.len() && code[j].kind == TokKind::Ident {
                last = Some(code[j].text.as_str());
                if j + 1 < code.len() && code[j + 1].is_punct("::") {
                    j += 2;
                } else {
                    break;
                }
            }
            if last.is_some_and(|t| UNIT_TYPES.contains(&t)) {
                set.insert(code[i].text.clone());
            }
        }
        // `let [mut] name = ... Unit:: ... ;`
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if j < code.len() && code[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < code.len() && code[j].kind == TokKind::Ident && code[j + 1].is_punct("=") {
                let name = code[j].text.as_str();
                let mut k = j + 2;
                while k < code.len() && !code[k].is_punct(";") {
                    if code[k].kind == TokKind::Ident
                        && UNIT_TYPES.contains(&code[k].text.as_str())
                        && k + 1 < code.len()
                        && code[k + 1].is_punct("::")
                    {
                        set.insert(name.to_string());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    set
}

/// Flags raw compound arithmetic on accounting-named places.
fn check_accounting(file: &SourceFile, code: &[&Tok], out: &mut Vec<Finding>) {
    let unit_typed = unit_typed_idents(code);
    for (i, t) in code.iter().enumerate() {
        let op = match t.text.as_str() {
            "+=" | "-=" | "*=" if t.kind == TokKind::Punct => &t.text,
            _ => continue,
        };
        if file.in_test_mod(t.line) {
            continue;
        }
        let Some(subject) = assigned_place_ident(&code[..i]) else {
            continue;
        };
        if !is_accounting_ident(subject) {
            continue;
        }
        // Declared as a gh-units newtype: its compound assignment is
        // saturating by construction — exactly what this rule asks for.
        if unit_typed.contains(subject) {
            continue;
        }
        let helper = match op.as_str() {
            "+=" => "saturating_add",
            "-=" => "saturating_sub",
            _ => "saturating_mul",
        };
        out.push(Finding {
            rule: NAME,
            path: file.rel_path.clone(),
            line: t.line,
            msg: format!(
                "`{subject} {op} ...` is accounting arithmetic that wraps on overflow in \
                 release builds; write `{subject} = {subject}.{helper}(...)` so totals \
                 saturate instead of corrupting results"
            ),
        });
    }
}

/// Walks backwards over the assigned place (`self.used[node.idx()]`,
/// `row.cpu_faults`, `cost`) and returns its final field/variable name.
fn assigned_place_ident<'a>(before: &[&'a Tok]) -> Option<&'a str> {
    let mut j = before.len();
    // Skip one trailing index/call group: `[ ... ]` or `( ... )`.
    if j > 0 && (before[j - 1].is_punct("]") || before[j - 1].is_punct(")")) {
        let (close, open) = if before[j - 1].is_punct("]") {
            ("]", "[")
        } else {
            (")", "(")
        };
        let mut depth = 0i32;
        while j > 0 {
            j -= 1;
            if before[j].is_punct(close) {
                depth += 1;
            } else if before[j].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    while j > 0 {
        let t = before[j - 1];
        if t.kind == TokKind::Ident {
            return Some(&t.text);
        }
        // `*cost += n` deref or grouping parens: keep walking left.
        if t.is_punct("*") || t.is_punct(")") || t.is_punct("(") {
            j -= 1;
            continue;
        }
        return None;
    }
    None
}

/// Constructor names that (re)wrap a raw value into a unit domain.
const UNIT_CTORS: [&str; 2] = ["new", "from_raw"];

/// Flags `.get()`-escaped raw values rewrapped in a different unit.
fn check_laundering(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, impl_ty, fd| {
        let file = &ws.files[fidx];
        let mut spec = Spec {
            ws,
            fidx,
            impl_ty,
            tenv: fn_type_env(fd, &ws.fn_returns),
            findings: Vec::new(),
        };
        dataflow::run_fn(&mut spec, fd, TaintEnv::default());
        // Loop bodies run twice in the dataflow driver; drop the
        // duplicate sink hits.
        spec.findings.sort_unstable();
        spec.findings.dedup();
        for (line, from, to) in spec.findings {
            out.push(Finding {
                rule: NAME,
                path: file.rel_path.clone(),
                line,
                msg: format!(
                    "raw value escaped from `{from}` via .get() flows into \
                     `{to}::new` — convert explicitly (the quantities differ \
                     by a unit factor) or construct from a `{to}`-domain value"
                ),
            });
        }
    });
}

struct Spec<'w, 'a> {
    ws: &'w Workspace<'a>,
    fidx: usize,
    impl_ty: Option<&'w str>,
    tenv: TypeEnv,
    /// (line, source unit, destination unit)
    findings: Vec<(u32, &'static str, &'static str)>,
}

impl Spec<'_, '_> {
    fn self_fields(&self) -> Option<&BTreeMap<String, Vec<String>>> {
        self.impl_ty
            .and_then(|ty| self.ws.tables[self.fidx].get(ty))
    }

    fn unit_of(&self, e: &Expr) -> Option<&'static str> {
        let idents = expr_type(e, &self.tenv, self.self_fields(), &self.ws.fn_returns);
        first_unit(&idents)
    }
}

/// True when `name` suggests a scaling/conversion operation.
fn is_scaling_method(name: &str) -> bool {
    name.contains("mul") || name.contains("div") || name.contains("rem") || name.contains("pow")
}

impl TaintSpec for Spec<'_, '_> {
    fn method(&mut self, e: &Expr, recv: Labels, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let Expr::Method {
            recv: recv_e,
            name,
            args: arg_es,
            ..
        } = e
        else {
            return dataflow::union(
                recv,
                args.iter().cloned().fold(Labels::new(), dataflow::union),
            );
        };
        // `.get()` with no args is the gh-units raw escape; HashMap::get(&k)
        // takes an argument and never matches.
        if name == "get" && arg_es.is_empty() {
            if let Some(unit) = self.unit_of(recv_e) {
                return dataflow::tag(unit);
            }
            return recv;
        }
        if is_scaling_method(name) {
            return Labels::new();
        }
        args.iter()
            .fold(recv, |acc, a| dataflow::union(acc, a.clone()))
    }

    fn binary(&mut self, op: &str, l: Labels, r: Labels, _line: u32) -> Labels {
        // Scaling (`*`, `/`, `%`, shifts) is how a legitimate conversion
        // looks; additive ops keep the operands' domain.
        match op {
            "+" | "-" => dataflow::union(l, r),
            _ => Labels::new(),
        }
    }

    fn call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        if let Expr::Call { callee, line, .. } = e {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if segs.len() >= 2 && UNIT_CTORS.contains(&segs[segs.len() - 1].as_str()) {
                    let ty = &segs[segs.len() - 2];
                    if let Some(dest) = UNIT_TYPES.iter().find(|u| *u == ty) {
                        for &from in args.iter().flatten() {
                            if from != *dest {
                                self.findings.push((*line, from, dest));
                            }
                        }
                        return Labels::new();
                    }
                }
            }
        }
        args.iter().cloned().fold(Labels::new(), dataflow::union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(crate_name: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("c/src/lib.rs", crate_name, FileKind::Lib, src);
        let mut out = Vec::new();
        TypedUnits.check_file(&f, &mut out);
        out
    }

    fn check(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            "crates/gh-mem/src/lib.rs",
            "gh-mem",
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        check_laundering(&ws, &mut out);
        out
    }

    #[test]
    fn raw_bytes_param_fires() {
        let out = run(
            "gh-mem",
            "pub fn alloc(&mut self, n_bytes: u64) -> u64 { n_bytes }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("gh_units::Bytes"), "{}", out[0].msg);
    }

    #[test]
    fn every_unit_segment_is_known() {
        for (name, unit) in [
            ("bytes", "Bytes"),
            ("free_pages", "Pages"),
            ("dur_ns", "SimNs"),
            ("vpn", "Vpn"),
            ("hot_vpns", "VpnRange"),
            ("missed_lines", "Lines"),
        ] {
            let src = format!("pub fn f({name}: u64) {{}}");
            let out = run("gh-os", &src);
            assert_eq!(out.len(), 1, "{name}");
            assert!(out[0].msg.contains(unit), "{name}: {}", out[0].msg);
        }
    }

    #[test]
    fn typed_param_is_fine() {
        assert!(run("gh-mem", "pub fn alloc(&mut self, bytes: Bytes) {}").is_empty());
    }

    #[test]
    fn address_domain_names_are_fine() {
        assert!(run(
            "gh-cuda",
            "pub fn slice(&self, addr: u64, off: u64, len: u64, pitch: u64) {}"
        )
        .is_empty());
    }

    #[test]
    fn private_and_crate_fns_are_fine() {
        assert!(run("gh-mem", "fn alloc(bytes: u64) {}").is_empty());
        assert!(run("gh-mem", "pub(crate) fn alloc(bytes: u64) {}").is_empty());
    }

    #[test]
    fn generic_fn_params_are_scanned_past_the_generics() {
        let out = run(
            "gh-mem",
            "pub fn fold<F: Fn(u64) -> u64>(&self, f: F, total_bytes: u64) {}",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn non_model_crates_are_out_of_scope() {
        assert!(run("gh-bench", "pub fn run(bytes: u64) {}").is_empty());
    }

    #[test]
    fn test_mods_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn helper(bytes: u64) {}\n}";
        assert!(run("gh-mem", src).is_empty());
    }

    #[test]
    fn as_u64_fires() {
        let out = run("gh-cuda", "fn f(x: u32) -> u64 { x as u64 }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("widen"), "{}", out[0].msg);
    }

    #[test]
    fn tuple_zero_escape_fires() {
        let out = run("gh-mem", "fn f(b: Bytes) -> u64 { b.0 }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains(".get()"), "{}", out[0].msg);
    }

    #[test]
    fn float_and_index_casts_are_fine() {
        assert!(run(
            "gh-mem",
            "fn f(b: Bytes) -> f64 { (b.get() as f64) / (4 as usize as f64) }"
        )
        .is_empty());
    }

    #[test]
    fn float_literals_and_ranges_are_fine() {
        assert!(run("gh-os", "fn f() -> f64 { let _r = 0..10; 1.0 + 0.5 }").is_empty());
    }

    #[test]
    fn get_is_the_sanctioned_exit() {
        assert!(run("gh-cuda", "fn f(b: Bytes) -> u64 { b.get() }").is_empty());
    }

    #[test]
    fn cast_rule_skips_tests_and_foreign_crates() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(x: u32) -> u64 { x as u64 }\n}";
        assert!(run("gh-mem", src).is_empty());
        assert!(run("gh-trace", "fn f(x: u32) -> u64 { x as u64 }").is_empty());
    }

    #[test]
    fn byte_accumulator_fires() {
        let out = run("gh-mem", "fn f(s: &mut S, n: u64) { s.bytes_h2d += n; }");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("saturating_add"));
    }

    #[test]
    fn indexed_place_fires() {
        let out = run(
            "gh-mem",
            "fn f(s: &mut S, b: u64) { s.used[node.idx()] -= b; }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("saturating_sub"));
    }

    #[test]
    fn deref_place_fires() {
        assert_eq!(
            run("gh-os", "fn f(cost: &mut u64) { *cost += 1; }").len(),
            1
        );
    }

    #[test]
    fn loop_index_is_fine() {
        assert!(run("gh-cuda", "fn f() { let mut idx = 0; idx += 1; }").is_empty());
    }

    #[test]
    fn saturating_form_is_fine() {
        assert!(run(
            "gh-mem",
            "fn f(s: &mut S, n: u64) { s.bytes = s.bytes.saturating_add(n); }"
        )
        .is_empty());
    }

    #[test]
    fn unit_typed_field_is_fine() {
        assert!(run(
            "gh-mem",
            "struct S { bytes_h2d: Bytes }\nfn f(s: &mut S, n: Bytes) { s.bytes_h2d += n; }"
        )
        .is_empty());
    }

    #[test]
    fn unit_typed_array_field_is_fine() {
        assert!(run(
            "gh-mem",
            "struct P { used: [Bytes; 2] }\nfn f(p: &mut P, b: Bytes) { p.used[0] += b; }"
        )
        .is_empty());
    }

    #[test]
    fn unit_typed_let_binding_is_fine() {
        assert!(run(
            "gh-os",
            "fn f() { let mut pages = gh_units::Pages::ZERO; pages += gh_units::Pages::new(1); }"
        )
        .is_empty());
    }

    #[test]
    fn raw_u64_still_fires_next_to_unit_decl() {
        let out = run(
            "gh-cuda",
            "struct S { lines: Lines }\nfn f(s: &mut S, raw_bytes: u64, n: u64) { s.lines += Lines::new(1); let mut bytes = raw_bytes; bytes += n; }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unit_vocabulary_scan() {
        let f = SourceFile::parse(
            "c/src/lib.rs",
            "gh-mem",
            FileKind::Lib,
            "struct S { a: Bytes, b: [Pages; 2], c: u64 }\nfn f(d: gh_units::Lines) { let mut e = SimNs::ZERO; let g = 0u64; }",
        );
        let code: Vec<_> = f.code_tokens().collect();
        let set = unit_typed_idents(&code);
        for name in ["a", "b", "d", "e"] {
            assert!(set.contains(name), "{name} should be unit-typed");
        }
        for name in ["c", "g"] {
            assert!(!set.contains(name), "{name} should not be unit-typed");
        }
    }

    #[test]
    fn non_model_crates_are_exempt() {
        assert!(run("gh-apps", "fn f(s: &mut S) { s.bytes += 1; }").is_empty());
    }

    #[test]
    fn acct_vocabulary() {
        assert!(is_accounting_ident("bytes_migrated_in"));
        assert!(is_accounting_ident("cpu_faults"));
        assert!(is_accounting_ident("dt"));
        assert!(is_accounting_ident("total_notifications"));
        assert!(!is_accounting_ident("idx"));
        assert!(!is_accounting_ident("next_buf"));
        assert!(!is_accounting_ident("va_cursor"));
    }

    #[test]
    fn cross_unit_rewrap_fires() {
        let out = check("fn f(b: Bytes) -> Pages { let raw = b.get(); Pages::new(raw) }");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("`Bytes`"));
        assert!(out[0].msg.contains("`Pages`"));
    }

    #[test]
    fn direct_cross_unit_rewrap_fires() {
        assert_eq!(
            check("fn f(b: Bytes) -> Pages { Pages::new(b.get()) }").len(),
            1
        );
    }

    #[test]
    fn same_unit_roundtrip_is_clean() {
        assert!(check("fn f(b: Bytes) -> Bytes { Bytes::new(b.get() + 1) }").is_empty());
    }

    #[test]
    fn scaled_conversion_is_clean() {
        assert!(
            check("fn f(b: Bytes) -> Pages { Pages::new(b.get() / 4096) }").is_empty(),
            "division is how legitimate conversions look"
        );
    }

    #[test]
    fn self_field_units_resolve() {
        let src = "struct S { len: Bytes }\n\
                   impl S { fn f(&self) -> Pages { Pages::new(self.len.get()) } }";
        assert_eq!(check(src).len(), 1);
    }

    #[test]
    fn hashmap_get_does_not_match() {
        let src =
            "fn f(m: HashMap<u64, u64>, k: u64) -> Pages { Pages::new(m.get(&k).copied().unwrap_or(0)) }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn branch_tainted_value_fires() {
        let src = "fn f(c: bool, b: Bytes, p: Pages) -> Vpn { let raw = if c { b.get() } else { p.get() }; Vpn::new(raw) }";
        assert_eq!(check(src).len(), 2, "both branch domains differ from Vpn");
    }

    #[test]
    fn known_fn_return_resolves() {
        let src = "pub fn span_len() -> Bytes { Bytes::new(4096) }\n\
                   pub fn f() -> Pages { let l = span_len(); Pages::new(l.get()) }";
        assert_eq!(check(src).len(), 1);
    }
}
