//! `trace-coverage`: every `gh-trace` event kind used anywhere in the
//! simulator must be explicitly registered in the exporter.
//!
//! `rustc` guarantees match exhaustiveness only until someone adds a `_`
//! arm; the exporters (`crates/trace/src/export.rs`) route each event kind
//! to a named track, and a new `Event` variant that silently falls into a
//! catch-all would record events that no exporter surfaces — invisible in
//! Perfetto, absent from the explain table, unverifiable against the
//! ground-truth counters. This workspace-level rule cross-references three
//! things lexically: the `Event` enum declaration, every `Event::Variant`
//! use site in lib/bin code, and the exporter source. A used variant that
//! the exporter never names by its identifier is a finding at the first
//! use site.

use crate::resolve::Workspace;
use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// See module docs.
#[derive(Debug)]
pub struct TraceCoverage;

impl Rule for TraceCoverage {
    fn name(&self) -> &'static str {
        "trace-coverage"
    }

    fn describe(&self) -> &'static str {
        "every emitted gh-trace event kind is named by an exporter"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        check_files(ws.files, out);
    }
}

/// Runs the cross-file check over all parsed workspace files.
fn check_files(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(enum_file) = files
        .iter()
        .find(|f| f.rel_path.ends_with("src/event.rs") && declares_event_enum(f))
    else {
        return; // No event bus in this tree (fixture workspaces).
    };
    let variants = event_variants(enum_file);
    if variants.is_empty() {
        return;
    }
    let exporter_names: BTreeSet<String> = files
        .iter()
        .filter(|f| f.rel_path.ends_with("src/export.rs"))
        .flat_map(|f| event_variant_uses(f).into_keys())
        .collect();
    // First use site of each variant outside the declaring/exporting files.
    let mut uses: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for f in files {
        if !matches!(f.kind, FileKind::Lib | FileKind::Bin)
            || f.rel_path == enum_file.rel_path
            || f.rel_path.ends_with("src/export.rs")
        {
            continue;
        }
        for (v, line) in event_variant_uses(f) {
            let site = (f.rel_path.clone(), line);
            uses.entry(v)
                .and_modify(|s| *s = (*s).clone().min(site.clone()))
                .or_insert(site);
        }
    }
    for (variant, (path, line)) in uses {
        if !variants.contains(&variant) {
            continue; // `Event::` on some other enum named Event.
        }
        if !exporter_names.contains(&variant) {
            out.push(Finding {
                rule: "trace-coverage",
                path,
                line,
                msg: format!(
                    "event kind `Event::{variant}` is emitted here but never named in the \
                     exporter (src/export.rs); register it on a track so traces surface it"
                ),
            });
        }
    }
}

fn declares_event_enum(f: &SourceFile) -> bool {
    let code: Vec<_> = f.code_tokens().collect();
    code.windows(2)
        .any(|w| w[0].is_ident("enum") && w[1].is_ident("Event"))
}

/// Variant identifiers of `enum Event { ... }` (depth-1 idents that open a
/// variant: followed by `{`, `(`, `,`, or the closing brace).
fn event_variants(f: &SourceFile) -> BTreeSet<String> {
    let code: Vec<_> = f.code_tokens().collect();
    let mut variants = BTreeSet::new();
    let Some(start) = code
        .windows(3)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident("Event") && w[2].is_punct("{"))
    else {
        return variants;
    };
    let mut depth = 0i32;
    let mut i = start + 2;
    let mut at_variant_start = true;
    while i < code.len() {
        let t = code[i];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
            if depth == 1 {
                at_variant_start = false; // end of a variant's field block
            }
        } else if depth == 1 {
            if t.is_punct(",") {
                at_variant_start = true;
            } else if t.is_punct("#") {
                // attribute on a variant; skip its [ ... ] group
            } else if at_variant_start
                && t.kind == crate::lexer::TokKind::Ident
                && t.text
                    .chars()
                    .next()
                    .map(char::is_uppercase)
                    .unwrap_or(false)
            {
                variants.insert(t.text.clone());
                at_variant_start = false;
            }
        }
        i += 1;
    }
    variants
}

/// `Event :: Variant` token sequences in a file, with the first line each
/// variant is seen on (test modules excluded).
fn event_variant_uses(f: &SourceFile) -> BTreeMap<String, u32> {
    let code: Vec<_> = f.code_tokens().collect();
    let mut out: BTreeMap<String, u32> = BTreeMap::new();
    for w in code.windows(3) {
        if w[0].is_ident("Event")
            && w[1].is_punct("::")
            && w[2].kind == crate::lexer::TokKind::Ident
            && !f.in_test_mod(w[2].line)
        {
            out.entry(w[2].text.clone()).or_insert(w[2].line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str, kind: FileKind, src: &str) -> SourceFile {
        SourceFile::parse(path, "gh-trace", kind, src)
    }

    const ENUM_SRC: &str = "pub enum Event {\n    PageFault { va: u64 },\n    Migration { bytes: u64 },\n    TlbEvict { va: u64 },\n}\n";

    #[test]
    fn unregistered_emitted_variant_fires() {
        let files = vec![
            sf("crates/trace/src/event.rs", FileKind::Lib, ENUM_SRC),
            sf(
                "crates/trace/src/export.rs",
                FileKind::Lib,
                "fn tid(e: &Event) -> u32 { match e { Event::PageFault { .. } => 1, Event::Migration { .. } => 2, _ => 9 } }",
            ),
            sf(
                "crates/mem/src/tlb.rs",
                FileKind::Lib,
                "fn f() { emit(Event::TlbEvict { va: 0 }); }",
            ),
        ];
        let mut out = Vec::new();
        check_files(&files, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("TlbEvict"));
        assert_eq!(out[0].path, "crates/mem/src/tlb.rs");
    }

    #[test]
    fn fully_registered_workspace_is_clean() {
        let files = vec![
            sf("crates/trace/src/event.rs", FileKind::Lib, ENUM_SRC),
            sf(
                "crates/trace/src/export.rs",
                FileKind::Lib,
                "fn tid(e: &Event) -> u32 { match e { Event::PageFault { .. } => 1, Event::Migration { .. } => 2, Event::TlbEvict { .. } => 3 } }",
            ),
            sf(
                "crates/mem/src/tlb.rs",
                FileKind::Lib,
                "fn f() { emit(Event::TlbEvict { va: 0 }); emit(Event::Migration { bytes: 1 }); }",
            ),
        ];
        let mut out = Vec::new();
        check_files(&files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn variant_parse_handles_field_blocks() {
        let f = sf("crates/trace/src/event.rs", FileKind::Lib, ENUM_SRC);
        let v = event_variants(&f);
        assert_eq!(
            v.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["Migration", "PageFault", "TlbEvict"]
        );
    }

    #[test]
    fn no_event_enum_means_no_findings() {
        let files = vec![sf("crates/mem/src/tlb.rs", FileKind::Lib, "fn f() {}")];
        let mut out = Vec::new();
        check_files(&files, &mut out);
        assert!(out.is_empty());
    }
}
