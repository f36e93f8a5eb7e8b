//! `epoch-coherence`: every function that mutates page placement must
//! bump `placement_epoch` before returning.
//!
//! `Runtime::classify_span_cached` caches span classifications and
//! validates them against `PageTable::placement_epoch()`. The cache is
//! sound only if *every* path that changes placement — mapping, unmapping,
//! remapping/migration, eviction — also advances the epoch; a single
//! missed bump silently serves stale placement to the access fast path,
//! which is exactly the class of bug end-to-end determinism tests cannot
//! localize.
//!
//! Detection is structural, not name-based, so `Tlb::evict` and friends
//! cannot false-positive:
//!
//! * **placement mutation** = `*.entries.insert(..)` / `*.entries.remove(..)`
//!   or an assignment to a `.node` field, inside an `impl` of a struct
//!   that declares an `epoch`/`placement_epoch` field in the same file
//!   (only the page table matches);
//! * **epoch bump** = an assignment to an `epoch`/`placement_epoch`
//!   field under the same gating.
//!
//! Both effects propagate transitively through the workspace call graph
//! (union over same-named callees — see [`crate::callgraph`]), and any
//! `gh-mem`/`gh-os`/`gh-cuda` library function whose transitive effects
//! include mutation but not a bump is flagged. Dirty-bit updates
//! (`mark_dirty`) touch neither `entries` membership nor `.node`, so they
//! are exempt by construction — dirtiness is not placement.

use crate::ast::{self, Expr, FnDef};
use crate::callgraph::for_each_graph_fn;
use crate::resolve::{StructTable, Workspace};
use crate::rules::{Finding, Rule};
use crate::source::FileKind;

/// Effect bit: the fn (transitively) mutates page placement.
const EF_MUTATES: u8 = 1;
/// Effect bit: the fn (transitively) bumps the placement epoch.
const EF_BUMPS: u8 = 2;

/// Crates whose placement state guards the span-classification cache.
const GUARDED_CRATES: [&str; 3] = ["gh-mem", "gh-os", "gh-cuda"];

/// Field names that hold the placement epoch.
const EPOCH_FIELDS: [&str; 2] = ["epoch", "placement_epoch"];

/// See module docs.
#[derive(Debug)]
pub struct EpochCoherence;

impl Rule for EpochCoherence {
    fn name(&self) -> &'static str {
        "epoch-coherence"
    }

    fn describe(&self) -> &'static str {
        "placement-mutating fns must bump placement_epoch before returning"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        let graph = &ws.graph;
        let mut direct = vec![0u8; graph.fns.len()];
        for_each_graph_fn(ws.files, &ws.asts, &mut |node, fidx, impl_ty, fd| {
            direct[node] = direct_effects(fd, impl_ty, &ws.tables[fidx]);
        });
        let effects = graph.propagate(&direct);
        for (i, node) in graph.fns.iter().enumerate() {
            let file = &ws.files[node.file];
            if file.kind != FileKind::Lib || !GUARDED_CRATES.contains(&file.crate_name.as_str()) {
                continue;
            }
            if effects[i] & EF_MUTATES != 0 && effects[i] & EF_BUMPS == 0 {
                let what = match &node.impl_ty {
                    Some(ty) => format!("`{}::{}`", ty, node.name),
                    None => format!("`{}`", node.name),
                };
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: node.line,
                    msg: format!(
                        "{what} mutates page placement (directly or via its callees) \
                         without bumping `placement_epoch`; \
                         `Runtime::classify_span_cached` would serve stale placement \
                         — bump the epoch before returning"
                    ),
                });
            }
        }
    }
}

/// Direct effects of one function body: placement mutation and epoch
/// bumps, gated to impls of structs that declare an epoch field in the
/// declaring file.
fn direct_effects(fd: &FnDef, impl_ty: Option<&str>, table: &StructTable) -> u8 {
    let gated = impl_ty
        .and_then(|ty| table.get(ty))
        .is_some_and(|fields| EPOCH_FIELDS.iter().any(|f| fields.contains_key(*f)));
    if !gated {
        return 0;
    }
    let Some(body) = &fd.body else { return 0 };
    let mut effects = 0u8;
    ast::walk_block(body, &mut |e| match e {
        Expr::Method { recv, name, .. } if name == "insert" || name == "remove" => {
            if matches!(recv.as_ref(), Expr::Field { name, .. } if name == "entries") {
                effects |= EF_MUTATES;
            }
        }
        Expr::Assign { lhs, .. } => match lhs.as_ref() {
            Expr::Field { name, .. } if name == "node" => effects |= EF_MUTATES,
            Expr::Field { name, .. } if EPOCH_FIELDS.contains(&name.as_str()) => {
                effects |= EF_BUMPS;
            }
            Expr::Field { name, .. } if name == "entries" => effects |= EF_MUTATES,
            _ => {}
        },
        _ => {}
    });
    effects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::Workspace;
    use crate::source::SourceFile;

    fn check(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            "crates/gh-mem/src/lib.rs",
            "gh-mem",
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        EpochCoherence.check_workspace(&ws, &mut out);
        out
    }

    const TABLE: &str = "pub struct Table { entries: Radix, epoch: u64 }\n";

    #[test]
    fn mutation_without_bump_fires() {
        let src = format!(
            "{TABLE}impl Table {{ pub fn stash(&mut self, k: u64) {{ self.entries.insert(k, 1); }} }}"
        );
        let out = check(&src);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("Table::stash"));
    }

    #[test]
    fn mutation_with_bump_is_clean() {
        let src = format!(
            "{TABLE}impl Table {{ pub fn stash(&mut self, k: u64) {{ self.entries.insert(k, 1); self.epoch = self.epoch.saturating_add(1); }} }}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn missing_bump_propagates_to_callers() {
        let src = format!(
            "{TABLE}impl Table {{ fn stash(&mut self, k: u64) {{ self.entries.insert(k, 1); }} \
             pub fn map_page(&mut self, k: u64) {{ self.stash(k); }} }}"
        );
        let out = check(&src);
        assert_eq!(out.len(), 2, "both the mutator and its caller fire");
    }

    #[test]
    fn caller_of_bumping_mutator_is_clean() {
        let src = format!(
            "{TABLE}impl Table {{ fn stash(&mut self, k: u64) {{ self.entries.insert(k, 1); self.epoch = self.epoch.saturating_add(1); }} \
             pub fn map_page(&mut self, k: u64) {{ self.stash(k); }} }}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn non_epoch_structs_are_exempt() {
        // A TLB with an `entries`-named field but no epoch: eviction is
        // not placement.
        let src = "pub struct Tlb { entries: Vec<u64> }\n\
                   impl Tlb { pub fn evict(&mut self) { self.entries.remove(0); } }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn dirty_bit_updates_are_exempt() {
        let src = format!(
            "{TABLE}impl Table {{ pub fn mark_dirty(&mut self, k: u64) {{ if let Some(e) = self.entries.get_mut(k) {{ e.dirty = true; }} }} }}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn node_reassignment_is_mutation() {
        let src = format!(
            "{TABLE}impl Table {{ pub fn remap(&mut self, k: u64, n: u8) {{ if let Some(e) = self.entries.get_mut(k) {{ e.node = n; }} }} }}"
        );
        assert_eq!(check(&src).len(), 1);
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let files = vec![SourceFile::parse(
            "crates/gh-trace/src/lib.rs",
            "gh-trace",
            FileKind::Lib,
            &format!("{TABLE}impl Table {{ pub fn stash(&mut self, k: u64) {{ self.entries.insert(k, 1); }} }}"),
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        EpochCoherence.check_workspace(&ws, &mut out);
        assert!(out.is_empty());
    }
}
