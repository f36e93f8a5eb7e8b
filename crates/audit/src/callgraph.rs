//! A workspace call graph with per-function effect propagation.
//!
//! Nodes are the functions of `Lib`/`Bin` files outside `#[cfg(test)]`
//! modules; edges are *callee names* (method names and final path
//! segments), resolved at propagation time by name. That is deliberately
//! coarser than real Rust name resolution — the audit has no trait or
//! type information to dispatch on — but it composes safely with
//! union-style effect propagation: if *any* function named `populate`
//! has an effect, every call to `populate` is assumed to have it. For
//! invariants of the form "every fn that does X must also do Y" this
//! over-approximates X and Y together, so a function only trips the rule
//! when no candidate callee provides the required companion effect.
//!
//! Effects are a `u8` bitset supplied by the rule ([`CallGraph::propagate`]
//! takes the direct-effect vector and returns the transitive closure);
//! the graph itself is effect-agnostic.

use crate::ast::{self, Expr};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One function in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the declaring file in the engine's file list.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when the fn is associated.
    pub impl_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Names this function calls (method names + final path segments).
    pub callees: BTreeSet<String>,
}

/// The workspace call graph. `fns` is ordered by (file, source line) and
/// is the index space for effect vectors.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All graph nodes.
    pub fns: Vec<FnNode>,
    /// Function name -> node indices, for candidate resolution.
    name_idx: BTreeMap<String, Vec<usize>>,
}

/// Iterates exactly the functions [`CallGraph::build`] collects, in node
/// order, yielding `(node_index, file_index, impl_type, fn)`. Rules use
/// this to compute direct-effect vectors parallel to `CallGraph::fns`.
pub fn for_each_graph_fn<'a>(
    files: &'a [SourceFile],
    asts: &'a [ast::File],
    f: &mut dyn FnMut(usize, usize, Option<&'a str>, &'a ast::FnDef),
) {
    let mut node = 0usize;
    for (idx, (file, tree)) in files.iter().zip(asts).enumerate() {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        ast::for_each_fn(tree, &mut |impl_ty, fd| {
            if file.in_test_mod(fd.line) {
                return;
            }
            f(node, idx, impl_ty, fd);
            node += 1;
        });
    }
}

impl CallGraph {
    /// Builds the graph over `files`/`asts` (parallel by index), keeping
    /// `Lib`/`Bin` functions outside test modules.
    pub fn build(files: &[SourceFile], asts: &[ast::File]) -> CallGraph {
        let mut fns = Vec::new();
        for_each_graph_fn(files, asts, &mut |_, idx, impl_ty, fd| {
            let mut callees = BTreeSet::new();
            if let Some(body) = &fd.body {
                ast::walk_block(body, &mut |e| match e {
                    Expr::Method { name, .. } => {
                        callees.insert(name.clone());
                    }
                    Expr::Call { callee, .. } => {
                        if let Expr::Path { segs, .. } = callee.as_ref() {
                            if let Some(last) = segs.last() {
                                callees.insert(last.clone());
                            }
                        }
                    }
                    _ => {}
                });
            }
            fns.push(FnNode {
                file: idx,
                name: fd.name.clone(),
                impl_ty: impl_ty.map(str::to_string),
                line: fd.line,
                callees,
            });
        });
        let mut name_idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            name_idx.entry(f.name.clone()).or_default().push(i);
        }
        CallGraph { fns, name_idx }
    }

    /// Candidate callees for a call to `name`. When `recv_ty` is known
    /// and at least one same-named candidate is associated with that
    /// type, only those candidates are returned (typed dispatch);
    /// otherwise every same-named function is a candidate (by-name
    /// dispatch). An empty vec means the callee is
    /// outside the workspace (std, shims).
    pub fn candidates(&self, name: &str, recv_ty: Option<&str>) -> Vec<usize> {
        let Some(all) = self.name_idx.get(name) else {
            return Vec::new();
        };
        if let Some(ty) = recv_ty {
            let typed: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| self.fns[i].impl_ty.as_deref() == Some(ty))
                .collect();
            if !typed.is_empty() {
                return typed;
            }
        }
        all.clone()
    }

    /// Transitive effect closure: starting from `direct` (parallel to
    /// `fns`), repeatedly unions each function's effects with those of
    /// every same-named candidate for each of its callees, to fixpoint.
    pub fn propagate(&self, direct: &[u8]) -> Vec<u8> {
        let mut effects = direct.to_vec();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut acc = effects[i];
                for callee in &self.fns[i].callees {
                    if let Some(cands) = self.name_idx.get(callee.as_str()) {
                        for &j in cands {
                            acc |= effects[j];
                        }
                    }
                }
                if acc != effects[i] {
                    effects[i] = acc;
                    changed = true;
                }
            }
            if !changed {
                return effects;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(name, src)| {
                SourceFile::parse(&format!("{name}/src/lib.rs"), name, FileKind::Lib, src)
            })
            .collect();
        let asts: Vec<ast::File> = files.iter().map(|f| ast::parse(&f.tokens)).collect();
        let g = CallGraph::build(&files, &asts);
        (files, g)
    }

    #[test]
    fn effects_propagate_through_calls() {
        let (_f, g) = graph(&[(
            "a",
            "fn leaf() { } fn mid() { leaf(); } fn top(&self) { self.mid(); }",
        )]);
        assert_eq!(g.fns.len(), 3);
        let leaf = g.fns.iter().position(|f| f.name == "leaf").unwrap();
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        let mut direct = vec![0u8; g.fns.len()];
        direct[leaf] = 1;
        let eff = g.propagate(&direct);
        assert_eq!(eff[top], 1, "effect reaches transitive caller");
    }

    #[test]
    fn test_mod_fns_are_excluded() {
        let (_f, g) = graph(&[(
            "a",
            "fn real() {}\n#[cfg(test)]\nmod tests { fn fake() {} }",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
    }

    #[test]
    fn name_union_merges_candidates() {
        let (_f, g) = graph(&[
            ("a", "fn work() { }"),
            ("b", "fn work() { } fn caller() { work(); }"),
        ]);
        let a_work = g
            .fns
            .iter()
            .position(|f| f.name == "work" && f.file == 0)
            .unwrap();
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        let mut direct = vec![0u8; g.fns.len()];
        direct[a_work] = 2;
        let eff = g.propagate(&direct);
        assert_eq!(eff[caller], 2, "any same-named candidate's effects apply");
    }
}
