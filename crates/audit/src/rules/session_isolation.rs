//! `session-isolation`: per-run state lives on the run's `SessionCtx`.
//!
//! Every run owns a private `SessionCtx` — a `Bus`, a `Perf`, and
//! `Rc`-shared model state — so concurrent jobs on the worker pool
//! cannot observe each other and the `gh-jobs` executor can run the whole
//! experiment matrix in one process with bitwise-identical reports. The
//! compiler enforces part of this (`Rc` is `!Send`), but only at the
//! real `std::thread` boundary. This rule closes the remaining holes:
//!
//! 0. **ambient state** — library code may not introduce
//!    `thread_local!`, `static mut`, `OnceLock`/`LazyLock` cells, or
//!    environment reads (`std::env::var*`). Configuration flows in
//!    through `SessionOptions`; env vars are honored only at the CLI/bench
//!    boundary. Exempt: bin/bench/test/example targets (they *are* the
//!    boundary), the `gh-bench` harness crate (its `util` module turns
//!    `GH_*` variables into `SessionOptions`), and
//!    `crates/par/src/pool.rs`, whose process-wide work-stealing pool is
//!    shared *compute*, not per-run state.
//! 1. **pool-closure captures** — a closure passed to a spawn-like
//!    method must not reference a handle-typed variable bound outside
//!    the closure. Constructing a fresh session *inside* the task (the
//!    sanctioned `run_job` pattern) stays silent.
//! 2. **statics** — no `static` item of handle type (token-level,
//!    since the parser skips `static` items).
//! 3. **cross-session stores** — `a.bus = h` where `h` originates from
//!    a different session variable than `a` hands one session's handle
//!    to another.
//!
//! Handle-ness is resolved via [`crate::resolve`]: parameter and `let`
//! annotations, constructor shapes (`Bus::new`, `SessionCtx::...`,
//! `Rc::new`), known fn returns, `.clone()` chains, and field types
//! through the workspace-merged struct table. `let` chains additionally
//! record the *origin* variable a handle was cloned from, so rebinding
//! a session's own handle (`let h = a.bus.clone(); a.bus = h;`) is not
//! mistaken for a cross-session store.

use crate::ast::{self, Expr, FnDef, Stmt};
use crate::callgraph::for_each_graph_fn;
use crate::resolve::{expr_type_deep, fn_type_env, TypeEnv, Workspace};
use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Per-session handle types. `Arc` is deliberately absent: `Arc`-shared
/// state (the job cache, result slots) is the sanctioned cross-session
/// channel.
const HANDLE_TYPES: [&str; 4] = ["Bus", "Perf", "SessionCtx", "Rc"];

/// Methods that move a closure onto pool/worker threads.
const SPAWN_METHODS: [&str; 3] = ["spawn", "execute", "broadcast"];

/// Crates that are entirely boundary code.
const AMBIENT_EXEMPT_CRATES: [&str; 1] = ["gh-bench"];

/// Specific sanctioned files (workspace-relative suffix match).
const AMBIENT_EXEMPT_PATHS: [&str; 1] = ["par/src/pool.rs"];

/// Cell types whose appearance in a lib file means process-wide state.
const BANNED_CELLS: [&str; 2] = ["OnceLock", "LazyLock"];

/// See module docs.
#[derive(Debug)]
pub struct SessionIsolation;

fn is_handle(idents: &[String]) -> bool {
    idents.iter().any(|i| HANDLE_TYPES.contains(&i.as_str()))
}

impl Rule for SessionIsolation {
    fn name(&self) -> &'static str {
        "session-isolation"
    }

    fn describe(&self) -> &'static str {
        "per-run state lives on the SessionCtx: no ambient statics or env reads in model \
         crates; Bus/Perf/Rc handles never reach statics, pool closures, or other sessions"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return; // bins/benches/tests/examples are the boundary
        }
        if AMBIENT_EXEMPT_CRATES.contains(&file.crate_name.as_str())
            || AMBIENT_EXEMPT_PATHS
                .iter()
                .any(|p| file.rel_path.ends_with(p))
        {
            return;
        }
        let code: Vec<_> = file.code_tokens().collect();
        for (pos, t) in code.iter().enumerate() {
            if file.in_test_mod(t.line) {
                continue;
            }
            let next_is = |what: &str| {
                code.get(pos + 1)
                    .map(|n| n.is_punct(what) || n.is_ident(what))
                    .unwrap_or(false)
            };
            let offense = if t.is_ident("thread_local") && next_is("!") {
                Some("`thread_local!` is per-thread ambient state")
            } else if t.is_ident("static") && next_is("mut") {
                Some("`static mut` is process-wide mutable state")
            } else if BANNED_CELLS.iter().any(|b| t.is_ident(b)) {
                Some("a process-wide lazy cell latches state across runs")
            } else if t.is_ident("env")
                && next_is("::")
                && code
                    .get(pos + 2)
                    .map(|n| n.is_ident("var") || n.is_ident("var_os") || n.is_ident("vars"))
                    .unwrap_or(false)
            {
                Some("library code must not read the environment")
            } else {
                None
            };
            if let Some(why) = offense {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    msg: format!(
                        "{why}; thread per-run configuration and collectors through \
                         SessionCtx/SessionOptions instead (env vars are honored only at \
                         the CLI/bench boundary)"
                    ),
                });
            }
        }
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        for file in ws.files {
            self.check_file(file, out);
        }
        // (2) handle-typed statics, token-level (`'static` lifetimes lex
        // as Lifetime tokens, so they never match the `static` ident).
        for file in ws.files {
            if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
                continue;
            }
            let code: Vec<_> = file.code_tokens().collect();
            for (pos, t) in code.iter().enumerate() {
                if !t.is_ident("static") || file.in_test_mod(t.line) {
                    continue;
                }
                // Idents between `static NAME` and `=`/`;` are the type.
                let mut ty_idents = Vec::new();
                for n in code.iter().skip(pos + 1).take(24) {
                    if n.is_punct("=") || n.is_punct(";") || n.is_punct("{") {
                        break;
                    }
                    ty_idents.push(n.text.clone());
                }
                if is_handle(&ty_idents) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line: t.line,
                        msg: "a `static` of session-handle type (Bus/Perf/Rc/SessionCtx) \
                              outlives every session and aliases state across runs — \
                              sessions own their handles; pass them through SessionCtx"
                            .to_string(),
                    });
                }
            }
        }
        // (1) + (3): per-function AST analysis.
        for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, impl_ty, fd| {
            let file = &ws.files[fidx];
            let mut cx = FnCx {
                ws,
                fidx,
                impl_ty,
                tenv: fn_type_env(fd, &ws.fn_returns),
                origins: BTreeMap::new(),
            };
            cx.extend_let_chains(fd);
            let Some(body) = &fd.body else { return };
            ast::walk_block(body, &mut |e| match e {
                Expr::Method { name, args, .. } if SPAWN_METHODS.contains(&name.as_str()) => {
                    for a in args {
                        if let Expr::Closure { params, body, line } = a {
                            for (var, tys) in captured_handles(&cx, params, body) {
                                out.push(Finding {
                                    rule: self.name(),
                                    path: file.rel_path.clone(),
                                    line: *line,
                                    msg: format!(
                                        "closure passed to `{name}` captures session \
                                             handle `{var}` (type mentions `{tys}`) — pool \
                                             tasks must construct their session inside the \
                                             task, not share the submitter's handles"
                                    ),
                                });
                            }
                        }
                    }
                }
                Expr::Assign { op, lhs, rhs, line } if op == "=" => {
                    if let Some((dst, field, src)) = cx.cross_session_store(lhs, rhs) {
                        out.push(Finding {
                            rule: self.name(),
                            path: file.rel_path.clone(),
                            line: *line,
                            msg: format!(
                                "session `{dst}` receives handle `{src}` through \
                                     `.{field}` — storing one session's handle into \
                                     another aliases their state; clone session-owned \
                                     handles from the owning ctx only"
                            ),
                        });
                    }
                }
                _ => {}
            });
        });
    }
}

struct FnCx<'w, 'a> {
    ws: &'w Workspace<'a>,
    fidx: usize,
    impl_ty: Option<&'w str>,
    tenv: TypeEnv,
    /// Handle-typed `let` binding -> the variable its value was rooted
    /// in (flattened at insert time), for same-session detection.
    origins: BTreeMap<String, String>,
}

impl FnCx<'_, '_> {
    fn self_fields(&self) -> Option<&BTreeMap<String, Vec<String>>> {
        self.impl_ty
            .and_then(|ty| self.ws.tables[self.fidx].get(ty))
    }

    fn type_of(&self, e: &Expr) -> Vec<String> {
        expr_type_deep(
            e,
            &self.tenv,
            self.self_fields(),
            &self.ws.fn_returns,
            &self.ws.merged,
        )
    }

    fn resolve_origin<'s>(&'s self, var: &'s str) -> &'s str {
        self.origins.get(var).map(String::as_str).unwrap_or(var)
    }

    /// Folds `let`-chain types the constructor heuristic misses
    /// (`let b = ctx.bus.clone()`) into the type environment, in
    /// declaration order so chains resolve transitively.
    fn extend_let_chains(&mut self, fd: &FnDef) {
        let Some(body) = &fd.body else { return };
        ast::walk_blocks(body, &mut |b| {
            for stmt in &b.stmts {
                let Stmt::Let { pats, ty, init, .. } = stmt else {
                    continue;
                };
                if !ty.is_empty() || pats.len() != 1 {
                    continue;
                }
                if let Some(init) = init {
                    let idents = self.type_of(init);
                    if is_handle(&idents) {
                        if let Some(root) = root_var(init) {
                            let origin = self.resolve_origin(root).to_string();
                            if origin != pats[0] {
                                self.origins.insert(pats[0].clone(), origin);
                            }
                        }
                        self.tenv.insert(&pats[0], idents);
                    }
                }
            }
        });
    }

    /// `lhs = rhs` where `lhs` is a field of a `SessionCtx`-typed
    /// variable and `rhs` is a handle originating from a *different*
    /// variable.
    fn cross_session_store(&self, lhs: &Expr, rhs: &Expr) -> Option<(String, String, String)> {
        let Expr::Field { recv, name, .. } = lhs else {
            return None;
        };
        let dst = self.resolve_origin(root_var(recv)?);
        if !self.type_of(recv).iter().any(|i| i == "SessionCtx") {
            return None;
        }
        let src = self.resolve_origin(root_var(rhs)?);
        if src == dst || !is_handle(&self.type_of(rhs)) {
            return None;
        }
        Some((dst.to_string(), name.clone(), src.to_string()))
    }
}

/// The base variable under field/index/ref/method projections.
fn root_var(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path { .. } => e.as_var(),
        Expr::Field { recv, .. }
        | Expr::Index { recv, .. }
        | Expr::Unary { expr: recv, .. }
        | Expr::Method { recv, .. } => root_var(recv),
        _ => None,
    }
}

/// Handle-typed references inside a spawn closure that are bound
/// *outside* it: free variables whose type mentions a handle, and field
/// chains resolving to a handle type. Returns `(var, type-idents)`
/// pairs, deduplicated by variable.
fn captured_handles(cx: &FnCx<'_, '_>, params: &[String], body: &Expr) -> Vec<(String, String)> {
    // Names bound inside the closure (params + local lets) are not
    // captures.
    let mut local: BTreeSet<String> = params.iter().cloned().collect();
    ast::walk_expr(body, &mut |e| {
        if let Expr::BlockExpr { block, .. } = e {
            for stmt in &block.stmts {
                if let Stmt::Let { pats, .. } = stmt {
                    local.extend(pats.iter().cloned());
                }
            }
        }
    });
    let mut out: Vec<(String, String)> = Vec::new();
    let mut seen = BTreeSet::new();
    ast::walk_expr(body, &mut |e| {
        let (var, tys) = match e {
            Expr::Path { .. } => {
                let Some(v) = e.as_var() else { return };
                if local.contains(v) {
                    return;
                }
                (
                    v.to_string(),
                    cx.tenv.get(v).map(<[String]>::to_vec).unwrap_or_default(),
                )
            }
            Expr::Field { .. } => {
                let Some(v) = root_var(e) else { return };
                if local.contains(v) {
                    return;
                }
                (v.to_string(), cx.type_of(e))
            }
            _ => return,
        };
        if is_handle(&tys) && seen.insert(var.clone()) {
            let names: Vec<&str> = tys
                .iter()
                .map(String::as_str)
                .filter(|t| HANDLE_TYPES.contains(t))
                .collect();
            out.push((var, names.join("/")));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn check(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            "crates/gh-jobs/src/lib.rs",
            "gh-jobs",
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        SessionIsolation.check_workspace(&ws, &mut out);
        out
    }

    #[test]
    fn captured_bus_in_spawn_closure_fires() {
        let src = "pub fn leak(pool: &Pool, bus: Bus) { pool.spawn(move || bus.emit(1)); }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`bus`"));
    }

    #[test]
    fn cloned_handle_chain_is_tracked() {
        let src = "pub struct SessionCtx { pub bus: Bus }\n\
                   pub fn leak(pool: &Pool, ctx: &SessionCtx) { let b = ctx.bus.clone(); pool.spawn(move || b.emit(1)); }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`b`"));
    }

    #[test]
    fn field_chain_capture_fires() {
        let src = "pub struct SessionCtx { pub bus: Bus }\n\
                   pub fn leak(pool: &Pool, ctx: &SessionCtx) { pool.spawn(move || ctx.bus.emit(1)); }";
        assert!(!check(src).is_empty());
    }

    #[test]
    fn session_built_inside_task_is_clean() {
        let src = "pub fn ok(pool: &Pool, small: bool) { pool.spawn(move || { let ctx = SessionCtx::fresh(small); run(&ctx); }); }";
        assert!(
            check(src).is_empty(),
            "fresh-per-task is the sanctioned pattern"
        );
    }

    #[test]
    fn arc_capture_is_clean() {
        let src =
            "pub fn ok(pool: &Pool, cache: Arc<JobCache>) { pool.spawn(move || cache.len()); }";
        assert!(
            check(src).is_empty(),
            "Arc is the sanctioned sharing channel"
        );
    }

    #[test]
    fn closure_param_shadowing_is_clean() {
        let src =
            "pub fn ok(pool: &Pool, items: Vec<u64>) { items.iter().map(|bus| bus + 1).count(); }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn non_spawn_closure_is_clean() {
        let src = "pub fn ok(bus: Bus, v: Vec<u64>) { v.iter().for_each(|x| bus.emit(*x)); }";
        assert!(
            check(src).is_empty(),
            "same-thread iteration is not an escape"
        );
    }

    #[test]
    fn handle_static_fires() {
        let src = "static SHARED_BUS: Bus = Bus::new();";
        let out = check(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("static"));
    }

    #[test]
    fn plain_static_is_clean() {
        let src = "static MAX_JOBS: usize = 64;";
        assert!(check(src).is_empty());
    }

    #[test]
    fn static_lifetime_is_not_a_static_item() {
        let src = "pub fn name() -> &'static str { \"gh\" }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn cross_session_store_fires() {
        let src = "pub struct SessionCtx { pub bus: Bus }\n\
                   pub fn splice(a: &mut SessionCtx, b: &SessionCtx) { let h = b.bus.clone(); a.bus = h; }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`a`"));
    }

    #[test]
    fn same_session_store_is_clean() {
        let src = "pub struct SessionCtx { pub bus: Bus }\n\
                   pub fn rewire(a: &mut SessionCtx) { let h = a.bus.clone(); a.bus = h; }";
        assert!(
            check(src).is_empty(),
            "rebinding within one session is fine"
        );
    }

    fn run_at(path: &str, crate_name: &str, kind: FileKind, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, crate_name, kind, src);
        let mut out = Vec::new();
        SessionIsolation.check_file(&f, &mut out);
        out
    }

    fn run(kind: FileKind, src: &str) -> Vec<Finding> {
        run_at("c/src/lib.rs", "gh-mem", kind, src)
    }

    #[test]
    fn thread_local_in_lib_fires() {
        let out = run(
            FileKind::Lib,
            "thread_local! { static S: RefCell<u32> = RefCell::new(0); }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "session-isolation");
    }

    #[test]
    fn lazy_cells_fire() {
        assert_eq!(
            run(
                FileKind::Lib,
                "static ON: OnceLock<bool> = OnceLock::new();"
            )
            .len(),
            2, // both mentions of the cell type
        );
        assert_eq!(run(FileKind::Lib, "use std::sync::LazyLock;").len(), 1);
    }

    #[test]
    fn static_mut_fires_but_plain_static_does_not() {
        assert_eq!(run(FileKind::Lib, "static mut X: u32 = 0;").len(), 1);
        assert!(run(FileKind::Lib, "static X: u32 = 0;").is_empty());
        // A local named `static_mut` or the words in a string are fine.
        assert!(run(FileKind::Lib, "let s = \"static mut\";").is_empty());
    }

    #[test]
    fn env_reads_fire_in_lib_only() {
        let src = "let v = std::env::var(\"GH_TRACE\");";
        assert_eq!(run(FileKind::Lib, src).len(), 1);
        assert!(run(FileKind::Bin, src).is_empty());
        assert!(run(FileKind::Bench, src).is_empty());
        assert!(run(FileKind::Test, src).is_empty());
    }

    #[test]
    fn env_module_mention_alone_is_fine() {
        assert!(run(FileKind::Lib, "use std::env;").is_empty());
        assert!(run(FileKind::Lib, "let env = 3; let x = env + 1;").is_empty());
    }

    #[test]
    fn sanctioned_boundaries_are_exempt() {
        let src = "static POOL: OnceLock<Pool> = OnceLock::new();";
        assert!(run_at("crates/par/src/pool.rs", "gh-par", FileKind::Lib, src).is_empty());
        let env_src = "let v = std::env::var(\"GH_FAST\");";
        assert!(run_at(
            "crates/bench/src/lib.rs",
            "gh-bench",
            FileKind::Lib,
            env_src
        )
        .is_empty());
        // The same pool code elsewhere in gh-par still fires.
        assert!(!run_at("crates/par/src/lib.rs", "gh-par", FileKind::Lib, src).is_empty());
    }

    #[test]
    fn ambient_state_in_test_mods_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let v = std::env::var(\"X\"); }\n}\n";
        assert!(run(FileKind::Lib, src).is_empty());
    }
}
