//! `no-wall-clock`: host time must never reach simulator output.
//!
//! Every cost in the model is virtual nanoseconds ticked by
//! `gh_mem::clock::Clock`; results are counts × costs. A single
//! `Instant::now()` in a lib path silently couples reported numbers (or
//! iteration order, via time-seeded hashing) to the machine the simulator
//! runs on, breaking the bit-exact determinism contract that
//! `tests/determinism.rs` enforces end-to-end. Benches and tests may time
//! themselves; shipped simulator code may not. The rule has two halves:
//!
//! * **Outside gh-perf**, reading the clock at all is a finding
//!   (`Instant`, `SystemTime`, `UNIX_EPOCH`, `.elapsed()` in lib/bin
//!   code, test modules exempt).
//! * **Inside gh-perf** — the self-profiler, whose whole subject is host
//!   time — reading the clock is sanctioned, but a wall-clock-derived
//!   *value* must not reach a model-visible sink. Sources are
//!   `Instant::now()` / `SystemTime::now()`, `.elapsed()` and
//!   `.duration_since(..)`; the label survives arithmetic, casts and
//!   struct hops. Sinks are `emit`/`count`/`observe`/`gauge` calls,
//!   anything `*checksum*`-named, and `RunReport { .. }` field values.
//!   This catches a profiler refactor that routes a measured duration
//!   into a counter.

use crate::ast::Expr;
use crate::callgraph::for_each_graph_fn;
use crate::dataflow::{self, Labels, TaintEnv, TaintSpec};
use crate::resolve::Workspace;
use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};

/// Identifiers that read or represent host time.
const BANNED: [&str; 4] = ["Instant", "SystemTime", "UNIX_EPOCH", "elapsed"];

/// The one crate sanctioned to read host time (see module docs).
const EXEMPT_CRATE: &str = "gh-perf";

/// The taint label for wall-clock-derived values.
const WALL: &str = "wall";

/// Types whose `now()` reads host time.
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];

/// Methods that produce a host-time measurement from a clock value.
const CLOCK_METHODS: [&str; 2] = ["elapsed", "duration_since"];

/// Call/method names that feed model-visible outputs.
const SINKS: [&str; 4] = ["emit", "count", "observe", "gauge"];

/// See module docs.
#[derive(Debug)]
pub struct WallClock;

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn describe(&self) -> &'static str {
        "simulator code never reads host time; inside gh-perf, host-time values never reach \
         traces, counters, checksums, or RunReport"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            return;
        }
        if file.crate_name == EXEMPT_CRATE {
            return;
        }
        let code: Vec<_> = file.code_tokens().collect();
        for (pos, t) in code.iter().enumerate() {
            if !BANNED.iter().any(|b| t.is_ident(b)) || file.in_test_mod(t.line) {
                continue;
            }
            // `elapsed` only counts as a method/assoc call; a field or
            // local named `elapsed` holding virtual ns is fine.
            if t.is_ident("elapsed") {
                let called = code.get(pos + 1).map(|n| n.is_punct("(")).unwrap_or(false);
                let receiver =
                    pos > 0 && (code[pos - 1].is_punct(".") || code[pos - 1].is_punct("::"));
                if !(called && receiver) {
                    continue;
                }
            }
            out.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: t.line,
                msg: format!(
                    "`{}` reads host wall-clock time; simulator state must advance only \
                     through the virtual clock (gh_mem::Clock) so runs stay bit-exact",
                    t.text
                ),
            });
        }
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        for file in ws.files {
            self.check_file(file, out);
        }
        for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, _, fd| {
            let file = &ws.files[fidx];
            if file.crate_name != EXEMPT_CRATE {
                return;
            }
            let mut spec = Spec {
                findings: Vec::new(),
            };
            dataflow::run_fn(&mut spec, fd, TaintEnv::default());
            spec.findings.sort_unstable();
            spec.findings.dedup();
            for (line, sink) in spec.findings {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line,
                    msg: format!(
                        "wall-clock-derived value reaches {sink}; host time must \
                         never feed model-visible output — derive the value from \
                         the virtual clock or keep it inside the profiler"
                    ),
                });
            }
        });
    }
}

struct Spec {
    /// (line, sink description)
    findings: Vec<(u32, &'static str)>,
}

/// True when a call/method name is a model-output sink; returns its
/// description.
fn sink_desc(name: &str) -> Option<&'static str> {
    if SINKS.contains(&name) {
        return Some("a trace/counter sink");
    }
    if name.contains("checksum") {
        return Some("a checksum");
    }
    None
}

impl TaintSpec for Spec {
    fn call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let Expr::Call { callee, line, .. } = e else {
            return args.iter().cloned().fold(Labels::new(), dataflow::union);
        };
        if let Expr::Path { segs, .. } = callee.as_ref() {
            if segs.len() >= 2
                && segs[segs.len() - 1] == "now"
                && CLOCK_TYPES.contains(&segs[segs.len() - 2].as_str())
            {
                return dataflow::tag(WALL);
            }
            if let Some(desc) = segs.last().and_then(|s| sink_desc(s)) {
                if args.iter().any(|a| a.contains(WALL)) {
                    self.findings.push((*line, desc));
                }
                return Labels::new();
            }
        }
        args.iter().cloned().fold(Labels::new(), dataflow::union)
    }

    fn method(&mut self, e: &Expr, recv: Labels, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let Expr::Method { name, line, .. } = e else {
            return dataflow::union(
                recv,
                args.iter().cloned().fold(Labels::new(), dataflow::union),
            );
        };
        if CLOCK_METHODS.contains(&name.as_str()) {
            return dataflow::tag(WALL);
        }
        if let Some(desc) = sink_desc(name) {
            if args.iter().any(|a| a.contains(WALL)) {
                self.findings.push((*line, desc));
            }
            return Labels::new();
        }
        args.iter()
            .fold(recv, |acc, a| dataflow::union(acc, a.clone()))
    }

    fn struct_lit(&mut self, e: &Expr, fields: &[(String, Labels)], _env: &mut TaintEnv) -> Labels {
        if let Expr::StructLit { segs, line, .. } = e {
            if segs.last().is_some_and(|s| s == "RunReport")
                && fields.iter().any(|(_, l)| l.contains(WALL))
            {
                self.findings.push((*line, "a RunReport field"));
            }
        }
        fields
            .iter()
            .map(|(_, l)| l.clone())
            .fold(Labels::new(), dataflow::union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: FileKind, src: &str) -> Vec<Finding> {
        run_in("c", kind, src)
    }

    fn run_in(crate_name: &str, kind: FileKind, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("c/src/lib.rs", crate_name, kind, src);
        let mut out = Vec::new();
        WallClock.check_file(&f, &mut out);
        out
    }

    #[test]
    fn instant_in_lib_fires() {
        let out = run(FileKind::Lib, "let t = std::time::Instant::now();");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "no-wall-clock");
    }

    #[test]
    fn bench_files_are_exempt() {
        assert!(run(FileKind::Bench, "let t = Instant::now();").is_empty());
    }

    #[test]
    fn duration_alone_is_fine() {
        assert!(run(FileKind::Lib, "use std::time::Duration;").is_empty());
    }

    #[test]
    fn elapsed_field_is_fine_method_is_not() {
        assert!(run(FileKind::Lib, "let x = report.elapsed;").is_empty());
        assert_eq!(run(FileKind::Lib, "let x = t0.elapsed();").len(), 1);
    }

    #[test]
    fn test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let x = Instant::now(); }\n}\n";
        assert!(run(FileKind::Lib, src).is_empty());
    }

    #[test]
    fn gh_perf_is_the_sanctioned_exemption() {
        let src = "let t = std::time::Instant::now(); let e = t.elapsed();";
        assert!(run_in("gh-perf", FileKind::Lib, src).is_empty());
        // The same source in any other crate still fires (both idents).
        assert_eq!(run_in("gh-mem", FileKind::Lib, src).len(), 2);
    }

    fn check_in(crate_name: &str, src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            &format!("crates/{crate_name}/src/lib.rs"),
            crate_name,
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        WallClock.check_workspace(&ws, &mut out);
        out
    }

    #[test]
    fn elapsed_into_counter_fires_in_gh_perf() {
        let src = "pub fn f(c: &Counters, t: Instant) { let d = t.elapsed(); c.count(d.as_nanos() as u64); }";
        let out = check_in("gh-perf", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("trace/counter sink"));
    }

    #[test]
    fn instant_now_into_checksum_fires() {
        let src = "pub fn f(h: &mut H) { let t = Instant::now(); h.mix_checksum(t.as_nanos()); }";
        assert_eq!(check_in("gh-perf", src).len(), 1);
    }

    #[test]
    fn tainted_run_report_field_fires() {
        let src = "pub fn f(t: Instant) -> RunReport { let ns = t.elapsed().as_nanos() as u64; RunReport { sim_ns: ns } }";
        let out = check_in("gh-perf", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("RunReport"));
    }

    #[test]
    fn gh_perf_internal_timing_is_clean() {
        // Measuring and storing host time inside the profiler is the
        // profiler's job; only model-visible sinks are flagged.
        let src = "pub fn f(&mut self) { let t = Instant::now(); self.samples.push(t.elapsed()); }";
        assert!(check_in("gh-perf", src).is_empty());
    }

    #[test]
    fn virtual_clock_values_are_clean() {
        let src = "pub fn f(c: &Counters, clk: &Clock) { c.count(clk.now_ns().get()); }";
        assert!(check_in("gh-perf", src).is_empty());
    }

    #[test]
    fn duration_since_propagates_through_arithmetic() {
        let src = "pub fn f(c: &Counters, a: Instant, b: Instant) { let d = b.duration_since(a).as_nanos() as u64 / 1000; c.gauge(d); }";
        assert_eq!(check_in("gh-perf", src).len(), 1);
    }

    #[test]
    fn untainted_report_is_clean() {
        let src = "pub fn f(ns: u64) -> RunReport { RunReport { sim_ns: ns } }";
        assert!(check_in("gh-perf", src).is_empty());
    }
}
