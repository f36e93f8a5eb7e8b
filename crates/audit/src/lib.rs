//! `gh-audit` — workspace-native static analysis for the grace-mem
//! simulator.
//!
//! The simulator's scientific claims rest on two properties the compiler
//! cannot check: **bit-exact determinism** across runs (same inputs, same
//! bytes out — `tests/determinism.rs`) and **conservation of accounted
//! bytes/pages** (`tests/memory_invariants.rs`). Both are end-to-end tests
//! that only cover the paths they execute. This crate enforces the
//! *source-level* discipline that makes the properties hold everywhere:
//!
//! | rule | what it guards |
//! |------|----------------|
//! | `no-wall-clock` | no host-time reads in sim code; inside gh-perf, no host-time value reaches a trace/counter/checksum/`RunReport` |
//! | `typed-units` | model-crate quantities stay in gh-units: typed unit params, no raw casts, saturating accumulators, no cross-unit `.get()` laundering |
//! | `no-float-eq` | no exact float compares in cost-model decisions |
//! | `no-unwrap-in-lib` | library code returns typed errors, never aborts |
//! | `no-platform-leak` | experiment layers build machines through `gh_sim::platform` |
//! | `trace-coverage` | every emitted event kind is named by an exporter |
//! | `epoch-coherence` | placement mutators bump `placement_epoch` (span-cache validity) |
//! | `unordered-iter-flow` | hash iteration order never reaches returns/state/output |
//! | `cache-key-completeness` | `canonical_key` destructures `self` exhaustively, so every spec field is keyed |
//! | `session-isolation` | per-run state lives on the `SessionCtx`: no ambient statics/env reads, no escaping `Bus`/`Perf`/`Rc` handles |
//! | `allow-syntax` | suppressions are well-formed and carry a reason |
//!
//! Suppression is per-line and audited itself:
//!
//! ```text
//! let ks = m.keys(); // gh-audit: allow(unordered-iter-flow) -- sorted below
//! // gh-audit: allow-file(no-unwrap-in-lib) -- harness binary, aborts are fine
//! ```
//!
//! The engine is from scratch (no `syn`/`dylint`: the build environment
//! is offline), layered as **tokens → AST → dataflow**: a lossless lexer
//! ([`lexer`]), an error-tolerant recursive-descent parser ([`ast`]),
//! shallow name/type resolution ([`resolve`]), a workspace call graph
//! with effect propagation ([`callgraph`]), and an intraprocedural taint
//! driver ([`dataflow`]) the flow checks plug specs into. The lints stay
//! *heuristic* — over-approximate environments, by-name call resolution
//! — so false negatives are possible; false positives get an allow with
//! a reason.
//!
//! Run it: `cargo run -p gh-audit` (report) or `cargo run -p gh-audit --
//! --deny` (CI gate, exits 1 on any finding). See `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod source;

pub use engine::{audit_workspace, AuditConfig, AuditError};
pub use rules::Finding;
