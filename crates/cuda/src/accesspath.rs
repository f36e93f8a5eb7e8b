//! Access-path selection: batched fast core vs. per-line reference walk.
//!
//! The kernel access path has two implementations that must produce
//! bitwise-identical RunReports:
//!
//! * the **batched core** (default): classifies whole `VpnRange`s into
//!   resident/faulting runs and charges TLB walks, traffic, and access
//!   counters per run;
//! * the **reference walk**: the original per-page loop, retained for
//!   differential testing and debugging.
//!
//! Lists of small spans (strided segments, gathers, scatters) enter
//! through [`Kernel::sparse`](crate::Kernel::sparse), which charges each
//! span exactly as the batched core would but pays the classification
//! once per settled page or block; the reference walk bypasses it.
//!
//! The selection is a per-session option —
//! [`RuntimeOptions::access_ref`](crate::RuntimeOptions::access_ref),
//! settable through
//! [`SessionOptions::access_ref`](crate::SessionOptions::access_ref) —
//! not ambient state. The pre-PR-9 `thread_local!` flag, the
//! `ReferenceGuard` RAII wrapper, and the `GH_ACCESS_REF` `OnceLock` env
//! latch are gone: reference and fast runs now coexist in one process
//! (the differential tests simply build two machines). `GH_ACCESS_REF=1`
//! is still honored as a CLI-boundary alias that seeds the session
//! option; library code never reads it.
