//! Differential tests for the batched access path: the range-batched
//! fast core and the retained per-page reference walk must produce
//! byte-identical `RunReport`s — traffic, timings, samples, counters,
//! trace, and sanitizer sections alike.
//!
//! These run in the debug/test profile, where the runtime invariant
//! sanitizer defaults ON (`gh_units::sanitizer`), so every differential
//! pair below is also a sanitizer-on differential pair.

use gh_units::Bytes;
use grace_mem::{platform, AppId, MachineConfig, MemMode, SessionOptions};

const MIB: u64 = 1 << 20;

/// Runs `app` on a fresh machine of platform `p` under session options
/// `so` and returns the full serialized report.
fn run_json(
    p: &dyn grace_mem::sim::platform::Platform,
    app: AppId,
    mode: MemMode,
    so: &SessionOptions,
) -> String {
    let m = p
        .machine_session(&MachineConfig::default(), so)
        .expect("platform default configuration is valid");
    app.run_small(m, mode).to_json()
}

/// Session spec that forces the per-page reference walk (what the
/// retired `GH_ACCESS_REF` process latch used to select).
fn reference_walk() -> SessionOptions {
    SessionOptions {
        access_ref: true,
        ..Default::default()
    }
}

#[test]
fn batched_and_reference_paths_agree_for_every_app() {
    for p in platform::all() {
        for app in AppId::ALL {
            for mode in [MemMode::System, MemMode::Managed] {
                let reference = run_json(p, app, mode, &reference_walk());
                let batched = run_json(p, app, mode, &SessionOptions::default());
                assert_eq!(
                    reference,
                    batched,
                    "{}/{}/{mode}: batched core diverged from the reference walk",
                    app.name(),
                    p.caps().name,
                );
            }
        }
    }
}

#[test]
fn batched_and_reference_paths_agree_under_tracing() {
    // Tracing is the adversarial case: the batched core must emit
    // TlbEvict / CounterNotify / PageFault events in exactly the order
    // the per-page walk does (it falls back per page for CPU-resident
    // runs when counters are armed under tracing). srad trips the
    // access-counter migration engine; needle stays fault-heavy; bfs
    // meters its gathers and scatters through the sparse span path.
    for app in [AppId::Srad, AppId::Needle, AppId::Bfs] {
        for mode in [MemMode::System, MemMode::Managed] {
            let p = platform::gh200();
            let cfg = MachineConfig::default();
            let traced_ref = SessionOptions {
                trace: true,
                ..reference_walk()
            };
            let traced = SessionOptions {
                trace: true,
                ..Default::default()
            };
            let reference = app.run_small(
                p.machine_session(&cfg, &traced_ref).expect("valid config"),
                mode,
            );
            let batched = app.run_small(
                p.machine_session(&cfg, &traced).expect("valid config"),
                mode,
            );
            let ref_trace = reference.chrome_trace();
            assert!(
                ref_trace.is_some(),
                "{}/{mode}: traced run must capture a trace section",
                app.name()
            );
            assert_eq!(
                reference.to_json(),
                batched.to_json(),
                "{}/{mode}: traced batched run diverged from the reference walk",
                app.name()
            );
            assert_eq!(
                ref_trace,
                batched.chrome_trace(),
                "{}/{mode}: batched run's trace event stream diverged",
                app.name()
            );
        }
    }
}

/// The full-size irregular apps — where nearly every span takes the
/// sparse path's settled shortcut — against the reference walk, with a
/// quiet session and again with trace and sanitizer armed. Minutes in a
/// debug build; run it in release:
/// `cargo test --release --test fast_path -- --ignored`.
#[test]
#[ignore = "full-size runs; use --release"]
fn sparse_path_matches_reference_at_full_size() {
    let p = platform::gh200();
    let cfg = MachineConfig::default();
    let armed = SessionOptions {
        trace: true,
        sanitize: Some(true),
        ..Default::default()
    };
    for app in [AppId::Needle, AppId::Bfs] {
        for mode in [MemMode::System, MemMode::Managed] {
            for so in [SessionOptions::default(), armed.clone()] {
                let run = |so: &SessionOptions| {
                    let m = p.machine_session(&cfg, so).expect("valid config");
                    let r = app.run(m, mode);
                    (r.to_json(), r.chrome_trace())
                };
                let reference = run(&SessionOptions {
                    access_ref: true,
                    ..so.clone()
                });
                assert!(reference.1.is_some() == so.trace);
                assert!(
                    reference == run(&so),
                    "{}/{mode} (trace: {}): sparse path diverged at full size",
                    app.name(),
                    so.trace
                );
            }
        }
    }
}

/// Full-size srad (default parameters, seed 23) in every mode: the
/// row-parallel kernels must keep the final image's checksum bits of the
/// per-pixel scalar loops they replaced.
#[test]
#[ignore = "full-size runs; use --release"]
fn srad_full_size_checksum_is_pinned() {
    use grace_mem::apps::srad::{run, SradParams};
    for mode in MemMode::ALL {
        let r = run(platform::gh200().machine(), mode, &SradParams::default());
        assert_eq!(r.checksum.to_bits(), 0x4154_972a_b9e9_1600, "{mode}");
    }
}

/// FNV-1a over each amplitude's `re` then `im` bits, little-endian, in
/// basis-index order.
fn amplitude_fnv(s: &grace_mem::qsim::StateVector) -> u64 {
    let bytes: Vec<u8> = s
        .amps()
        .iter()
        .flat_map(|a| [a.re.to_bits().to_le_bytes(), a.im.to_bits().to_le_bytes()])
        .flatten()
        .collect();
    grace_mem::jobs::fnv1a64(&bytes)
}

/// Full-size QV 20: the split-plane gate kernels must keep the final
/// amplitudes of the interleaved per-group loop they replaced.
#[test]
#[ignore = "full-size runs; use --release"]
fn qv20_final_amplitudes_are_pinned() {
    use grace_mem::qsim::{QvCircuit, StateVector};
    for (seed, want) in [
        (2024u64, 0x9a13_66ab_9e39_7d14u64),
        (7, 0x75a7_e4a2_fd30_f3e2),
    ] {
        let mut s = StateVector::zero_state(20);
        for g in &QvCircuit::generate(20, seed).gates {
            s.apply_gate2(&g.gate, g.q0, g.q1);
        }
        assert_eq!(amplitude_fnv(&s), want, "seed {seed}");
    }
}

/// Regression for the counters/UVM determinism fix: notification state
/// lives in `BTreeMap`s, so the notification *order* a kernel sequence
/// drives into a RunReport is a pure function of the access pattern.
/// With hash maps, two identical runs in one process could drain
/// regions in different orders (per-instance hasher seeds) and migrate
/// different pages under a budgeted driver.
#[test]
fn counter_notification_order_is_deterministic() {
    let run_once = || {
        let mut m = platform::gh200().machine();
        let b = m.rt.malloc_system(Bytes::new(8 * MIB), "hot");
        m.rt.cpu_write(&b, 0, 8 * MIB);
        // Re-read everything repeatedly: all four 2 MiB regions get hot
        // and fire notifications; the budgeted driver migrates them over
        // several kernels, so drain order is visible in per-kernel
        // migration traffic.
        for i in 0..6 {
            let mut k = m.rt.launch(&format!("iter{i}"));
            k.read(&b, 0, 8 * MIB);
            let rep = k.finish();
            drop(rep);
        }
        m.rt.free(b);
        m.finish()
    };
    let a = run_once();
    let b = run_once();
    assert!(
        a.traffic.notifications > 0,
        "the sequence must actually fire notifications"
    );
    assert!(
        a.traffic.bytes_migrated_in > 0,
        "the driver must actually migrate hot regions"
    );
    // Migration must be spread across kernels (budgeted drain) for the
    // order to matter at all.
    let per_kernel: Vec<u64> = a
        .kernel_history
        .iter()
        .map(|(_, t)| t.bytes_migrated_in)
        .collect();
    assert!(
        per_kernel.iter().filter(|&&x| x > 0).count() > 1,
        "migrations should land in more than one kernel: {per_kernel:?}"
    );
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "identical kernel sequences must produce byte-identical reports"
    );
}
