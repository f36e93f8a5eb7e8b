//! Bad CLI input gets a one-line error and exit status 2 — never a
//! panic (status 101) or a run that cannot finish.

use std::process::{Command, Output};

fn grace_mem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grace-mem"))
        .args(args)
        .output()
        .expect("spawn grace-mem")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = grace_mem(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert_eq!(
        err.lines().count(),
        1,
        "{args:?} should fail in one line: {err}"
    );
    assert!(err.starts_with("grace-mem: "), "{args:?}: {err}");
    assert!(err.contains(needle), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn oversubscription_ratio_below_one_or_nan_is_rejected() {
    for ratio in ["0", "0.5", "nan", "inf", "-2"] {
        assert_rejected(
            &["app", "hotspot", "--small", "--oversubscribe", ratio],
            "--oversubscribe",
        );
    }
}

#[test]
fn quantum_volume_below_two_qubits_is_rejected() {
    for q in ["0", "1"] {
        assert_rejected(&["qv", q], "at least 2 qubits");
    }
}

#[test]
fn quantum_volume_larger_than_simulated_memory_is_rejected() {
    // 60+ qubits would overflow the statevector byte count; 27 qubits
    // (1 GiB) exceeds gh200's 576 MiB, and 24 qubits (128 MiB) exceeds
    // what the driver baseline leaves of mi300a's 128 MiB pool.
    for args in [
        &["qv", "60"][..],
        &["qv", "64"],
        &["qv", "4000000000"],
        &["qv", "27"],
        &["qv", "24", "--platform", "mi300a"],
    ] {
        assert_rejected(args, "exceeds");
    }
}

#[test]
fn valid_sizes_still_run() {
    let over = grace_mem(&["app", "hotspot", "--small", "--oversubscribe", "1.5"]);
    assert!(
        over.status.success(),
        "{}",
        String::from_utf8_lossy(&over.stderr)
    );
    let qv = grace_mem(&["qv", "2"]);
    assert!(
        qv.status.success(),
        "{}",
        String::from_utf8_lossy(&qv.stderr)
    );
}
