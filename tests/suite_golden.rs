//! Golden pin of the small experiment matrix: `grace-mem suite --small`
//! must print exactly the committed CSV. Each row carries the job's
//! total virtual time, checksum bits and cache-key hash, so any drift in
//! simulated output, timing model or job identity fails here.
//!
//! After a deliberate model change, regenerate the pin with
//! `cargo run --release --bin grace-mem -- suite --small --jobs 2 >
//! tests/golden/suite_small.csv` and say why in the change log.

use std::process::Command;

#[test]
fn small_suite_matches_the_golden_csv() {
    let out = Command::new(env!("CARGO_BIN_EXE_grace-mem"))
        .args(["suite", "--small", "--jobs", "2"])
        .output()
        .expect("spawn grace-mem");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("suite prints UTF-8");
    assert_eq!(got, include_str!("golden/suite_small.csv"));
}
