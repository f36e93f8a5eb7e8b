//! Timeline export: run SRAD on a traced session and dump a Chrome-trace
//! JSON of every phase, kernel, copy and migration event.
//!
//! ```sh
//! cargo run --release --example chrome_trace > srad_trace.json
//! # open chrome://tracing or https://ui.perfetto.dev and load the file
//! ```

use grace_mem::apps::srad::{self, SradParams};
use grace_mem::{platform, MachineConfig, MemMode, SessionOptions};

fn main() {
    let p = SradParams {
        size: 1024,
        iterations: 6,
        ..Default::default()
    };
    let so = SessionOptions {
        trace: true,
        ..Default::default()
    };
    let m = platform::gh200()
        .machine_session(&MachineConfig::default(), &so)
        .expect("default config is valid");
    let r = srad::run(m, MemMode::System, &p);
    let t = r.trace.as_ref().expect("traced session carries the trace");
    println!("{}", gh_trace::export::chrome_trace(t));
    eprintln!(
        "{} spans and {} events over {:.3} ms of virtual time",
        t.spans.len(),
        t.events.len(),
        r.reported_total() as f64 / 1e6
    );
}
