//! Correctness checks applied to every simulated run.
//!
//! A run fails when any of these is false:
//! * its checksum bits equal those of every other run of the same
//!   algorithm and input, whatever the mode, platform or page size;
//! * its report digest equals that of every other run with the same
//!   label, across repetitions and across unarmed, gh-perf-armed and
//!   traced-and-sanitized passes;
//! * the sanitizer, when armed, reports no violation.

use std::collections::BTreeMap;

use gh_apps::RunReport;

/// FNV-1a digest of the report's JSON without its trace and sanitizer
/// sections: everything the simulation itself produced. Takes the
/// report so the two sections need not be cloned to be dropped.
pub fn digest(mut r: RunReport) -> u64 {
    r.trace = None;
    r.sanitizer = None;
    gh_jobs::fnv1a64(r.to_json().as_bytes())
}

/// What the checker needs from one run.
#[derive(Debug)]
pub struct Verdict {
    /// Unique within the workload and stable across passes.
    pub label: String,
    /// Runs in one group must agree on checksum bits; `None` when the
    /// checksum carries no information.
    pub group: Option<String>,
    /// [`digest`] of the report.
    pub digest: u64,
    /// `f64::to_bits` of the report's checksum.
    pub checksum_bits: u64,
    /// Sanitizer violations (0 when the sanitizer was off).
    pub violations: u64,
}

/// Accumulates verdicts; the first digest and checksum seen for a
/// label or group is the reference the later ones must match.
#[derive(Debug, Default)]
pub struct Checker {
    digests: BTreeMap<String, u64>,
    checksums: BTreeMap<String, u64>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed at least one check.
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub failures: Vec<String>,
}

impl Checker {
    /// Checks one run.
    pub fn record(&mut self, v: &Verdict) {
        self.attempted += 1;
        let before = self.failures.len();
        let want = *self.digests.entry(v.label.clone()).or_insert(v.digest);
        if want != v.digest {
            self.failures.push(format!(
                "{}: report digest {:016x} differs from {want:016x}",
                v.label, v.digest
            ));
        }
        if let Some(g) = &v.group {
            let want = *self.checksums.entry(g.clone()).or_insert(v.checksum_bits);
            if want != v.checksum_bits {
                self.failures.push(format!(
                    "{}: checksum bits {:016x} differ from {want:016x} in group {g}",
                    v.label, v.checksum_bits
                ));
            }
        }
        if v.violations > 0 {
            self.failures.push(format!(
                "{}: {} sanitizer violations",
                v.label, v.violations
            ));
        }
        if self.failures.len() > before {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_apps::{AppId, MemMode};
    use gh_cuda::SessionOptions;
    use gh_jobs::{run_job, JobSpec};

    fn report(session: SessionOptions) -> RunReport {
        let spec = JobSpec {
            small: true,
            session,
            ..JobSpec::new(AppId::Hotspot, "gh200", MemMode::Managed)
        };
        run_job(&spec).expect("gh200 is registered").0
    }

    #[test]
    fn digest_excludes_only_trace_and_sanitizer_sections() {
        let plain = report(SessionOptions::default());
        let armed = report(SessionOptions {
            trace: true,
            perf: true,
            sanitize: Some(true),
            ..SessionOptions::default()
        });
        assert!(armed.trace.is_some() && armed.sanitizer.is_some());
        assert_ne!(plain.to_json(), armed.to_json());
        assert_eq!(digest(plain.clone()), digest(armed));

        let mut other = plain.clone();
        other.checksum += 1.0;
        assert_ne!(digest(other), digest(plain.clone()));
        let mut other = plain.clone();
        other.peak_rss += 1;
        assert_ne!(digest(other), digest(plain.clone()));
        let mut other = plain.clone();
        other.not_applicable.push("x".into());
        assert_ne!(digest(other), digest(plain));
    }

    fn verdict(label: &str, group: Option<&str>, digest: u64, bits: u64) -> Verdict {
        Verdict {
            label: label.into(),
            group: group.map(Into::into),
            digest,
            checksum_bits: bits,
            violations: 0,
        }
    }

    #[test]
    fn checker_counts_each_failed_run_once() {
        let mut c = Checker::default();
        c.record(&verdict("a/system", Some("a"), 1, 10));
        c.record(&verdict("a/managed", Some("a"), 2, 10));
        c.record(&verdict("a/system", Some("a"), 1, 10));
        assert_eq!((c.attempted, c.failed), (3, 0));
        // Wrong digest and wrong checksum: two failures, one run.
        c.record(&verdict("a/managed", Some("a"), 3, 11));
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert_eq!(c.failures.len(), 2);
        // Ungrouped runs are checked on digest only.
        c.record(&verdict("qv/system", None, 5, 0));
        c.record(&verdict("qv/managed", None, 6, 99));
        assert_eq!(c.failed, 1);
        let mut v = verdict("qv/system", None, 5, 0);
        v.violations = 2;
        c.record(&v);
        assert_eq!(c.failed, 2);
    }
}
