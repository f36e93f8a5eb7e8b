//! Host-side probes: the process's peak RSS.

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` `VmHWM`. Returns 0 on platforms without procfs —
/// callers treat 0 as "unknown", never as a measurement.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    parse_vm_hwm(&status).unwrap_or(0)
}

/// Extracts `VmHWM:  <n> kB` from a `/proc/self/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tgrace-mem\nVmHWM:\t  123456 kB\nVmRSS:\t  1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123_456 * 1024));
    }

    #[test]
    fn missing_vm_hwm_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // On Linux this should report at least one page; elsewhere 0.
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 4096, "got {rss}");
        }
    }
}
