//! Process cost read from `/proc/self`: CPU time and peak resident memory.

use std::time::Duration;

/// Kernel clock ticks per second behind `/proc/*/stat`'s utime/stime. Linux
/// reports these in USER_HZ, which is 100 on every supported architecture.
const USER_HZ: u64 = 100;

/// utime + stime out of one `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 1000 / USER_HZ))
}

/// `VmHWM` (peak resident set) out of `/proc/<pid>/status`, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb / 1024.0)
}

/// CPU time this process has used so far, all threads.
pub fn cpu_time() -> Duration {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .expect("cannot read /proc/self/stat")
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .expect("cannot read VmHWM from /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a running benchmark process; the command name is the
    /// awkward case (spaces and a closing parenthesis inside it).
    const STAT: &str = "4242 (cluster bench) x) S 4200 4242 4200 34816 4242 4194304 \
        52011 0 3 0 2417 386 0 0 20 0 13 0 8814531 512345088 30021 18446744073709551615 \
        1 1 0 0 0 0 0 4096 1088 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tcluster-benchmar\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  500337 kB\nVmSize:\t  500337 kB\nVmLck:\t       0 kB\n\
        VmHWM:\t  120084 kB\nVmRSS:\t  118000 kB\nThreads:\t13\n";

    #[test]
    fn stat_cpu_skips_the_command_name() {
        // utime 2417 + stime 386 ticks at 100 Hz.
        assert_eq!(parse_stat_cpu(STAT), Some(Duration::from_millis(28_030)));
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_reads_kilobytes() {
        let mb = parse_vm_hwm_mb(STATUS).unwrap();
        assert!((mb - 120_084.0 / 1024.0).abs() < 1e-9);
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn live_readers_work_on_this_host() {
        assert!(peak_rss_mb() > 0.0);
        let _ = cpu_time();
    }
}
