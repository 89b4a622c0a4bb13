//! Process CPU time and peak memory from `/proc`, and the environment facts
//! every result file records. Linux only, like the benchmark itself.

use std::process::Command;

/// `/proc/self/stat` reports CPU time in clock ticks of `USER_HZ`, which
/// Linux fixes at 100 on every architecture it still supports.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set in MB (`VmHWM`) from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_peak_rss_mb(&status).expect("VmHWM in /proc/self/status")
}

/// First line of a command's stdout, or `"unknown"` when it cannot run
/// (the acceptance checkout is not a git repository).
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Names of the `MESORASI_*` variables set in the environment. The program
/// reads several of them; a stray one would silently change what is
/// measured, so the harness refuses to start when this is non-empty.
pub fn mesorasi_env_vars() -> Vec<String> {
    let mut names: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    names.retain(|k| k.starts_with("MESORASI_"));
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_parsed_past_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 917 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_cpu_seconds("no paren"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_mb() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
