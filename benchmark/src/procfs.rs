//! `/proc` readers for the server child: CPU time and peak resident set.

use std::io;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux reports them
/// in `USER_HZ`, which is 100 on every supported architecture; `getconf`
/// is asked once in case this kernel differs.
pub fn clock_ticks_per_s() -> u64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn invalid(what: &str, pid: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("cannot parse {what} of pid {pid}"),
    )
}

/// CPU ticks (user + system) consumed so far by process `pid`.
pub fn cpu_ticks(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_ticks(&stat).ok_or_else(|| invalid("/proc stat", pid))
}

/// Peak resident set of process `pid` in kB.
pub fn vm_hwm_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_vm_hwm_kb(&status).ok_or_else(|| invalid("/proc status", pid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_with_hostile_command_name() {
        let stat = "4242 (ad cache) (x) R 1 4242 4242 0 -1 4194304 1200 0 0 0 \
                    731 269 0 0 20 0 5 0 1234567 104857600 3000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("4242 (adcache) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_peak_rss() {
        let status =
            "Name:\tadcache\nVmPeak:\t  200000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 80000 kB\n";
        assert_eq!(parse_status_vm_hwm_kb(status), Some(81234));
        assert_eq!(parse_status_vm_hwm_kb("Name:\tadcache\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_ok());
        assert!(vm_hwm_kb(pid).unwrap() > 0);
    }
}
