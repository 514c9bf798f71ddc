//! CPU time and resident memory of a process, read from `/proc`.

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them.
/// `USER_HZ` is 100 on every Linux ABI; std has no `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

/// The CPU-time fields of `/proc/<pid>/stat`, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTimes {
    /// User + system time of the process itself.
    pub own_s: f64,
    /// User + system time of its children that have been waited for.
    pub children_s: f64,
}

/// Parses the text of `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself
/// hold spaces and parentheses, so fields are counted from the *last*
/// `)`: after it come state, ppid, … with utime, stime, cutime, cstime
/// as the 12th to 15th.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = text.get(text.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok().map(|t| t as f64);
    Some(CpuTimes {
        own_s: (tick(11)? + tick(12)?) / TICKS_PER_S,
        children_s: (tick(13)? + tick(14)?) / TICKS_PER_S,
    })
}

/// Reads one `Key:   1234 kB` line of `/proc/<pid>/status`, in MB
/// (10⁶ bytes; the file's "kB" are 1024 bytes).
pub fn parse_status_mb(text: &str, key: &str) -> Option<f64> {
    let line = text.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let mut parts = line[key.len() + 1..].split_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kib * 1024.0 / 1e6)
}

/// CPU times of this process.
pub fn self_cpu() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set (`VmHWM`) of a process, if it is still alive.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_mb(&text, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    // A kernel-formatted line whose command name holds both a space and
    // a closing parenthesis: the parser must not split on either.
    const STAT: &str = "4242 (my) prog (x)) S 1 4242 4242 0 -1 4194560 1399 \
        7 2 0 1234 56 700 89 20 0 3 0 8921 22392832 1170 18446744073709551615 \
        1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";

    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  150000 kB\nVmSize:\t  140000 kB\nVmHWM:\t   51200 kB\n\
        VmRSS:\t   40960 kB\nThreads:\t3\n";

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let t = parse_stat(STAT).unwrap();
        assert_eq!(t.own_s, 12.9);
        assert_eq!(t.children_s, 7.89);
    }

    #[test]
    fn truncated_or_garbled_stat_is_none() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat(&STAT.replace("1234", "12x4")), None);
    }

    #[test]
    fn status_keys_match_whole_names_only() {
        assert_eq!(
            parse_status_mb(STATUS, "VmHWM"),
            Some(51200.0 * 1024.0 / 1e6)
        );
        assert_eq!(
            parse_status_mb(STATUS, "VmRSS"),
            Some(40960.0 * 1024.0 / 1e6)
        );
        // "Vm" is a prefix of several keys but names none of them.
        assert_eq!(parse_status_mb(STATUS, "Vm"), None);
        assert_eq!(parse_status_mb(STATUS, "Threads"), None); // no kB unit
        assert_eq!(parse_status_mb("", "VmHWM"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let cpu = self_cpu();
        assert!(cpu.own_s >= 0.0 && cpu.children_s >= 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
