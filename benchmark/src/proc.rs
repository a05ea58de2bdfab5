//! Process and host readings from `/proc`.

use std::collections::BTreeMap;

/// `/proc` counts CPU time in ticks of 1/100 s on every Linux this runs on
/// (`getconf CLK_TCK`); a reading over 10 s resolves 0.1 %.
const TICKS_PER_S: f64 = 100.0;

/// user + system seconds from a `/proc/.../stat` line, with the thread name.
fn parse_stat(line: &str) -> Option<(String, f64)> {
    // the name sits in parentheses and may itself contain spaces
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let fields: Vec<&str> = line[close + 1..].split_whitespace().collect();
    // after the name: state is field 3 of the line, utime 14, stime 15
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((line[open + 1..close].to_string(), (utime + stime) / TICKS_PER_S))
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, s)| s)
}

/// CPU seconds (user + system) the calling thread has used so far.
pub fn thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, s)| s)
}

/// CPU seconds of every live thread, summed by thread name.  Threads that
/// have exited are missing here but stay in [`cpu_seconds`].
pub fn cpu_seconds_by_thread() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let stat = std::fs::read_to_string(entry.path().join("stat")).ok();
        if let Some((name, s)) = stat.as_deref().and_then(parse_stat) {
            *out.entry(name).or_insert(0.0) += s;
        }
    }
    out
}

fn status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size of this process right now, MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Logical CPUs the process may run on, as found at the first call: later
/// the benchmark narrows its own threads' masks, which must not count.
pub fn available_parallelism() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// CPUs the host reports online (`nproc --all` without the affinity mask).
pub fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_name() {
        let line = "42 (my (odd) name) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat(line), Some(("my (odd) name".to_string(), 3.0)));
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.5);
        assert!(available_parallelism() >= 1);
        assert!(cpu_seconds_by_thread().values().sum::<f64>() <= cpu_seconds() + 0.05);
    }
}
