//! Process-wide resource readings from `/proc` (Linux).

/// `/proc` reports CPU times in USER_HZ ticks, fixed at 100 per second.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time of the whole process (every thread, so both
/// the sender and the in-process daemon), in microseconds.
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line, 12 and 13 after `) `.
    let rest = &stat[stat.rfind(')').expect("stat command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / TICKS_PER_S * 1e6
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: the time
/// the hypervisor ran something else while this VM wanted a CPU.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("reading /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("cpu line in /proc/stat")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Online CPUs, as `std` sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision, when the benchmark runs inside a git checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_are_positive() {
        assert!(super::peak_rss_mib() > 0.0);
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(super::cpu_us() >= 0.0);
        assert!(super::nproc() >= 1);
    }
}
