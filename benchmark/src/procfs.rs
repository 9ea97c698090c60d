//! Process accounting read from `/proc/self` (Linux only, like the rest of
//! the tier-1 environment).

use std::time::Duration;

/// Kernel clock ticks per second as exported to user space. `USER_HZ` is
/// 100 on every Linux ABI; std has no `sysconf` to ask.
const USER_HZ: u64 = 100;

/// User and system CPU time of this process, all threads, including ones
/// that have already exited.
pub fn cpu_times() -> (Duration, Duration) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis. utime and stime are fields 14
    // and 15, i.e. 11 and 12 after the state field.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> Duration {
        let ticks: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields");
        Duration::from_millis(ticks * 1000 / USER_HZ)
    };
    (ticks(), ticks())
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let kib = status_field("VmHWM:").expect("VmHWM in /proc/self/status") as f64;
    kib / 1024.0
}

/// Live threads of this process. A joined thread lingers in the count
/// for a moment after `join` returns (the kernel clears the join futex
/// before it unlinks the task), so a count above one is re-read for up to
/// 100 ms before it is believed.
pub fn settled_threads() -> u64 {
    let read = || status_field("Threads:").expect("Threads in /proc/self/status");
    let deadline = std::time::Instant::now() + Duration::from_millis(100);
    loop {
        let threads = read();
        if threads <= 1 || std::time::Instant::now() >= deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_is_readable_and_moves_forward() {
        let cpu_time = || {
            let (user, system) = cpu_times();
            user + system
        };
        let before = cpu_time();
        let mut x = 0u64;
        // Burn CPU until the accounting has moved by two ticks (other
        // tests share the cores, so wall time says little).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while cpu_time() < before + Duration::from_millis(20) {
            assert!(
                std::time::Instant::now() < deadline,
                "CPU time stands still"
            );
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        }
        assert!(peak_rss_mib() > 0.5);
        assert!(settled_threads() >= 1);
    }
}
