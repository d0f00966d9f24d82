//! Small statistics and `/proc` readers.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A `VmHWM` (peak resident set) reading in MiB for `pid` (`self` for
/// this process), or `None` when `/proc` does not have it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns this process's freed heap to the system and resets its
/// `VmHWM` to the current resident set, so the next [`peak_rss_mb`]
/// reading is the peak since this call. Without the trim, the peak would
/// also count freed memory the allocator still holds, which depends on
/// every earlier allocation of the run. Returns `false` when the kernel
/// does not support the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free memory of glibc's own
    // allocator, which is the process's allocator on this target.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User plus system CPU seconds consumed so far by process `pid`, from
/// `/proc/<pid>/stat` (clock ticks of 1/100 s, Linux's fixed `USER_HZ`).
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at `state`;
    // utime and stime are the 12th and 13th of those.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reads_own_proc_entries() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let with_big = peak_rss_mb("self").unwrap();
        drop(big);
        assert!(reset_peak_rss());
        assert!(peak_rss_mb("self").unwrap() < with_big - 32.0);
        assert!(cpu_seconds(std::process::id()).is_some());
    }
}
