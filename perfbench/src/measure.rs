//! Sample statistics and per-run peak-memory measurement.

use std::io;

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile that still has at least ten
/// samples above it, as `(percentile, value)`; `None` with ten samples
/// or fewer.
pub fn tail_percentile(v: &[f64]) -> Option<(u32, f64)> {
    let n = v.len();
    if n <= 10 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some(((100 * rank / n) as u32, s[rank - 1]))
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next [`peak_rss_bytes`] reading covers only what runs after it.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set size since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_bytes() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// Runs `f` and returns its output with the peak RSS reached while it
/// ran (the resident set it started from included).
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> io::Result<(T, u64)> {
    reset_peak_rss()?;
    let out = f();
    Ok((out, peak_rss_bytes()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // 20 samples: rank 10 leaves ten above it.
        assert_eq!(tail_percentile(&v), Some((50, 10.0)));
    }

    #[test]
    fn second_run_does_not_inherit_first_peak() {
        const BIG: usize = 256 << 20;
        let (_, first) = with_peak_rss(|| {
            let v = vec![1u8; BIG];
            std::hint::black_box(&v);
        })
        .expect("peak RSS readable");
        let (_, second) = with_peak_rss(|| {
            let v = vec![1u8; 1 << 20];
            std::hint::black_box(&v);
        })
        .expect("peak RSS readable");
        assert!(
            first >= second + (BIG as u64) / 2,
            "second run's peak {second} B inherited the first run's {first} B"
        );
    }
}
