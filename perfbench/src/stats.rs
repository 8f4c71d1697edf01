//! Sample keeping and summary statistics.

/// Latency samples in nanoseconds, kept in a fixed preallocated buffer.
///
/// The buffer is written in full when it is created, so its resident
/// memory does not grow with throughput (a faster program must not look
/// like one that uses more memory). When it fills up, every other
/// retained sample is dropped and the keep stride doubles: the retained
/// set stays an evenly spaced subsample of the whole run.
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
    stride: u64,
    seen: u64,
    sorted: bool,
}

impl Samples {
    /// A sample buffer holding at most `cap` values (`cap` even).
    pub fn with_capacity(cap: usize) -> Samples {
        assert!(cap >= 2 && cap.is_multiple_of(2), "capacity must be even");
        Samples {
            buf: vec![u32::MAX; cap],
            len: 0,
            stride: 1,
            seen: 0,
            sorted: false,
        }
    }

    /// Records one latency.
    pub fn push(&mut self, ns: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.len == self.buf.len() {
                for i in 0..self.len / 2 {
                    self.buf[i] = self.buf[2 * i];
                }
                self.len /= 2;
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.buf[self.len] = u32::try_from(ns).unwrap_or(u32::MAX);
                self.len += 1;
            }
        }
        self.seen += 1;
        self.sorted = false;
    }

    /// Latencies recorded (retained or not).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile in microseconds, linearly interpolated between
    /// the retained order statistics (0 when empty).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        if !self.sorted {
            self.buf[..self.len].sort_unstable();
            self.sorted = true;
        }
        let pos = q.clamp(0.0, 1.0) * (self.len - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        let v = f64::from(self.buf[lo]) * (1.0 - frac) + f64::from(self.buf[hi]) * frac;
        v / 1e3
    }
}

/// The `q`-quantile of `values`, linearly interpolated (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of latencies `ns` in microseconds, as the nearest
/// order statistic (0 when empty). Reorders `ns`.
pub fn select_us(ns: &mut [u32], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let k = ((ns.len() - 1) as f64 * q).round() as usize;
    f64::from(*ns.select_nth_unstable(k).1) / 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current anonymous resident memory of this process in MB (`RssAnon`:
/// heap and mapped data, not code or other file pages), 0 where the
/// kernel does not report it.
pub fn anon_rss_mb() -> f64 {
    proc_status_mb("RssAnon:")
}

fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimation_keeps_an_even_subsample() {
        let mut s = Samples::with_capacity(8);
        for i in 0..100u64 {
            s.push(i * 1000);
        }
        assert_eq!(s.count(), 100);
        // Median of 0..100 µs, within the subsample's resolution.
        let p50 = s.quantile_us(0.5);
        assert!((40.0..=60.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::with_capacity(16);
        for v in [1000, 2000, 3000, 4000] {
            s.push(v);
        }
        assert_eq!(s.quantile_us(0.0), 1.0);
        assert_eq!(s.quantile_us(1.0), 4.0);
        assert_eq!(s.quantile_us(0.5), 2.5);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.75);
    }
}
