//! Sample summaries, the output record, and small helpers shared by the
//! workloads.

use std::time::{Duration, Instant};

/// Wall-clock samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }

    /// Median in milliseconds (0 for an empty set).
    pub fn median_ms(&self) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let n = v.len();
        let mid = if n % 2 == 1 { v[n / 2] as f64 } else { (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0 };
        mid / 1e6
    }

    /// The highest percentile with at least ten samples beyond it, in
    /// milliseconds, and that percentile. With fewer than eleven samples
    /// there is no such percentile and the maximum stands in (percentile
    /// 100).
    pub fn tail_ms(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return (0.0, 100.0);
        }
        if n < 11 {
            return (v[n - 1] as f64 / 1e6, 100.0);
        }
        (v[n - 11] as f64 / 1e6, 100.0 * (n - 10) as f64 / n as f64)
    }

    pub fn total_ms(&self) -> f64 {
        self.0.iter().map(|&x| x as f64).sum::<f64>() / 1e6
    }

    pub fn mean_ms(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.total_ms() / self.0.len() as f64
        }
    }
}

/// Median of plain numbers (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// SplitMix64: the seeded generator behind every drawn input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly drawn order of `0, 1, 2`.
    pub fn order3(&mut self) -> [usize; 3] {
        const ORDERS: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        ORDERS[(self.next_u64() % 6) as usize]
    }
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run hands back: outcome counts, metrics, and the
/// first few failure messages.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Count one checked operation; `Err` is a wrong output.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
    }
}

/// Require `got == want`, naming what was compared.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s = Samples((1..=100).collect());
        let (v, p) = s.tail_ms();
        assert_eq!(v, 90.0 / 1e6);
        assert_eq!(p, 90.0);
        assert_eq!(s.median_ms(), 50.5 / 1e6);
    }
}
