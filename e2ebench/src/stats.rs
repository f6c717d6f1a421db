//! Latency samples per operation class, percentiles with the
//! sample-count rule, and histograms for checking mode boundaries.

use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Latencies (milliseconds) of one operation class, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ms.extend_from_slice(&other.ms);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `q` (0–100), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.ms.len();
        let rank = nearest_rank(n, q);
        if n == 0 || n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.sorted()[rank - 1])
    }

    /// Median of the samples regardless of count (for per-layer probes,
    /// which are not subject to the reporting rule).
    pub fn median(&self) -> f64 {
        if self.ms.is_empty() {
            return 0.0;
        }
        let v = self.sorted();
        v[nearest_rank(v.len(), 50.0) - 1]
    }

    /// [`Samples::percentile`] as a reported metric: too few samples is
    /// an error naming the class.
    pub fn reported(&self, q: f64, class: &str) -> Result<f64, String> {
        self.percentile(q).ok_or_else(|| {
            format!(
                "{class}: {} samples leave fewer than {MIN_BEYOND} beyond p{q}; raise --seconds",
                self.len()
            )
        })
    }

    /// Log-spaced histogram (8 buckets per doubling) as a JSON array of
    /// `[low_ms, high_ms, count]`, empty buckets omitted.
    pub fn histogram_json(&self) -> String {
        let mut buckets: std::collections::BTreeMap<i64, usize> = Default::default();
        for &ms in &self.ms {
            let b = (ms.max(1e-6).log2() * 8.0).floor() as i64;
            *buckets.entry(b).or_default() += 1;
        }
        let mut out = String::from("[");
        for (i, (b, n)) in buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let lo = 2f64.powf(*b as f64 / 8.0);
            let hi = 2f64.powf((*b + 1) as f64 / 8.0);
            let _ = write!(out, "[{lo:.6},{hi:.6},{n}]");
        }
        out.push(']');
        out
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median of a slice of values (used for set-up repetitions).
pub fn median_of(values: &[f64]) -> f64 {
    Samples {
        ms: values.to_vec(),
    }
    .median()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_beyond() {
        let s = Samples {
            ms: (1..=100).map(|x| x as f64).collect(),
        };
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(99.0), None);
        let small = Samples {
            ms: (1..=19).map(|x| x as f64).collect(),
        };
        assert_eq!(small.percentile(50.0), None);
        assert_eq!(small.median(), 10.0);
    }

    #[test]
    fn histogram_counts_every_sample() {
        let s = Samples {
            ms: vec![0.01, 0.011, 1.0, 100.0],
        };
        let h = s.histogram_json();
        let total: usize = h
            .trim_matches(|c| c == '[' || c == ']')
            .split("],[")
            .map(|b| b.rsplit(',').next().unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 4);
    }
}
