//! A fixed-size latency histogram, so the benchmark's own memory does
//! not grow with the throughput it measures (peak RSS is a metric).

/// Sub-buckets per power of two: percentiles read back within 0.8%.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond values.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
    /// Exact sum of the recorded values, for the mean.
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (65 - SUB_BITS as usize) * SUB],
            n: 0,
            sum: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// Midpoint of bucket `i`.
fn value(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = (i >> SUB_BITS) - 1;
    (((SUB + (i & (SUB - 1))) as u64) << shift) + ((1u64 << shift) >> 1)
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum as f64 / self.n as f64 / 1000.0
    }

    /// Nearest-rank percentile `q` in `(0, 1]`, in microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(i) as f64 / 1000.0;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_ordered_and_tight() {
        let mut last = 0;
        for v in (0..1_000_000u64)
            .step_by(37)
            .chain([u64::MAX / 3, u64::MAX])
        {
            let i = index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            let mid = value(i) as f64;
            assert!(
                (mid - v as f64).abs() <= v as f64 / SUB as f64 + 1.0,
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn percentiles_match_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.len(), 1000);
        let p50 = h.percentile_us(0.5);
        assert!((p50 - 500.0).abs() < 5.0, "{p50}");
        let p99 = h.percentile_us(0.99);
        assert!((p99 - 990.0).abs() < 8.0, "{p99}");
        assert!((h.mean_us() - 500.5).abs() < 1e-9);
    }
}
