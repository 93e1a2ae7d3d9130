//! Latency recording shared by the load generators.

use ebbrt_core::clock::Ns;

/// Collects latency samples and reports mean / percentiles.
#[derive(Default)]
pub struct LatencyRecorder {
    samples: Vec<Ns>,
    sorted: bool,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Ns) {
        self.samples.push(latency);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// The `p`-th percentile (0.0–100.0) in nanoseconds.
    pub fn percentile(&mut self, p: f64) -> Ns {
        if self.samples.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        // Nearest-rank definition: ceil(p/100 * N), 1-based.
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)]
    }

    /// Discards all samples (e.g. after warmup).
    pub fn reset(&mut self) {
        self.samples.clear();
        self.sorted = false;
    }

    /// Merges all of `other`'s samples into `self`.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles() {
        let mut r = LatencyRecorder::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            r.record(v);
        }
        assert_eq!(r.count(), 10);
        assert!((r.mean() - 55.0).abs() < 1e-9);
        assert_eq!(r.percentile(50.0), 50);
        assert_eq!(r.percentile(99.0), 100);
        assert_eq!(r.percentile(0.0), 10);
    }

    #[test]
    fn empty_recorder() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.percentile(99.0), 0);
    }

    #[test]
    fn reset_clears() {
        let mut r = LatencyRecorder::new();
        r.record(5);
        r.reset();
        assert_eq!(r.count(), 0);
    }
}
