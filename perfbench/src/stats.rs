//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is read from the sorted raw
//! samples (nearest-rank definition), never from a bucketed histogram,
//! and only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Tail levels tried, highest first; the tail reported is the highest
/// one the sample count supports.
pub const TAIL_LEVELS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Nearest-rank position (1-based) of quantile `q` among `n` samples:
/// the smallest rank whose value has at least `q·n` samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] samples beyond the
/// `q` quantile.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Sorts the raw samples.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Exact `q` quantile, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        supported(self.len(), q).then(|| self.sorted[rank(self.len(), q) - 1])
    }

    /// Exact median, or `None` below 20 samples (see
    /// [`Summary::middle`] for small sets of repeated measurements).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The highest of [`TAIL_LEVELS`] the sample count supports, with
    /// its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LEVELS
            .iter()
            .find_map(|&q| self.quantile(q).map(|v| (q, v)))
    }

    /// The middle value of any non-empty set (nearest-rank median
    /// without the ten-beyond rule) — for aggregating a handful of
    /// repeated measurements, such as set-up times, into one figure.
    pub fn middle(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sorted[rank(self.len(), 0.5) - 1])
    }

    /// Arithmetic mean (0 for no samples).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Largest sample (0 for no samples).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_samples_give_exact_p50_and_p99() {
        // 1..=2000 shuffled: nearest-rank p50 is 1000, p99 is 1980.
        let mut samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        samples.reverse();
        samples.swap(3, 1500);
        let s = Summary::new(samples);
        assert_eq!(s.p50(), Some(1000.0));
        assert_eq!(s.quantile(0.99), Some(1980.0));
        assert_eq!(s.tail(), Some((0.99, 1980.0)));
        assert_eq!(s.len(), 2000);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        // 1000 samples: p99 has rank 990, so exactly ten lie beyond it.
        let s = Summary::new((0..1000).map(f64::from).collect());
        assert_eq!(s.quantile(0.99), Some(989.0));
        // 999 samples: rank 990 leaves nine beyond — not reported.
        let s = Summary::new((0..999).map(f64::from).collect());
        assert_eq!(s.quantile(0.99), None);
        assert_eq!(s.tail(), Some((0.95, 949.0)));
        // 19 samples cannot support even a median.
        let s = Summary::new((0..19).map(f64::from).collect());
        assert_eq!(s.p50(), None);
        assert_eq!(s.tail(), None);
        assert_eq!(s.middle(), Some(9.0));
    }

    #[test]
    fn a_single_span_is_its_own_middle() {
        let s = Summary::new(vec![0.257]);
        assert_eq!(s.middle(), Some(0.257));
        assert_eq!(s.p50(), None);
        assert_eq!(s.mean(), 0.257);
    }
}
