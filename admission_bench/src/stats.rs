//! Order statistics and the decision digest.

use rtcac_bitstream::Time;

/// The `q`-quantile of `samples` by nearest rank (0 when empty).
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// FNV-1a over the ordered decisions of a run: each setup's verdict
/// and guaranteed delay, and each release's connection id.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in an admitted setup and its guarantee.
    pub fn admitted(&mut self, delay: Time) {
        let r = delay.as_ratio();
        self.bytes(&[1]);
        self.bytes(&r.numer().to_le_bytes());
        self.bytes(&r.denom().to_le_bytes());
    }

    /// Folds in a refused setup.
    pub fn rejected(&mut self) {
        self.bytes(&[0]);
    }

    /// Folds in a release of the `index`-th live connection.
    pub fn released(&mut self, index: usize) {
        self.bytes(&[2]);
        self.bytes(&(index as u64).to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&s, 0.5), 5);
        assert_eq!(quantile(&s, 0.9), 9);
        assert_eq!(quantile(&s, 1.0), 10);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
