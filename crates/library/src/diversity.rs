//! Per-bucket diversity accounting (paper Definition 1).
//!
//! The paper's diversity metric is the Shannon entropy, in bits, of the
//! library's complexity distribution. [`DiversityMeter`] records one
//! complexity pair per stored pattern into an embedded
//! [`PatternLibrary`] and reports [`DiversityMeter::diversity`] by
//! delegating to [`PatternLibrary::diversity`], the computation the
//! table1 harness runs, so the two are **bit-for-bit identical** on the
//! same multiset — by construction, not by numerical luck.

use dp_datagen::PatternLibrary;

/// Complexity histogram + Shannon entropy for one library bucket.
#[derive(Debug, Clone, Default)]
pub struct DiversityMeter {
    lib: PatternLibrary,
}

impl DiversityMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one pattern by its core complexity.
    pub fn add(&mut self, cx: usize, cy: usize) {
        self.lib.add_complexity(cx, cy);
    }

    /// Number of recorded patterns.
    pub fn len(&self) -> usize {
        self.lib.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.lib.is_empty()
    }

    /// Number of distinct complexity pairs.
    pub fn distinct(&self) -> usize {
        self.lib.distinct()
    }

    /// The exact diversity: delegates to [`PatternLibrary::diversity`],
    /// the same code path the table1 harness runs, so the two can never
    /// disagree even in the last bit.
    pub fn diversity(&self) -> f64 {
        self.lib.diversity()
    }

    /// The underlying histogram, for heat maps and merging.
    pub fn histogram(&self) -> &PatternLibrary {
        &self.lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_one_shot_library_bit_for_bit() {
        let mut meter = DiversityMeter::new();
        let mut oneshot = PatternLibrary::new();
        let mut x = 7u64;
        for _ in 0..500 {
            // Cheap deterministic scatter over a small complexity space.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cx = (x >> 33) as usize % 9 + 1;
            let cy = (x >> 45) as usize % 7 + 1;
            meter.add(cx, cy);
            oneshot.add_complexity(cx, cy);
            assert_eq!(meter.diversity().to_bits(), oneshot.diversity().to_bits());
        }
        assert_eq!(meter.len(), oneshot.len());
        assert_eq!(meter.distinct(), oneshot.distinct());
    }
}
