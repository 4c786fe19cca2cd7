use std::collections::BTreeMap;

use dp_geometry::BitGrid;
use dp_squish::complexity_of_grid;

/// A pattern library viewed as a multiset of complexities `(c_x, c_y)` —
/// the statistic the paper's diversity metric (Definition 1) and Fig. 9
/// heat maps are computed from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternLibrary {
    counts: BTreeMap<(usize, usize), usize>,
    total: usize,
}

impl PatternLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one pattern by its complexity pair.
    pub fn add(&mut self, cx: usize, cy: usize) {
        *self.counts.entry((cx, cy)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records a raw topology matrix, squishing it to its canonical core
    /// first (generated topologies are padded to a fixed side).
    pub fn add_topology(&mut self, topology: &BitGrid) {
        let (cx, cy) = complexity_of_grid(topology);
        self.add(cx, cy);
    }

    /// Number of patterns recorded.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` when no patterns are recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct complexity pairs.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The diversity `H` (paper Eq. 4): Shannon entropy, in bits, of the
    /// complexity distribution. An empty or one-complexity library has
    /// diversity `+0.0`.
    pub fn diversity(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        // `0.0 - x` rather than `-x`: a zero sum must not become `-0.0`.
        0.0 - self
            .counts
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// The joint complexity histogram (Fig. 9): `((c_x, c_y), count)` in
    /// ascending order.
    pub fn histogram(&self) -> impl Iterator<Item = ((usize, usize), usize)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another library into this one.
    pub fn merge(&mut self, other: &PatternLibrary) {
        for (&key, &count) in &other.counts {
            *self.counts.entry(key).or_insert(0) += count;
            self.total += count;
        }
    }
}

impl Extend<(usize, usize)> for PatternLibrary {
    fn extend<T: IntoIterator<Item = (usize, usize)>>(&mut self, iter: T) {
        for (cx, cy) in iter {
            self.add(cx, cy);
        }
    }
}

impl FromIterator<(usize, usize)> for PatternLibrary {
    fn from_iter<T: IntoIterator<Item = (usize, usize)>>(iter: T) -> Self {
        let mut lib = PatternLibrary::new();
        lib.extend(iter);
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_library_has_zero_diversity() {
        let lib = PatternLibrary::new();
        assert_eq!(lib.diversity(), 0.0);
        assert!(lib.is_empty());
    }

    #[test]
    fn single_complexity_has_zero_entropy() {
        let lib: PatternLibrary = std::iter::repeat_n((3, 4), 100).collect();
        assert_eq!(lib.len(), 100);
        assert_eq!(lib.distinct(), 1);
        assert!(lib.diversity().abs() < 1e-12);
    }

    #[test]
    fn one_complexity_diversity_is_positive_zero() {
        for n in [1, 2, 100] {
            let lib: PatternLibrary = std::iter::repeat_n((3, 4), n).collect();
            assert_eq!(lib.diversity().to_bits(), 0, "{n} patterns");
        }
    }

    #[test]
    fn uniform_distribution_maximises_entropy() {
        // 16 equally likely pairs -> H = log2(16) = 4 bits.
        let mut lib = PatternLibrary::new();
        for cx in 0..4 {
            for cy in 0..4 {
                for _ in 0..10 {
                    lib.add(cx, cy);
                }
            }
        }
        assert!((lib.diversity() - 4.0).abs() < 1e-9);

        // Skewing the same support lowers H.
        let mut skewed = PatternLibrary::new();
        for cx in 0..4 {
            for cy in 0..4 {
                let n = if (cx, cy) == (0, 0) { 100 } else { 1 };
                for _ in 0..n {
                    skewed.add(cx, cy);
                }
            }
        }
        assert!(skewed.diversity() < lib.diversity());
    }

    #[test]
    fn add_topology_uses_canonical_core() {
        let mut lib = PatternLibrary::new();
        // A padded topology with duplicate rows/columns must count as its
        // squished core.
        let padded = BitGrid::from_ascii(
            "..##
             ..##
             .#..
             .#..",
        )
        .unwrap();
        lib.add_topology(&padded);
        let hist: Vec<_> = lib.histogram().collect();
        assert_eq!(hist, vec![((3, 2), 1)]);
    }

    #[test]
    fn merge_accumulates() {
        let a: PatternLibrary = vec![(1, 1), (2, 2)].into_iter().collect();
        let mut b: PatternLibrary = vec![(2, 2)].into_iter().collect();
        b.merge(&a);
        assert_eq!(b.len(), 3);
        let hist: Vec<_> = b.histogram().collect();
        assert_eq!(hist, vec![((1, 1), 1), ((2, 2), 2)]);
    }

    #[test]
    fn diversity_matches_hand_computation() {
        // p = [0.5, 0.25, 0.25] -> H = 1.5 bits.
        let mut lib = PatternLibrary::new();
        lib.add(1, 1);
        lib.add(1, 1);
        lib.add(2, 1);
        lib.add(3, 1);
        assert!((lib.diversity() - 1.5).abs() < 1e-12);
    }
}
