use crate::PatternLibrary;
use dp_geometry::Layout;
use dp_squish::{extend_to_side, DeepSquishTensor, SquishError, SquishPattern};

/// Configuration for turning tiles into a training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetConfig {
    /// Side length of the extended topology matrix (paper: 128, folded to
    /// 16x32x32; the reproduction defaults to 32 folded to 4x16x16).
    pub matrix_side: usize,
    /// Deep-squish channel count `C` (perfect square).
    pub channels: usize,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            matrix_side: 32,
            channels: 4,
        }
    }
}

/// Statistics of dataset construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetReport {
    /// Tiles accepted into the dataset.
    pub accepted: usize,
    /// Tiles whose topology exceeded `matrix_side` scan lines.
    pub too_complex: usize,
    /// Tiles that could not be extended on the integer grid.
    pub unsplittable: usize,
}

/// A ready-to-train dataset: folded tensors plus the originating squish
/// patterns (kept for Solving-E initialisation and the Real-Patterns
/// library rows of Table I).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Folded binary topology tensors, one per accepted tile.
    pub tensors: Vec<DeepSquishTensor>,
    /// The originating (un-extended) squish patterns, index-aligned with
    /// `tensors`.
    pub patterns: Vec<SquishPattern>,
    /// The extended (`matrix_side x matrix_side`) squish patterns, index-
    /// aligned with `tensors`. Their Δ vectors match generated topologies
    /// dimension-for-dimension, which is what the paper's Solving-E
    /// initialisation draws from.
    pub extended: Vec<SquishPattern>,
    /// Construction statistics.
    pub report: DatasetReport,
}

impl Dataset {
    /// The Real-Patterns library: complexities of every accepted pattern.
    pub fn library(&self) -> PatternLibrary {
        let mut lib = PatternLibrary::new();
        for p in &self.patterns {
            lib.add_topology(p.topology());
        }
        lib
    }
}

/// Builds a training set from layout tiles: encode each tile's squish
/// pattern, extend it to `matrix_side`, fold it into a `channels`-deep
/// tensor (paper Fig. 4, left phase). Tiles that do not fit are counted,
/// not silently dropped.
///
/// # Panics
///
/// Panics when `channels` is not a perfect square or `matrix_side` is not
/// divisible by `√channels` (configuration errors, not data errors).
pub fn build_dataset(tiles: &[Layout], config: DatasetConfig) -> Dataset {
    let patch = (config.channels as f64).sqrt() as usize;
    assert_eq!(
        patch * patch,
        config.channels,
        "channels must be a perfect square"
    );
    assert_eq!(
        config.matrix_side % patch,
        0,
        "matrix side must be divisible by the fold patch"
    );

    let mut tensors = Vec::with_capacity(tiles.len());
    let mut patterns = Vec::with_capacity(tiles.len());
    let mut extendeds = Vec::with_capacity(tiles.len());
    let mut report = DatasetReport::default();
    for tile in tiles {
        let pattern = SquishPattern::encode(tile);
        match extend_to_side(&pattern, config.matrix_side) {
            Ok((extended, _)) => {
                let tensor = DeepSquishTensor::fold(extended.topology(), config.channels)
                    .expect("extended matrix matches fold config");
                tensors.push(tensor);
                patterns.push(pattern);
                extendeds.push(extended);
                report.accepted += 1;
            }
            Err(SquishError::TooComplex { .. }) => report.too_complex += 1,
            Err(SquishError::UnsplittableInterval) => report.unsplittable += 1,
            Err(other) => unreachable!("unexpected extension error: {other}"),
        }
    }
    Dataset {
        tensors,
        patterns,
        extended: extendeds,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{split_into_tiles, GeneratorConfig, LayoutMapGenerator};
    use rand::SeedableRng;

    fn tiles() -> Vec<Layout> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let map = LayoutMapGenerator::new(GeneratorConfig::small()).generate(&mut rng);
        split_into_tiles(&map, 2048)
    }

    #[test]
    fn builds_tensors_of_requested_shape() {
        let ds = build_dataset(&tiles(), DatasetConfig::default());
        assert!(ds.report.accepted > 0, "{:?}", ds.report);
        for t in &ds.tensors {
            assert_eq!(t.channels(), 4);
            assert_eq!(t.side(), 16);
        }
        assert_eq!(ds.tensors.len(), ds.patterns.len());
    }

    #[test]
    fn tensors_are_lossless_foldings() {
        let config = DatasetConfig::default();
        let ds = build_dataset(&tiles(), config);
        for (tensor, pattern) in ds.tensors.iter().zip(&ds.patterns) {
            let unfolded = tensor.unfold();
            // The unfolded matrix squishes back to the pattern's core shape.
            let (cx, cy) = dp_squish::complexity_of_grid(&unfolded);
            let (px, py) = dp_squish::complexity_of_grid(pattern.topology());
            assert_eq!((cx, cy), (px, py));
        }
    }

    #[test]
    fn library_has_nontrivial_diversity() {
        let ds = build_dataset(&tiles(), DatasetConfig::default());
        let lib = ds.library();
        assert_eq!(lib.len(), ds.report.accepted);
        assert!(
            lib.diversity() > 2.0,
            "synthetic map too uniform: H = {}",
            lib.diversity()
        );
    }

    #[test]
    fn oversized_tiles_are_counted_not_dropped_silently() {
        let config = DatasetConfig {
            matrix_side: 4,
            channels: 4,
        };
        let ds = build_dataset(&tiles(), config);
        assert!(ds.report.too_complex > 0);
        assert_eq!(
            ds.report.accepted + ds.report.too_complex + ds.report.unsplittable,
            tiles().len()
        );
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn bad_channels_panic() {
        let _ = build_dataset(
            &[],
            DatasetConfig {
                matrix_side: 32,
                channels: 3,
            },
        );
    }
}
