//! Dataset substrate: synthetic layout maps, tile splitting, the pattern
//! library and the diversity metric.
//!
//! The paper obtains its training data by splitting a 400x160 µm² metal
//! layer from the ICCAD-2014 contest into 2048x2048 nm² clips (§IV-A).
//! That proprietary map is not available, so this crate generates a
//! synthetic Manhattan routing-style layer with the same statistical
//! character — tracks of varying wire width, heavy-tailed segment lengths,
//! power rails, pin stubs — and splits it into the same tiles
//! (see PAPER.md, "Substitutions"). The downstream pipeline never
//! inspects provenance: only squish topologies and Δ vectors flow onward.
//!
//! The crate also owns the evaluation metrics of §II-C:
//!
//! * [`PatternLibrary`] — a multiset of pattern complexities `(c_x, c_y)`,
//! * [`PatternLibrary::diversity`] — the Shannon entropy `H` of the
//!   complexity distribution (paper Definition 1, log base 2),
//! * [`PatternLibrary::histogram`] — the joint histogram behind the
//!   paper's Fig. 9 heat maps.
//!
//! # Example
//!
//! ```
//! use dp_datagen::{GeneratorConfig, LayoutMapGenerator, split_into_tiles};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = GeneratorConfig::small();
//! let map = LayoutMapGenerator::new(config).generate(&mut rng);
//! let tiles = split_into_tiles(&map, 2048);
//! assert!(!tiles.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dataset;
mod generator;
mod library;
mod tiles;

pub use dataset::{build_dataset, Dataset, DatasetConfig, DatasetReport};
pub use generator::{GeneratorConfig, LayoutMapGenerator};
pub use library::PatternLibrary;
pub use tiles::split_into_tiles;

pub use dp_geometry::{Layout, Rect};
