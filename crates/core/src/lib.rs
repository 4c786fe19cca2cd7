//! # DiffPattern — reliable layout pattern generation via discrete diffusion
//!
//! A from-scratch Rust reproduction of *"DiffPattern: Layout Pattern
//! Generation via Discrete Diffusion"* (DAC 2023, arXiv:2303.13060). The
//! system generates VLSI layout pattern libraries in three phases
//! (paper Fig. 4):
//!
//! 1. **Deep Squish representation** — layouts are losslessly encoded as a
//!    binary topology tensor plus geometric Δ vectors
//!    ([`dp_squish`]),
//! 2. **Topology tensor generation** — a discrete diffusion model over the
//!    binary state space synthesises fresh topologies, no thresholding
//!    anywhere ([`dp_diffusion`]),
//! 3. **2-D legal pattern assessment** — a white-box nonlinear solver
//!    assigns design-rule-clean Δ vectors ([`dp_legalize`]), giving a
//!    100 % legality rate by construction.
//!
//! This crate is the facade, built around an explicit **train/infer
//! split**:
//!
//! * [`Pipeline`] builds the dataset and trains the diffusion model
//!   ([`PipelineConfig`] configures training only;
//!   [`Pipeline::request_spec`] hands the dataset's Solving-E donors to a
//!   [`RequestSpec`]);
//! * [`TrainedModel`] is the frozen, immutable artifact of training
//!   (weights + schedule + fold geometry, `TrainedModel::save`/`load` for
//!   persistence) — every operation takes `&self`, so one model serves any
//!   number of threads;
//! * [`PatternService`] is the one generation API: an owned, long-lived
//!   pool over an `Arc<TrainedModel>` that takes plain-data
//!   [`RequestSpec`]s (which carry every generation setting; validated at
//!   submit, [`ConfigError`] instead of a panic), multiplexes many
//!   concurrent requests and fills every denoising micro-batch **across
//!   requests**, streaming each request's [`Generated`] items with full
//!   [`Provenance`] through a `'static` [`RequestHandle`] that cancels on
//!   drop — with output bit-identical per seed regardless of concurrent
//!   load, worker count, micro-batch size, or admission order;
//! * [`Conditioning`] makes any request conditional: frozen-region
//!   inpainting ([`FrozenRegion`]) and hotspot-avoidance guidance
//!   ([`MotifGuidance`]) ride on [`RequestSpec`] per lane — recipes in
//!   [`hotspot_guidance`] and [`repair_conditioning`] — without changing
//!   the determinism contract;
//! * [`table1`] and [`table2`] are the comparison harnesses: Table I
//!   runs the four baseline generators of [`dp_baselines`] directly and
//!   both DiffPattern modes through [`PatternService`];
//! * [`render`] produces the ASCII/PGM artwork for the figure examples.
//!
//! # Quickstart
//!
//! ```no_run
//! use diffpattern::{PatternService, Pipeline, PipelineConfig};
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//!
//! // Train.
//! let mut pipeline = Pipeline::from_synthetic_map(PipelineConfig::default(), &mut rng)?;
//! pipeline.train(200, &mut rng)?;
//!
//! // Freeze: an immutable, shareable, saveable model.
//! let spec = pipeline.request_spec(16).seed(7);
//! let model = pipeline.into_trained_model()?;
//! std::fs::write("model.dpm", model.save())?;
//!
//! // Infer: batch generation across all cores, bit-identical per seed.
//! let service = PatternService::builder(Arc::new(model)).build()?;
//! let batch = service.generate(&spec)?;
//! println!(
//!     "generated {} legal patterns ({} slots fell short)",
//!     batch.items.len(),
//!     batch.report.shortfall
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod conditioning;
mod engine;
mod error;
pub mod library_sink;
pub mod metrics;
mod pipeline;
pub mod render;
mod service;
pub mod table1;
pub mod table2;

pub use conditioning::{hotspot_guidance, repair_conditioning};
pub use error::{ConfigError, GenerateError, PipelineError};
pub use library_sink::{LibrarySink, SinkError, SinkReport};
pub use metrics::{evaluate_patterns, MethodRow};
pub use pipeline::{BackboneConfig, Pipeline, PipelineConfig, PipelineReport};
pub use service::{
    Generated, Generation, PatternService, Provenance, RecvPoll, RequestHandle, RequestSpec,
    ServiceBuilder, ServiceStats,
};

pub use dp_diffusion::{Conditioning, FrozenRegion, Motif, MotifGuidance, TrainedModel};

pub use dp_baselines as baselines;
pub use dp_datagen as datagen;
pub use dp_diffusion as diffusion;
pub use dp_drc as drc;
pub use dp_geometry as geometry;
pub use dp_legalize as legalize;
pub use dp_library as library;
pub use dp_nn as nn;
pub use dp_squish as squish;
