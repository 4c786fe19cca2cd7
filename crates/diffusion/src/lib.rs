//! Discrete denoising diffusion over binary layout-topology tensors.
//!
//! This crate is the paper's primary algorithmic contribution (§III-C):
//! instead of running a continuous DDPM over a grayscale image and
//! thresholding — wasting model capacity on learning "discreteness" — the
//! forward process flips each binary entry with a scheduled probability and
//! the reverse process samples each entry from an exact two-state
//! categorical posterior.
//!
//! The pieces map one-to-one onto the paper's equations:
//!
//! | Paper | Here |
//! |---|---|
//! | Eq. 7 doubly-stochastic `Q_k` | [`NoiseSchedule::beta`] (a 2x2 symmetric matrix is fully described by its flip probability) |
//! | Eq. 8 linear β schedule | [`NoiseSchedule::linear`] |
//! | Eq. 10 closed-form `q(x_k\|x_0)` with `Q̄_k` | [`NoiseSchedule::cumulative_flip`], [`forward_sample`] |
//! | Eq. 12 posterior `q(x_{k-1}\|x_k, x_0)` | [`posterior_jump_same_prob`] at `j = k − 1` |
//! | Eq. 11 mixture `p_θ(x_{k-1}\|x_k)` | [`reverse_update_in_place`] |
//! | Eq. 9 loss `KL + λ·CE` | [`loss::vb_loss_and_grad`] |
//! | Eq. 13 ancestral sampling | [`Sampler`] |
//!
//! The denoising network is abstracted behind the [`InferenceDenoiser`]
//! trait so the diffusion mathematics can be validated against a
//! closed-form oracle independently of neural-network training (see
//! `OracleDenoiser`), while production use plugs in the [`NeuralDenoiser`]
//! U-Net wrapper; training calls [`NeuralDenoiser::forward_logits`]
//! directly. The trait's one required method,
//! [`InferenceDenoiser::infer_p1_batch_into`], evaluates the network's
//! belief `p_θ(x̃0 | x_k)` for a batch of lanes at one step; the provided
//! [`InferenceDenoiser::infer_p1`] runs it per item, each at its own step.
//!
//! Sampling has one batched *conditioned* core,
//! [`Sampler::sample_lanes_with`], which takes one [`Conditioning`] per
//! lane: a [`FrozenRegion`]
//! holds known bits through the whole reverse chain (diffusion
//! inpainting — the frozen set rides `q(x_k | x_0)` between steps so
//! lane statistics stay on-manifold, and is clamped exactly at the
//! end), and a [`MotifGuidance`] reweights the terminal draw against a
//! hotspot motif. [`Conditioning::none`] is the unconditioned case and
//! costs nothing; each lane consumes exactly its own RNG stream under
//! exactly its own conditioning, so conditioned and unconditioned lanes
//! compose freely in one batch call without perturbing each other.
//! [`Sampler::sample_conditioned_batch_with`] is the same loop with one
//! conditioning for every lane.
//!
//! # Example: forward process converges to the uniform distribution
//!
//! ```
//! use dp_diffusion::NoiseSchedule;
//!
//! let schedule = NoiseSchedule::linear(1000, 0.01, 0.5).unwrap();
//! // After K steps any bit is essentially a fair coin (Eq. 6).
//! assert!((schedule.cumulative_flip(1000) - 0.5).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod conditioning;
mod denoiser;
mod error;
pub mod loss;
mod model;
mod sampler;
mod schedule;
mod trainer;

pub use conditioning::{Conditioning, FrozenRegion, Motif, MotifGuidance};
pub use denoiser::{InferenceDenoiser, NeuralDenoiser, OracleDenoiser, UniformDenoiser};
pub use error::DiffusionError;
pub use model::TrainedModel;
pub use sampler::{
    categorical_draw_in_place, reverse_update_in_place, BatchScratch, SampleTrace, Sampler,
};
pub use schedule::{flip_between, forward_sample, posterior_jump_same_prob, NoiseSchedule};
pub use trainer::{TrainConfig, TrainReport, Trainer};

pub use dp_squish::DeepSquishTensor;
