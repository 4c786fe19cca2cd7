//! Minimal pure-Rust neural-network substrate for the DiffPattern
//! reproduction.
//!
//! The paper trains its discrete diffusion model with a DDPM-style U-Net
//! backbone (paper §IV-A): four feature resolutions, two convolutional
//! residual blocks per level, a self-attention block at 16x16, GroupNorm,
//! SiLU activations, sinusoidal time embeddings and the Adam optimizer.
//! No Rust deep-learning framework with a stable training story was
//! acceptable as a dependency for this reproduction (see PAPER.md,
//! "Substitutions"), so this crate implements the required subset from
//! scratch:
//!
//! * [`Tensor`] — a dense `f32` NCHW tensor with shape-checked helpers,
//! * [`Conv2d`] — convolution via im2col GEMM, exact backward,
//! * [`GroupNorm`], [`silu`] — normalisation and activation with backward,
//! * [`SelfAttention2d`] — single-head spatial attention with backward,
//! * [`Linear`], [`sinusoidal_embedding`] — time-step conditioning,
//! * [`UNet`] — the full backbone with skip connections,
//! * [`Adam`] — optimizer with gradient clipping,
//! * [`Workspace`] — a scratch arena making the `infer` path
//!   allocation-free in steady state (paired with per-layer `prepack`
//!   weight packing and the blocked GEMM in this crate's `gemm` module).
//!
//! Every layer is validated against finite-difference gradients in its unit
//! tests; the U-Net itself has an end-to-end gradient check on a tiny
//! configuration.
//!
//! # Design: explicit caches instead of autograd
//!
//! Each layer has one forward kernel, `infer(&self, x, ws)`, which caches
//! nothing and draws its scratch from a [`Workspace`]. `forward(&mut
//! self, x)` is that kernel plus the cache `backward(&mut self, grad)`
//! consumes: `backward` takes the cache, so a second `backward` without a
//! fresh `forward` panics ("backward before forward") and a network after
//! its last `backward` holds no activations. Parameter gradients
//! accumulate into [`Param::grad`], and [`Adam::step`] consumes them. This
//! keeps the whole substrate dependency-free and easy to audit against the
//! DDPM reference implementation.
//!
//! The U-Net's topology is written down once: [`UNet::new`] builds its
//! body as one forward-ordered list of single-layer blocks (residual
//! block, attention, convolution, upsampling), each tagged with whether
//! it keeps its output as a skip connection or concatenates one. Training
//! `forward`, `infer`, `backward` (the list reversed), `params` and
//! `prepack` all walk that list, so the list order is also the parameter
//! order [`save_params`] writes. Training and inference stay two walks
//! because the fused inference kernels never materialise the
//! pre-activations `backward` reads.
//!
//! # Example
//!
//! ```
//! use dp_nn::{Tensor, UNet, UNetConfig, Adam, AdamConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = UNetConfig {
//!     in_channels: 4,
//!     out_channels: 8,
//!     base_channels: 8,
//!     channel_mults: vec![1, 2],
//!     num_res_blocks: 1,
//!     attn_resolutions: vec![1],
//!     time_dim: 16,
//!     groups: 4,
//!     dropout: 0.1,
//! };
//! let mut net = UNet::new(&config, &mut rng);
//! let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
//! let t = vec![3usize, 7];
//! let y = net.forward(&x, &t);
//! assert_eq!(y.shape(), &[2, 8, 8, 8]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod activation;
mod adam;
mod attention;
mod conv;
mod dropout;
mod embedding;
mod gemm;
mod linear;
mod norm;
mod param;
mod tensor;
mod unet;
mod upsample;
mod weights;
mod workspace;

pub use activation::{
    scale_and_softmax_rows_in_place, silu, silu_backward, silu_in_place, softmax_rows,
    softmax_rows_in_place, Silu,
};
pub use adam::{Adam, AdamConfig};
pub use attention::SelfAttention2d;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use embedding::{sinusoidal_embedding, sinusoidal_embedding_ws};
pub use gemm::{matmul, transpose, with_inner_gemm_parallelism};
pub use linear::Linear;
pub use norm::GroupNorm;
pub use param::Param;
pub use tensor::Tensor;
pub use unet::{UNet, UNetConfig};
pub use upsample::{upsample_nearest2, upsample_nearest2_backward, upsample_nearest2_ws};
pub use weights::{load_params, save_params, WeightsError};
pub use workspace::Workspace;

#[cfg(test)]
pub(crate) mod gradcheck;
