//! Baselines for the Table I comparison.
//!
//! The paper compares DiffPattern against four learning-based generators:
//!
//! * **CAE** \[7\] — a convolutional auto-encoder; new topologies come from
//!   decoding perturbed latent codes of training samples, thresholding the
//!   continuous output ([`Cae`]),
//! * **VCAE** \[8\] — a variational CAE sampling latents from the prior
//!   ([`Vcae`]),
//! * **LegalGAN** \[8\] — a learned post-processor that *modifies* a
//!   generated topology towards legality; reproduced as a rule-guided
//!   morphological legalizer with the same interface and effect direction
//!   ([`MorphLegalizer`]; see PAPER.md, "Substitutions"),
//! * **LayouTransformer** \[9\] — sequential polygon generation; reproduced
//!   as an order-2 Markov model over polygon edge tokens with physical
//!   coordinates ([`SequenceModel`]).
//!
//! All baselines are *honest small-scale models*: their diversity and
//! legality numbers in the benchmark harness are measured, not scripted.
//! Pixel-based baselines produce a topology and borrow geometric vectors
//! from the training set ([`assign_borrowed_deltas`]) — the implicit,
//! learned delta assignment the paper criticises — so their legality losses
//! arise from the same mechanism as in the original systems: nothing in the
//! loop guarantees the design rules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ae;
mod cae;
mod delta_assign;
mod legalgan;
mod sequence;
mod validity;
mod vcae;

pub use ae::AeConfig;
pub use cae::Cae;
pub use delta_assign::assign_borrowed_deltas;
pub use legalgan::MorphLegalizer;
pub use sequence::{SequenceModel, SequenceModelConfig};
pub use validity::ValidityScorer;
pub use vcae::Vcae;
