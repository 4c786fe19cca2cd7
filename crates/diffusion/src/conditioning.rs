//! Per-lane conditioning for the reverse diffusion chain: region-frozen
//! inpainting and hotspot-avoidance guidance.
//!
//! A [`Conditioning`] travels with a generation lane and bends its reverse
//! chain without touching any other lane:
//!
//! * **[`FrozenRegion`]** — diffusion inpainting. Masked entries are
//!   re-clamped to their known values after every reverse step, but
//!   *q-sampled at the step's noise level* (one Bernoulli flip per masked
//!   entry with `b̄_k`, exactly [`crate::forward_sample`]'s kernel) so the
//!   intermediate states the denoiser sees stay on the forward-process
//!   manifold. Only the final step clamps the exact bits.
//! * **[`MotifGuidance`]** — the terminal categorical draw's logits are
//!   reweighted to steer mass away from a DRC hotspot motif. The only
//!   motif today is [`Motif::IsolatedCell`]: each matrix cell's logit is
//!   biased towards its 4-neighbourhood consensus, suppressing the
//!   single-cell features and single-cell gaps that materialise as
//!   min-width / min-space / min-area violations.
//!
//! Both parts compose in one `Conditioning`, and the empty value
//! ([`Conditioning::none`]) is the unconditioned sampler: it draws no extra
//! randomness and perturbs no probability, so unconditioned lanes remain
//! bit-identical with or without the conditioning plumbing. A conditioned
//! lane draws its extra flips from *its own* RNG stream, keeping every
//! lane's output a pure function of `(seed, index, conditioning)`, so
//! lanes under different conditionings share one batch call
//! ([`crate::Sampler::sample_lanes_with`]).

use crate::DiffusionError;
use rand::Rng;
use std::sync::Arc;

/// Logits saturate past this probability clamp; keeps the guidance bias
/// finite at p ∈ {0, 1}.
const LOGIT_EPS: f64 = 1e-9;

/// Known bits to hold fixed through the reverse chain (diffusion
/// inpainting). `mask` and `bits` are full-tensor, channel-major (the
/// [`dp_squish::DeepSquishTensor::bits`] order); `bits[i]` is only
/// meaningful where `mask[i]` is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenRegion {
    mask: Arc<[bool]>,
    bits: Arc<[bool]>,
}

impl FrozenRegion {
    /// Builds a frozen region from a same-length mask/bits pair.
    ///
    /// # Errors
    ///
    /// [`DiffusionError::ConditioningMismatch`] when the lengths differ.
    pub fn new(mask: Vec<bool>, bits: Vec<bool>) -> Result<Self, DiffusionError> {
        if mask.len() != bits.len() {
            return Err(DiffusionError::ConditioningMismatch {
                mask: mask.len(),
                bits: bits.len(),
            });
        }
        Ok(FrozenRegion {
            mask: mask.into(),
            bits: bits.into(),
        })
    }

    /// The frozen-entry mask, channel-major over the whole tensor.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// The target values, channel-major; meaningful only under the mask.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Tensor length this region was built for.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// `true` when the mask covers zero entries (still a valid region).
    pub fn is_empty(&self) -> bool {
        !self.mask.iter().any(|&m| m)
    }

    /// `true` when `bits`, a channel-major tensor of this region's length,
    /// carries every frozen entry's value: the inpainting contract checked
    /// on a delivered pattern.
    pub fn holds(&self, bits: &[bool]) -> bool {
        bits.len() == self.len()
            && self
                .mask
                .iter()
                .zip(self.bits.iter().zip(bits))
                .all(|(&frozen, (&want, &got))| !frozen || want == got)
    }

    /// Overwrites masked entries of `state` with the frozen bits q-sampled
    /// at noise level `flip` (= `b̄_k` of the step just reached): one RNG
    /// draw per masked entry, in entry order.
    pub(crate) fn write_noised(&self, flip: f64, state: &mut [bool], rng: &mut impl Rng) {
        debug_assert_eq!(state.len(), self.mask.len());
        for (i, bit) in state.iter_mut().enumerate() {
            if self.mask[i] {
                // XOR with a Bernoulli(b̄_k) flip — forward_sample's kernel.
                *bit = self.bits[i] != rng.gen_bool(flip);
            }
        }
    }

    /// Clamps masked entries of `state` to their exact frozen values (the
    /// final-step form; draws nothing).
    pub(crate) fn write_exact(&self, state: &mut [bool]) {
        debug_assert_eq!(state.len(), self.mask.len());
        for (i, bit) in state.iter_mut().enumerate() {
            if self.mask[i] {
                *bit = self.bits[i];
            }
        }
    }
}

/// A hotspot motif class the guidance steers away from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Motif {
    /// Single-cell features and single-cell gaps: the topology motifs that
    /// become min-width, min-space and min-area violations once physical
    /// Δ vectors are assigned.
    IsolatedCell,
}

impl Motif {
    /// Stable lowercase name (the wire/CLI preset token).
    pub fn name(self) -> &'static str {
        match self {
            Motif::IsolatedCell => "isolated-cell",
        }
    }

    /// Parses a preset token produced by [`Motif::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "isolated-cell" => Some(Motif::IsolatedCell),
            _ => None,
        }
    }
}

/// Logit reweighting of the terminal categorical draw, parameterised by a
/// [`Motif`] and a positive weight (the logit bias scale; values around
/// 1–4 are gentle-to-firm, derived from `dp_drc` rule margins upstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifGuidance {
    motif: Motif,
    weight: f64,
}

impl MotifGuidance {
    /// Builds a guidance term.
    ///
    /// # Errors
    ///
    /// [`DiffusionError::BadGuidanceWeight`] when `weight` is not a finite
    /// positive number.
    pub fn new(motif: Motif, weight: f64) -> Result<Self, DiffusionError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(DiffusionError::BadGuidanceWeight { weight });
        }
        Ok(MotifGuidance { motif, weight })
    }

    /// The motif class being avoided.
    pub fn motif(&self) -> Motif {
        self.motif
    }

    /// The logit bias scale.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Rewrites a lane's `p1` buffer in place, biasing each entry's logit
    /// by the motif rule evaluated on the *unbiased* probabilities in
    /// `base` (a caller-provided copy of `p1`, so the pass reads
    /// pre-guidance neighbours). Deterministic, draws nothing.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is not a perfect square (guidance reasons in
    /// unfolded matrix coordinates, which need the fold's patch size).
    pub(crate) fn reweight(&self, channels: usize, side: usize, base: &[f64], p1: &mut [f64]) {
        let patch = (channels as f64).sqrt().round() as usize;
        assert_eq!(
            patch * patch,
            channels,
            "guidance needs a square channel count"
        );
        debug_assert_eq!(base.len(), channels * side * side);
        debug_assert_eq!(p1.len(), base.len());
        let matrix = side * patch;
        // Folded index of unfolded matrix cell (x, y): channel (pi, pj)
        // holds the cells congruent to (pj, pi) mod patch.
        let entry = |x: usize, y: usize| -> usize {
            let (pj, n) = (x % patch, x / patch);
            let (pi, m) = (y % patch, y / patch);
            (pi * patch + pj) * side * side + m * side + n
        };
        match self.motif {
            Motif::IsolatedCell => {
                for y in 0..matrix {
                    for x in 0..matrix {
                        let mut sum = 0.0;
                        let mut count = 0.0;
                        if x > 0 {
                            sum += base[entry(x - 1, y)];
                            count += 1.0;
                        }
                        if x + 1 < matrix {
                            sum += base[entry(x + 1, y)];
                            count += 1.0;
                        }
                        if y > 0 {
                            sum += base[entry(x, y - 1)];
                            count += 1.0;
                        }
                        if y + 1 < matrix {
                            sum += base[entry(x, y + 1)];
                            count += 1.0;
                        }
                        if count == 0.0 {
                            continue;
                        }
                        let e = entry(x, y);
                        let p = base[e].clamp(LOGIT_EPS, 1.0 - LOGIT_EPS);
                        // Consensus in [-1, 1]: positive when the
                        // neighbourhood leans filled.
                        let consensus = 2.0 * (sum / count) - 1.0;
                        let logit = (p / (1.0 - p)).ln() + self.weight * consensus;
                        p1[e] = 1.0 / (1.0 + (-logit).exp());
                    }
                }
            }
        }
    }
}

/// Everything a lane's reverse chain is conditioned on. The empty value is
/// the unconditioned sampler; a frozen region and a guidance term compose
/// freely.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conditioning {
    frozen: Option<FrozenRegion>,
    avoid: Option<MotifGuidance>,
}

impl Conditioning {
    /// The unconditioned value: draws no extra randomness, perturbs no
    /// probability — sampling under it is bit-identical to the
    /// conditioning-free sampler.
    pub fn none() -> Self {
        Conditioning::default()
    }

    /// `true` when no constraint is attached.
    pub fn is_none(&self) -> bool {
        self.frozen.is_none() && self.avoid.is_none()
    }

    /// Attaches (replaces) a frozen region.
    #[must_use]
    pub fn with_frozen(mut self, region: FrozenRegion) -> Self {
        self.frozen = Some(region);
        self
    }

    /// Attaches (replaces) a motif-avoidance guidance term.
    #[must_use]
    pub fn with_avoid(mut self, guidance: MotifGuidance) -> Self {
        self.avoid = Some(guidance);
        self
    }

    /// The frozen region, if any.
    pub fn frozen(&self) -> Option<&FrozenRegion> {
        self.frozen.as_ref()
    }

    /// The guidance term, if any.
    pub fn avoid(&self) -> Option<&MotifGuidance> {
        self.avoid.as_ref()
    }

    /// Checks the conditioning against a concrete tensor geometry: the
    /// frozen mask/bits must span exactly `entries` values.
    pub fn matches_entries(&self, entries: usize) -> bool {
        self.frozen.as_ref().is_none_or(|f| f.len() == entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_is_none_and_matches_every_shape() {
        let c = Conditioning::none();
        assert!(c.is_none());
        assert!(c.matches_entries(0));
        assert!(c.matches_entries(64));
    }

    #[test]
    fn frozen_region_rejects_length_mismatch() {
        let err = FrozenRegion::new(vec![true; 4], vec![false; 5]).unwrap_err();
        assert_eq!(
            err,
            DiffusionError::ConditioningMismatch { mask: 4, bits: 5 }
        );
    }

    #[test]
    fn holds_checks_only_frozen_entries_and_the_length() {
        let region = FrozenRegion::new(vec![true, false, true], vec![true, false, false]).unwrap();
        assert!(region.holds(&[true, false, false]));
        assert!(region.holds(&[true, true, false]), "unfrozen entry is free");
        assert!(!region.holds(&[false, false, false]));
        assert!(!region.holds(&[true, false, true]));
        assert!(!region.holds(&[true, false]), "wrong length");
        let empty = FrozenRegion::new(vec![false; 2], vec![true; 2]).unwrap();
        assert!(empty.holds(&[false, true]));
    }

    #[test]
    fn guidance_rejects_bad_weights() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(MotifGuidance::new(Motif::IsolatedCell, w).is_err());
        }
        assert!(MotifGuidance::new(Motif::IsolatedCell, 2.0).is_ok());
    }

    #[test]
    fn motif_names_round_trip() {
        let m = Motif::IsolatedCell;
        assert_eq!(Motif::from_name(m.name()), Some(m));
        assert_eq!(Motif::from_name("no-such-motif"), None);
    }

    #[test]
    fn matches_entries_checks_frozen_length() {
        let c = Conditioning::none()
            .with_frozen(FrozenRegion::new(vec![false; 64], vec![false; 64]).unwrap());
        assert!(c.matches_entries(64));
        assert!(!c.matches_entries(63));
    }

    #[test]
    fn write_exact_only_touches_masked_entries() {
        let mask = vec![true, false, true, false];
        let bits = vec![true, true, false, true];
        let region = FrozenRegion::new(mask, bits).unwrap();
        let mut state = vec![false, false, true, false];
        region.write_exact(&mut state);
        assert_eq!(state, vec![true, false, false, false]);
    }

    #[test]
    fn write_noised_draws_once_per_masked_entry() {
        // flip = 0.0 reproduces write_exact while still consuming one draw
        // per masked entry — the determinism contract the engine relies on.
        let region = FrozenRegion::new(vec![true, false, true], vec![true, true, false]).unwrap();
        let mut a = vec![false; 3];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        region.write_noised(0.0, &mut a, &mut rng);
        assert_eq!(a, vec![true, false, false]);
        // flip = 1.0 inverts every frozen bit deterministically.
        let mut b = vec![false; 3];
        region.write_noised(1.0, &mut b, &mut rng);
        assert_eq!(b, vec![false, false, true]);
    }

    #[test]
    fn guidance_pulls_isolated_cells_towards_neighbour_consensus() {
        // One channel, 4x4 matrix: a lone near-certain "on" cell in an
        // empty field must be pushed down; a near-certain "off" cell in a
        // filled field must be pushed up.
        let g = MotifGuidance::new(Motif::IsolatedCell, 4.0).unwrap();
        let mut low = vec![0.05f64; 16];
        low[5] = 0.9;
        let base = low.clone();
        g.reweight(1, 4, &base, &mut low);
        assert!(low[5] < 0.9, "isolated dot not suppressed: {}", low[5]);
        let mut high = vec![0.95f64; 16];
        high[10] = 0.1;
        let base = high.clone();
        g.reweight(1, 4, &base, &mut high);
        assert!(high[10] > 0.1, "isolated gap not filled: {}", high[10]);
        // A cell agreeing with its neighbours barely moves direction-wise:
        // consensus pushes it further towards the shared value.
        assert!(low[0] <= 0.05 + 1e-12);
    }

    #[test]
    fn guidance_reads_pre_bias_neighbours() {
        // The pass must read neighbour probabilities from `base`, not from
        // the partially rewritten buffer: rewriting in scan order would
        // otherwise make the result depend on traversal direction.
        let g = MotifGuidance::new(Motif::IsolatedCell, 2.0).unwrap();
        let base: Vec<f64> = (0..16).map(|i| (i as f64 + 0.5) / 17.0).collect();
        let mut forward = base.clone();
        g.reweight(1, 4, &base, &mut forward);
        // Recompute each entry independently from base — must match.
        for e in 0..16 {
            let mut solo = base.clone();
            g.reweight(1, 4, &base, &mut solo);
            assert_eq!(solo[e], forward[e]);
        }
    }
}
