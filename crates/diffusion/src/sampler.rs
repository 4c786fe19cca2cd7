use crate::schedule::{posterior_jump_same_prob, NoiseSchedule};
use crate::{Conditioning, InferenceDenoiser, MotifGuidance};
use dp_nn::Workspace;
use dp_squish::DeepSquishTensor;
use rand::Rng;
use std::sync::Mutex;

/// Reusable scratch for the micro-batched sampling loop: one
/// [`Workspace`] shared by the stacked network evaluation plus the
/// concatenated per-lane probability buffer
/// ([`InferenceDenoiser::infer_p1_batch_into`]'s output). Keep one per
/// worker thread; after the first batch warms it up, every denoising step
/// runs without heap allocation regardless of the lane count.
#[derive(Debug, Default)]
pub struct BatchScratch {
    ws: Workspace,
    p1: Vec<f64>,
}

impl BatchScratch {
    /// Creates an empty scratch (sized lazily by its first use).
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// Ancestral sampler for the reverse diffusion process (paper Eq. 13,
/// Fig. 6).
///
/// Starting from the uniform stationary distribution, each step queries the
/// denoiser for `p_θ(x̃0 | x_k)` and flips every entry according to the
/// closed-form mixture `p_θ(x_{k-1} | x_k)`; the final step draws
/// `x̂_0 ~ p_θ(x_0 | x_1)` directly. The output is naturally binary — there
/// is no threshold anywhere, which is the paper's core argument for
/// discrete diffusion.
///
/// There is one sampling loop with two entries:
/// [`Sampler::sample_lanes_with`] takes one [`Conditioning`] per lane, and
/// [`Sampler::sample_conditioned_batch_with`] is its same-conditioning
/// case. A single chain is a batch of one, the plain ancestral chain is
/// the retained set [`Sampler::strided_steps`]`(1)` under
/// [`Conditioning::none`], and [`Sampler::sample_with_trace`] records the
/// loop's states from outside it.
#[derive(Debug, Clone)]
pub struct Sampler {
    schedule: NoiseSchedule,
}

/// A reverse trajectory with snapshots at requested steps — the data behind
/// paper Fig. 6.
#[derive(Debug, Clone)]
pub struct SampleTrace {
    /// `(k, state at step k)` pairs, highest `k` first. `k = 0` is the
    /// final sample.
    pub snapshots: Vec<(usize, DeepSquishTensor)>,
    /// The final clean sample `x̂_0`.
    pub sample: DeepSquishTensor,
}

impl Sampler {
    /// Creates a sampler over `schedule`.
    pub fn new(schedule: NoiseSchedule) -> Self {
        Sampler { schedule }
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The sampling core: advances `rngs.len()` independent chains in
    /// lock-step over the retained steps `retained` (strictly increasing,
    /// 1-based, at most K; [`Sampler::strided_steps`] builds them),
    /// evaluating the denoiser **once per step** on the whole batch while
    /// drawing every lane's randomness from that lane's own RNG.
    ///
    /// Consecutive retained steps are joined by the generalised jump
    /// posterior `q(x_j | x_k, x̃_0)` (respaced, DDIM-style sampling, paper
    /// ref. \[12\]); the full sequence `1..=K` is the plain ancestral
    /// chain. Lane `i` samples under `conditioning[i]`: frozen entries are
    /// q-sampled to the step's noise level after every reverse step and
    /// clamped exactly at the end; motif guidance reweights the terminal
    /// draw's logits. [`Conditioning::none`] draws nothing extra and
    /// perturbs no probability, so conditioned and unconditioned lanes
    /// share one batch freely.
    ///
    /// Determinism: each lane consumes only its own RNG, in a fixed order,
    /// under only its own conditioning, and the batched network
    /// evaluation is bit-identical per item (see
    /// [`InferenceDenoiser::infer_p1_batch_into`]), so lane `i` of the
    /// result is **bit-identical** to a batch of one driven by `rngs[i]`
    /// under `conditioning[i]` alone — batching changes the cost, never
    /// the samples. An empty `rngs` slice returns an empty vector without
    /// touching the denoiser.
    ///
    /// # Panics
    ///
    /// Panics when `conditioning` and `rngs` differ in length, when
    /// `retained` is empty, unsorted, contains 0 or exceeds K, or when a
    /// lane's frozen mask does not span exactly `channels * side * side`
    /// entries (validate shapes upstream with
    /// [`Conditioning::matches_entries`]).
    #[allow(clippy::too_many_arguments)]
    pub fn sample_lanes_with<R: Rng>(
        &self,
        denoiser: &dyn InferenceDenoiser,
        channels: usize,
        side: usize,
        retained: &[usize],
        conditioning: &[&Conditioning],
        rngs: &mut [R],
        scratch: &mut BatchScratch,
    ) -> Vec<DeepSquishTensor> {
        assert_eq!(
            conditioning.len(),
            rngs.len(),
            "one conditioning per lane RNG"
        );
        for lane in conditioning {
            assert_spans(lane, channels * side * side);
        }
        self.sample_lanes(
            denoiser,
            channels,
            side,
            retained,
            |li| conditioning[li],
            rngs,
            scratch,
        )
    }

    /// [`Sampler::sample_lanes_with`] with every lane under the same
    /// `conditioning`: the same loop, without a per-lane slice to build.
    /// Lane `i` is bit-identical to `sample_lanes_with` with
    /// `conditioning` in slot `i`.
    ///
    /// # Panics
    ///
    /// As [`Sampler::sample_lanes_with`]. The step subset and the mask
    /// shape are checked even for an empty batch, so a misconfigured
    /// schedule or mask never goes unnoticed.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_conditioned_batch_with<R: Rng>(
        &self,
        denoiser: &dyn InferenceDenoiser,
        channels: usize,
        side: usize,
        retained: &[usize],
        conditioning: &Conditioning,
        rngs: &mut [R],
        scratch: &mut BatchScratch,
    ) -> Vec<DeepSquishTensor> {
        assert_spans(conditioning, channels * side * side);
        self.sample_lanes(
            denoiser,
            channels,
            side,
            retained,
            |_| conditioning,
            rngs,
            scratch,
        )
    }

    /// The loop behind both entries; `conditioning(i)` is lane `i`'s
    /// conditioning, already checked against the tensor shape.
    #[allow(clippy::too_many_arguments)]
    fn sample_lanes<'c, R: Rng>(
        &self,
        denoiser: &dyn InferenceDenoiser,
        channels: usize,
        side: usize,
        retained: &[usize],
        conditioning: impl Fn(usize) -> &'c Conditioning,
        rngs: &mut [R],
        scratch: &mut BatchScratch,
    ) -> Vec<DeepSquishTensor> {
        let entries = channels * side * side;
        self.validate_retained(retained);
        let k_top = *retained.last().expect("non-empty");

        let mut states: Vec<DeepSquishTensor> = rngs
            .iter_mut()
            .enumerate()
            .map(|(li, rng)| {
                let mut state = uniform_state(channels, side, rng);
                if let Some(region) = conditioning(li).frozen() {
                    // Lanes start at q(x_{k_top} | x0) on the frozen set.
                    region.write_noised(
                        self.schedule.cumulative_flip(k_top),
                        state.bits_mut(),
                        rng,
                    );
                }
                state
            })
            .collect();
        if states.is_empty() {
            return states;
        }
        let BatchScratch { ws, p1 } = scratch;

        // The steady-state denoising loop: every buffer it touches was
        // allocated up front (states, scratch), which the counting-
        // allocator tests pin dynamically and dp_lint pins statically.
        // dp-lint: zero-alloc
        for idx in (0..retained.len()).rev() {
            let k = retained[idx];
            let j = if idx == 0 { 0 } else { retained[idx - 1] };
            denoiser.infer_p1_batch_into(&states, k, ws, p1);
            debug_assert_eq!(p1.len(), states.len() * entries);
            let coeffs = (j > 0).then(|| {
                (
                    posterior_jump_same_prob(&self.schedule, j, k, true),
                    posterior_jump_same_prob(&self.schedule, j, k, false),
                )
            });
            for (li, (state, rng)) in states.iter_mut().zip(rngs.iter_mut()).enumerate() {
                let lane = &mut p1[li * entries..(li + 1) * entries];
                let conditioning = conditioning(li);
                match coeffs {
                    Some((eq, ne)) => {
                        reverse_update_in_place(eq, ne, state.bits_mut(), lane, rng);
                        if let Some(region) = conditioning.frozen() {
                            region.write_noised(
                                self.schedule.cumulative_flip(j),
                                state.bits_mut(),
                                rng,
                            );
                        }
                    }
                    None => {
                        if let Some(guidance) = conditioning.avoid() {
                            apply_guidance(guidance, channels, side, ws, lane);
                        }
                        categorical_draw_in_place(state.bits_mut(), lane, rng);
                        if let Some(region) = conditioning.frozen() {
                            region.write_exact(state.bits_mut());
                        }
                    }
                }
            }
        }
        states
    }

    /// The retained-step contract of the sampling loop.
    fn validate_retained(&self, retained: &[usize]) {
        assert!(!retained.is_empty(), "empty step subset");
        assert!(
            retained.windows(2).all(|w| w[0] < w[1]),
            "retained steps must be strictly increasing"
        );
        assert!(retained[0] >= 1, "steps are 1-based");
        assert!(
            *retained.last().expect("non-empty") <= self.schedule.steps(),
            "step beyond K"
        );
    }

    /// Builds an evenly strided retained-step subset `[s, 2s, ..., K]` for
    /// [`Sampler::sample_lanes_with`]; stride 1 is the full
    /// ancestral chain `1..=K` (every jump is then Eq. 12's single step,
    /// [`posterior_jump_same_prob`]`(k-1, k)`).
    ///
    /// The respacing contract, pinned by unit tests:
    ///
    /// * `stride == 0` is clamped to 1, i.e. the full sequence `1..=K`;
    /// * `stride >= K` keeps only `[K]` — a single direct jump from the
    ///   stationary distribution to `x̂_0`;
    /// * `K` itself is always retained (appended when the stride does not
    ///   divide it), so the chain always starts at the top step and the
    ///   result is never empty.
    pub fn strided_steps(&self, stride: usize) -> Vec<usize> {
        let k_max = self.schedule.steps();
        let stride = stride.max(1);
        let mut out: Vec<usize> = (1..=k_max).filter(|k| k % stride == 0).collect();
        // `k_max >= 1` (schedules are non-empty), so this push makes the
        // result non-empty whenever the filter retained nothing.
        if out.last() != Some(&k_max) {
            out.push(k_max);
        }
        out
    }

    /// Draws one sample through the full chain, recording snapshots at the
    /// requested steps (plus the initial noise at `k = K` and the final
    /// sample at `k = 0`) — the Fig. 6 trace.
    ///
    /// Runs the core as a batch of one behind a recording denoiser that
    /// copies the state it is asked to denoise at each requested step, so
    /// the sample is bit-identical to the core's for the same RNG stream
    /// and the core's steady-state loop carries no trace hook.
    pub fn sample_with_trace(
        &self,
        denoiser: &dyn InferenceDenoiser,
        channels: usize,
        side: usize,
        snapshot_steps: &[usize],
        rng: &mut impl Rng,
    ) -> SampleTrace {
        let recorder = Recorder {
            inner: denoiser,
            top: self.schedule.steps(),
            steps: snapshot_steps,
            snapshots: Mutex::new(Vec::new()),
        };
        let sample = self
            .sample_conditioned_batch_with(
                &recorder,
                channels,
                side,
                &self.strided_steps(1),
                &Conditioning::none(),
                std::slice::from_mut(rng),
                &mut BatchScratch::new(),
            )
            .pop()
            .expect("a batch of one yields one sample");
        let mut snapshots = recorder
            .snapshots
            .into_inner()
            .expect("trace recorder lock poisoned");
        snapshots.push((0, sample.clone()));
        SampleTrace { snapshots, sample }
    }
}

/// The trace helper's denoiser: records the (single) input state at the
/// top step and at every requested step, then delegates.
struct Recorder<'a> {
    inner: &'a dyn InferenceDenoiser,
    top: usize,
    steps: &'a [usize],
    snapshots: Mutex<Vec<(usize, DeepSquishTensor)>>,
}

impl InferenceDenoiser for Recorder<'_> {
    fn infer_p1_batch_into(
        &self,
        xks: &[DeepSquishTensor],
        k: usize,
        ws: &mut Workspace,
        out: &mut Vec<f64>,
    ) {
        if k == self.top || self.steps.contains(&k) {
            self.snapshots
                .lock()
                .expect("trace recorder lock poisoned")
                .extend(xks.iter().map(|x| (k, x.clone())));
        }
        self.inner.infer_p1_batch_into(xks, k, ws, out);
    }
}

/// The mask-shape contract of both sampling entries.
fn assert_spans(conditioning: &Conditioning, entries: usize) {
    assert!(
        conditioning.matches_entries(entries),
        "conditioning mask does not span {entries} entries"
    );
}

/// Rebiases one lane's `p1` in place for the terminal draw: copies the
/// unbiased probabilities into a pooled workspace buffer (so neighbour
/// reads see pre-guidance values), then lets the guidance rewrite `p1`.
/// Allocation-free once the workspace pool is warm.
fn apply_guidance(
    guidance: &MotifGuidance,
    channels: usize,
    side: usize,
    ws: &mut Workspace,
    p1: &mut [f64],
) {
    let mut base = ws.take_probs(p1.len());
    base.copy_from_slice(p1);
    guidance.reweight(channels, side, &base, p1);
    ws.put_probs(base);
}

/// Applies one reverse denoising step to a lane in place — the Eq. 11
/// mixture `p_θ(x_j = x_k | x_k)`: every entry is kept with probability
/// `pm·eq + (1−pm)·ne` and flipped otherwise, where `pm` is the network's
/// probability that `x̃_0` matches the entry's current value and
/// `(eq, ne)` are the step's two Eq. 12 coefficients
/// ([`posterior_jump_same_prob`] at `xk_equals_x0 ∈ {true, false}`). The
/// coefficients depend only on the schedule and the step — never on the
/// state — so callers hoist them out of the element loop.
///
/// Exactly one RNG draw per entry, in entry order. Public so the
/// micro-benchmarks can time the sampler's non-network floor directly.
pub fn reverse_update_in_place(
    eq: f64,
    ne: f64,
    bits: &mut [bool],
    p1: &[f64],
    rng: &mut impl Rng,
) {
    // dp-lint: zero-alloc
    for (bit, &p) in bits.iter_mut().zip(p1) {
        // Probability the network gives to x̃0 equalling the current
        // state of this entry.
        let pm = if *bit { p } else { 1.0 - p };
        let keep = (pm * eq + (1.0 - pm) * ne).clamp(0.0, 1.0);
        // gen_bool(keep) == false means "flip"; XNOR avoids the branch.
        *bit = *bit == rng.gen_bool(keep);
    }
}

/// The chain's terminal draw `x̂_0 ~ Bernoulli(p1)` per entry — one RNG
/// draw per entry, in entry order. Public for the same micro-benchmark
/// reason as [`reverse_update_in_place`].
pub fn categorical_draw_in_place(bits: &mut [bool], p1: &[f64], rng: &mut impl Rng) {
    // dp-lint: zero-alloc
    for (bit, &p) in bits.iter_mut().zip(p1) {
        *bit = rng.gen_bool(p.clamp(0.0, 1.0));
    }
}

/// A fresh uniform-random state tensor (the chain's starting point).
fn uniform_state(channels: usize, side: usize, rng: &mut impl Rng) -> DeepSquishTensor {
    let bits = (0..channels * side * side)
        .map(|_| rng.gen_bool(0.5))
        .collect();
    DeepSquishTensor::from_bits(channels, side, bits).expect("valid shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrozenRegion, OracleDenoiser, UniformDenoiser};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> NoiseSchedule {
        NoiseSchedule::linear(100, 0.01, 0.5).unwrap()
    }

    /// One chain through the core: a batch of one on `rng`.
    #[allow(clippy::too_many_arguments)]
    fn solo(
        sampler: &Sampler,
        denoiser: &dyn InferenceDenoiser,
        channels: usize,
        side: usize,
        retained: &[usize],
        conditioning: &Conditioning,
        rng: &mut StdRng,
        scratch: &mut BatchScratch,
    ) -> DeepSquishTensor {
        sampler
            .sample_conditioned_batch_with(
                denoiser,
                channels,
                side,
                retained,
                conditioning,
                std::slice::from_mut(rng),
                scratch,
            )
            .remove(0)
    }

    /// [`solo`] over the full chain, unconditioned, with a fresh scratch.
    fn solo_full(
        sampler: &Sampler,
        denoiser: &dyn InferenceDenoiser,
        channels: usize,
        side: usize,
        rng: &mut StdRng,
    ) -> DeepSquishTensor {
        let full = sampler.strided_steps(1);
        let none = Conditioning::none();
        solo(
            sampler,
            denoiser,
            channels,
            side,
            &full,
            &none,
            rng,
            &mut BatchScratch::new(),
        )
    }

    /// The plain reverse chain written out step by step from the public
    /// primitives: the reference the core must match under
    /// [`Conditioning::none`].
    fn reference_chain(
        sampler: &Sampler,
        denoiser: &dyn InferenceDenoiser,
        side: usize,
        retained: &[usize],
        rng: &mut StdRng,
    ) -> DeepSquishTensor {
        let mut state = uniform_state(1, side, rng);
        for idx in (0..retained.len()).rev() {
            let (k, j) = (retained[idx], if idx == 0 { 0 } else { retained[idx - 1] });
            let p1 = denoiser
                .infer_p1(std::slice::from_ref(&state), &[k])
                .remove(0);
            if j == 0 {
                categorical_draw_in_place(state.bits_mut(), &p1, rng);
            } else {
                let eq = posterior_jump_same_prob(sampler.schedule(), j, k, true);
                let ne = posterior_jump_same_prob(sampler.schedule(), j, k, false);
                reverse_update_in_place(eq, ne, state.bits_mut(), &p1, rng);
            }
        }
        state
    }

    #[test]
    fn oracle_sampling_reconstructs_x0() {
        // The strongest correctness check of the reverse-process math: with
        // a confident oracle, ancestral sampling from pure noise must land
        // on x0 (every step pulls each entry towards x0's value).
        let mut rng = StdRng::seed_from_u64(0);
        let bits: Vec<bool> = (0..64).map(|i| (i / 3) % 2 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 8, bits).unwrap();
        let oracle = OracleDenoiser::new(x0.clone(), 0.999);
        let sampler = Sampler::new(schedule());
        let out = solo_full(&sampler, &oracle, 1, 8, &mut rng);
        let hamming: usize = out
            .bits()
            .iter()
            .zip(x0.bits())
            .filter(|(a, b)| a != b)
            .count();
        assert!(hamming <= 1, "hamming {hamming} too large");
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch_per_seed() {
        // A warm scratch must not change what gets sampled, only how much
        // is allocated.
        let bits: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 8, bits).unwrap();
        let oracle = OracleDenoiser::new(x0, 0.9);
        let sampler = Sampler::new(schedule());
        let none = Conditioning::none();
        let mut scratch = BatchScratch::new();
        for (stride, seed) in [(1usize, 33u64), (7, 34)] {
            let retained = sampler.strided_steps(stride);
            // Warm it up.
            let mut rng = StdRng::seed_from_u64(5);
            let _ = solo(
                &sampler,
                &oracle,
                1,
                8,
                &retained,
                &none,
                &mut rng,
                &mut scratch,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let warm = solo(
                &sampler,
                &oracle,
                1,
                8,
                &retained,
                &none,
                &mut rng,
                &mut scratch,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let fresh = solo(
                &sampler,
                &oracle,
                1,
                8,
                &retained,
                &none,
                &mut rng,
                &mut BatchScratch::new(),
            );
            assert_eq!(warm, fresh, "stride {stride}");
        }
    }

    #[test]
    fn uniform_denoiser_stays_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let sampler = Sampler::new(schedule());
        let d = UniformDenoiser::new();
        let ones: usize = (0..4)
            .map(|_| solo_full(&sampler, &d, 1, 16, &mut rng))
            .map(|s| s.bits().iter().filter(|&&b| b).count())
            .sum();
        let total = 4 * 256;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.08, "fraction {frac}");
    }

    #[test]
    fn trace_contains_endpoints_and_requested_steps() {
        let mut rng = StdRng::seed_from_u64(2);
        let sampler = Sampler::new(schedule());
        let d = UniformDenoiser::new();
        let trace = sampler.sample_with_trace(&d, 1, 4, &[50, 10], &mut rng);
        let ks: Vec<usize> = trace.snapshots.iter().map(|(k, _)| *k).collect();
        assert_eq!(ks, vec![100, 50, 10, 0]);
        assert_eq!(trace.sample, trace.snapshots.last().unwrap().1);
    }

    #[test]
    fn trace_and_chain_agree_per_seed() {
        let d = UniformDenoiser::new();
        let sampler = Sampler::new(schedule());
        let mut rng = StdRng::seed_from_u64(17);
        let via_chain = solo_full(&sampler, &d, 1, 4, &mut rng);
        let mut rng = StdRng::seed_from_u64(17);
        let via_trace = sampler.sample_with_trace(&d, 1, 4, &[], &mut rng);
        assert_eq!(via_chain, via_trace.sample);
    }

    #[test]
    fn trace_snapshots_are_the_chain_states_at_their_steps() {
        // The recorder copies the state the core hands the denoiser at
        // step k, so snapshot k is x_k of the plain chain on the same RNG
        // stream: x_K is the initial noise and k = 0 is the sample.
        let bits: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 4, bits).unwrap();
        let oracle = OracleDenoiser::new(x0, 0.8);
        let sampler = Sampler::new(schedule());
        let steps = [70usize, 30, 1];
        let trace =
            sampler.sample_with_trace(&oracle, 1, 4, &steps, &mut StdRng::seed_from_u64(23));

        let k_max = sampler.schedule().steps();
        let mut rng = StdRng::seed_from_u64(23);
        let mut state = uniform_state(1, 4, &mut rng);
        let mut expected = Vec::new();
        for k in (1..=k_max).rev() {
            if k == k_max || steps.contains(&k) {
                expected.push((k, state.clone()));
            }
            let p1 = oracle
                .infer_p1(std::slice::from_ref(&state), &[k])
                .remove(0);
            if k == 1 {
                categorical_draw_in_place(state.bits_mut(), &p1, &mut rng);
            } else {
                let eq = posterior_jump_same_prob(sampler.schedule(), k - 1, k, true);
                let ne = posterior_jump_same_prob(sampler.schedule(), k - 1, k, false);
                reverse_update_in_place(eq, ne, state.bits_mut(), &p1, &mut rng);
            }
        }
        expected.push((0, state.clone()));
        assert_eq!(trace.snapshots, expected);
        assert_eq!(trace.sample, state);
    }

    #[test]
    fn samples_have_requested_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = Sampler::new(NoiseSchedule::linear(10, 0.05, 0.5).unwrap());
        let d = UniformDenoiser::new();
        for _ in 0..3 {
            let t = solo_full(&sampler, &d, 4, 8, &mut rng);
            assert_eq!((t.channels(), t.side()), (4, 8));
        }
    }

    #[test]
    fn respaced_oracle_reconstruction() {
        // Even with a stride of 10 (one tenth of the denoiser calls), a
        // confident oracle still reconstructs x0 through the generalised
        // jump posterior.
        let mut rng = StdRng::seed_from_u64(10);
        let bits: Vec<bool> = (0..64).map(|i| (i / 4) % 2 == 1).collect();
        let x0 = DeepSquishTensor::from_bits(1, 8, bits).unwrap();
        let oracle = OracleDenoiser::new(x0.clone(), 0.999);
        let sampler = Sampler::new(schedule());
        let retained = sampler.strided_steps(10);
        assert!(retained.len() <= 11);
        let out = solo(
            &sampler,
            &oracle,
            1,
            8,
            &retained,
            &Conditioning::none(),
            &mut rng,
            &mut BatchScratch::new(),
        );
        let hamming: usize = out
            .bits()
            .iter()
            .zip(x0.bits())
            .filter(|(a, b)| a != b)
            .count();
        assert!(hamming <= 2, "hamming {hamming}");
    }

    #[test]
    fn respaced_full_sequence_matches_regular_statistics() {
        // With stride 1, respaced sampling is the ordinary ancestral
        // sampler; under a uniform denoiser both keep the fair-coin
        // density.
        let mut rng = StdRng::seed_from_u64(11);
        let sampler = Sampler::new(schedule());
        let full: Vec<usize> = (1..=100).collect();
        let d = UniformDenoiser::new();
        let mut ones = 0usize;
        for _ in 0..4 {
            let t = solo(
                &sampler,
                &d,
                1,
                16,
                &full,
                &Conditioning::none(),
                &mut rng,
                &mut BatchScratch::new(),
            );
            ones += t.bits().iter().filter(|&&b| b).count();
        }
        let frac = ones as f64 / (4.0 * 256.0);
        assert!((frac - 0.5).abs() < 0.08, "{frac}");
    }

    #[test]
    fn strided_steps_cover_endpoints() {
        let sampler = Sampler::new(schedule());
        let steps = sampler.strided_steps(25);
        assert_eq!(steps.last(), Some(&100));
        assert!(steps.iter().all(|&k| (1..=100).contains(&k)));
        assert!(steps.windows(2).all(|w| w[0] < w[1]));
        // stride 1 is the full sequence
        assert_eq!(sampler.strided_steps(1).len(), 100);
    }

    #[test]
    fn strided_steps_zero_stride_is_full_sequence() {
        // Pinned contract: stride 0 clamps to 1.
        let sampler = Sampler::new(schedule());
        let full: Vec<usize> = (1..=100).collect();
        assert_eq!(sampler.strided_steps(0), full);
        assert_eq!(sampler.strided_steps(0), sampler.strided_steps(1));
    }

    #[test]
    fn strided_steps_beyond_k_keep_only_the_top_step() {
        // Pinned contract: stride >= K (even absurdly large) degenerates
        // to the single direct jump [K]; stride == K hits K exactly.
        let sampler = Sampler::new(schedule());
        assert_eq!(sampler.strided_steps(100), vec![100]);
        assert_eq!(sampler.strided_steps(101), vec![100]);
        assert_eq!(sampler.strided_steps(usize::MAX), vec![100]);
        // K = 1: every stride gives [1].
        let tiny = Sampler::new(NoiseSchedule::linear(1, 0.3, 0.5).unwrap());
        for stride in [0usize, 1, 2, 50] {
            assert_eq!(tiny.strided_steps(stride), vec![1]);
        }
    }

    #[test]
    fn batched_chains_match_sequential_chains_bit_for_bit() {
        // The tentpole contract: B lock-step lanes with per-lane RNGs must
        // reproduce B sequential single-chain samples exactly, for the
        // full ancestral chain and the respaced chain alike.
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 8, bits).unwrap();
        let oracle = OracleDenoiser::new(x0, 0.9);
        let sampler = Sampler::new(schedule());
        let none = Conditioning::none();
        let full = sampler.strided_steps(1);
        let retained = sampler.strided_steps(9);
        for batch in [1usize, 3, 8] {
            let seeds: Vec<u64> = (0..batch as u64).map(|i| 1000 + 13 * i).collect();
            let mut scratch = BatchScratch::new();
            let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let batched = sampler.sample_conditioned_batch_with(
                &oracle,
                1,
                8,
                &full,
                &none,
                &mut rngs,
                &mut scratch,
            );
            let mut single_scratch = BatchScratch::new();
            for (li, &seed) in seeds.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let solo = solo(
                    &sampler,
                    &oracle,
                    1,
                    8,
                    &full,
                    &none,
                    &mut rng,
                    &mut single_scratch,
                );
                assert_eq!(batched[li], solo, "B={batch} lane {li} diverged");
            }
            // Respaced flavour, reusing the (now warm) scratches.
            let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let batched = sampler.sample_conditioned_batch_with(
                &oracle,
                1,
                8,
                &retained,
                &none,
                &mut rngs,
                &mut scratch,
            );
            for (li, &seed) in seeds.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let solo = solo(
                    &sampler,
                    &oracle,
                    1,
                    8,
                    &retained,
                    &none,
                    &mut rng,
                    &mut single_scratch,
                );
                assert_eq!(batched[li], solo, "respaced B={batch} lane {li} diverged");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let sampler = Sampler::new(schedule());
        let oracle = UniformDenoiser::new();
        let mut scratch = BatchScratch::new();
        let mut rngs: Vec<StdRng> = Vec::new();
        let none = Conditioning::none();
        for stride in [1usize, 10] {
            let retained = sampler.strided_steps(stride);
            assert!(sampler
                .sample_conditioned_batch_with(
                    &oracle,
                    1,
                    8,
                    &retained,
                    &none,
                    &mut rngs,
                    &mut scratch
                )
                .is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn respaced_rejects_unsorted_steps() {
        let mut rng = StdRng::seed_from_u64(12);
        let sampler = Sampler::new(schedule());
        let d = UniformDenoiser::new();
        let _ = solo(
            &sampler,
            &d,
            1,
            4,
            &[50, 10],
            &Conditioning::none(),
            &mut rng,
            &mut BatchScratch::new(),
        );
    }

    #[test]
    fn conditioning_none_is_bit_identical_to_unconditioned_entry_points() {
        // The conditioned core IS the unconditioned sampler under
        // `Conditioning::none()`: same draws, same samples as the plain
        // chain written out step by step, full chain and respaced.
        let bits: Vec<bool> = (0..64).map(|i| i % 4 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 8, bits).unwrap();
        let oracle = OracleDenoiser::new(x0, 0.9);
        let sampler = Sampler::new(schedule());
        let none = Conditioning::none();
        let full = sampler.strided_steps(1);
        let retained = sampler.strided_steps(8);
        let mut scratch = BatchScratch::new();
        for (steps, seed) in [(&full, 41u64), (&retained, 42)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let cond = solo(
                &sampler,
                &oracle,
                1,
                8,
                steps,
                &none,
                &mut rng,
                &mut scratch,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let plain = reference_chain(&sampler, &oracle, 8, steps, &mut rng);
            assert_eq!(cond, plain);
        }
    }

    fn frozen_checkerboard(entries: usize, offset: usize, span: usize) -> FrozenRegion {
        let mask: Vec<bool> = (0..entries)
            .map(|i| (offset..offset + span).contains(&i))
            .collect();
        let bits: Vec<bool> = (0..entries).map(|i| i % 2 == 0).collect();
        FrozenRegion::new(mask, bits).unwrap()
    }

    #[test]
    fn conditioned_batch_matches_sequential_conditioned_lanes() {
        // Same lock-step bit-identity contract as the unconditioned batch,
        // now with a frozen region + guidance attached to every lane.
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 8, bits).unwrap();
        let oracle = OracleDenoiser::new(x0, 0.9);
        let sampler = Sampler::new(schedule());
        let cond = Conditioning::none()
            .with_frozen(frozen_checkerboard(64, 5, 20))
            .with_avoid(MotifGuidance::new(crate::Motif::IsolatedCell, 2.0).unwrap());
        let retained = sampler.strided_steps(6);
        let seeds: Vec<u64> = (0..5u64).map(|i| 7000 + 11 * i).collect();
        let mut scratch = BatchScratch::new();
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        let batched = sampler.sample_conditioned_batch_with(
            &oracle,
            1,
            8,
            &retained,
            &cond,
            &mut rngs,
            &mut scratch,
        );
        let mut solo_scratch = BatchScratch::new();
        for (li, &seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed);
            let solo = solo(
                &sampler,
                &oracle,
                1,
                8,
                &retained,
                &cond,
                &mut rng,
                &mut solo_scratch,
            );
            assert_eq!(batched[li], solo, "lane {li} diverged");
        }
    }

    #[test]
    fn per_lane_conditioning_matches_each_lane_sampled_alone() {
        // Four differently conditioned lanes share one lock-step batch.
        // Each must equal a batch of one under its own conditioning, on
        // the full chain and on a respaced chain alike.
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 8, bits).unwrap();
        let oracle = OracleDenoiser::new(x0, 0.9);
        let sampler = Sampler::new(schedule());
        let guidance = MotifGuidance::new(crate::Motif::IsolatedCell, 2.0).unwrap();
        let lanes = [
            Conditioning::none(),
            Conditioning::none().with_frozen(frozen_checkerboard(64, 5, 20)),
            Conditioning::none()
                .with_frozen(frozen_checkerboard(64, 30, 24))
                .with_avoid(guidance),
            Conditioning::none().with_avoid(guidance),
        ];
        let per_lane: Vec<&Conditioning> = lanes.iter().collect();
        let seeds = [9100u64, 9101, 9102, 9103];
        let mut scratch = BatchScratch::new();
        let mut solo_scratch = BatchScratch::new();
        for stride in [1usize, 7] {
            let retained = sampler.strided_steps(stride);
            let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            let batched = sampler.sample_lanes_with(
                &oracle,
                1,
                8,
                &retained,
                &per_lane,
                &mut rngs,
                &mut scratch,
            );
            for (li, (&seed, cond)) in seeds.iter().zip(&lanes).enumerate() {
                let alone = solo(
                    &sampler,
                    &oracle,
                    1,
                    8,
                    &retained,
                    cond,
                    &mut StdRng::seed_from_u64(seed),
                    &mut solo_scratch,
                );
                assert_eq!(batched[li], alone, "stride {stride} lane {li} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one conditioning per lane RNG")]
    fn per_lane_entry_rejects_a_conditioning_slice_of_the_wrong_length() {
        let sampler = Sampler::new(schedule());
        let none = Conditioning::none();
        let mut rngs: Vec<StdRng> = (0..3).map(StdRng::seed_from_u64).collect();
        let _ = sampler.sample_lanes_with(
            &UniformDenoiser::new(),
            1,
            4,
            &sampler.strided_steps(10),
            &[&none, &none],
            &mut rngs,
            &mut BatchScratch::new(),
        );
    }

    #[test]
    fn guidance_suppresses_isolated_cells() {
        // An oracle that believes in a field of isolated single-cell dots:
        // unguided sampling reproduces most of them; isolated-cell
        // guidance sees each dot's logit against a firmly-empty
        // neighbourhood and pushes it down.
        let sampler = Sampler::new(schedule());
        let dot = |n: usize, m: usize| n % 4 == 1 && m % 4 == 1;
        let bits: Vec<bool> = (0..256).map(|i| dot(i % 16, i / 16)).collect();
        let x0 = DeepSquishTensor::from_bits(1, 16, bits).unwrap();
        let oracle = OracleDenoiser::new(x0, 0.9);
        let retained = sampler.strided_steps(1);
        let dots_present = |t: &DeepSquishTensor| -> usize {
            (0..256)
                .filter(|&i| dot(i % 16, i / 16) && t.bits()[i])
                .count()
        };
        let cond = Conditioning::none()
            .with_avoid(MotifGuidance::new(crate::Motif::IsolatedCell, 6.0).unwrap());
        let mut scratch = BatchScratch::new();
        let (mut plain, mut guided) = (0usize, 0usize);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = solo(
                &sampler,
                &oracle,
                1,
                16,
                &retained,
                &Conditioning::none(),
                &mut rng,
                &mut scratch,
            );
            plain += dots_present(&t);
            let mut rng = StdRng::seed_from_u64(seed);
            let t = solo(
                &sampler,
                &oracle,
                1,
                16,
                &retained,
                &cond,
                &mut rng,
                &mut scratch,
            );
            guided += dots_present(&t);
        }
        assert!(
            guided * 2 < plain,
            "guidance did not suppress isolated dots: {guided} vs {plain}"
        );
    }

    #[test]
    #[should_panic(expected = "does not span")]
    fn conditioned_core_rejects_wrong_mask_shape() {
        let sampler = Sampler::new(schedule());
        let d = UniformDenoiser::new();
        let cond = Conditioning::none().with_frozen(frozen_checkerboard(32, 0, 8));
        let retained = sampler.strided_steps(10);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = solo(
            &sampler,
            &d,
            1,
            8, // 64 entries, mask has 32
            &retained,
            &cond,
            &mut rng,
            &mut BatchScratch::new(),
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn frozen_bits_survive_every_offset_and_seed(
            offset in 0usize..64,
            span in 1usize..32,
            seed in proptest::prelude::any::<u64>(),
            stride in 0usize..12,
        ) {
            // The inpainting contract, at every mask offset: output bits
            // under the mask equal the frozen input bits, for all seeds,
            // full-chain and respaced alike.
            let sampler = Sampler::new(NoiseSchedule::linear(24, 0.02, 0.5).unwrap());
            let d = UniformDenoiser::new();
            let span = span.min(64 - offset);
            let region = frozen_checkerboard(64, offset, span);
            let cond = Conditioning::none().with_frozen(region.clone());
            let retained = sampler.strided_steps(stride);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = solo(
                &sampler, &d, 1, 8, &retained, &cond, &mut rng, &mut BatchScratch::new(),
            );
            for (i, &frozen) in region.mask().iter().enumerate() {
                if frozen {
                    proptest::prop_assert_eq!(out.bits()[i], region.bits()[i]);
                }
            }
        }
    }

    #[test]
    fn noise_dominates_early_denoising_late() {
        // With a confident oracle, the state at a late snapshot (small k)
        // must be closer to x0 than the initial noise was.
        let mut rng = StdRng::seed_from_u64(4);
        let bits: Vec<bool> = (0..256).map(|i| i % 5 == 0).collect();
        let x0 = DeepSquishTensor::from_bits(1, 16, bits).unwrap();
        let oracle = OracleDenoiser::new(x0.clone(), 0.999);
        let sampler = Sampler::new(schedule());
        let trace = sampler.sample_with_trace(&oracle, 1, 16, &[5], &mut rng);
        let dist = |t: &DeepSquishTensor| -> usize {
            t.bits()
                .iter()
                .zip(x0.bits())
                .filter(|(a, b)| a != b)
                .count()
        };
        let initial = dist(&trace.snapshots[0].1);
        let late = dist(&trace.snapshots[1].1);
        assert!(
            late < initial / 4,
            "late {late} should be far below initial {initial}"
        );
    }
}
