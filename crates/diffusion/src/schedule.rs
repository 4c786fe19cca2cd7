use crate::DiffusionError;
use dp_squish::DeepSquishTensor;
use rand::Rng;

/// The β noise schedule and its cumulative products (paper Eq. 7–8, 10).
///
/// For a binary state space the doubly-stochastic transition matrix
///
/// ```text
/// Q_k = [ 1-β_k   β_k  ]
///       [ β_k    1-β_k ]
/// ```
///
/// is fully described by its *flip probability* β_k, and the cumulative
/// product `Q̄_k = Q_1 … Q_k` stays in the same family with flip probability
/// `b̄_k` following the recurrence `b̄_k = b̄_{k-1}(1-β_k) + (1-b̄_{k-1})β_k`.
/// This is what makes the deep-squish binary representation so convenient:
/// the whole forward process is one Bernoulli flip per entry.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSchedule {
    betas: Vec<f64>,            // betas[k-1] = β_k, k = 1..=K
    cumulative_flips: Vec<f64>, // cumulative_flips[k] = b̄_k, index 0 = 0.0
}

impl NoiseSchedule {
    /// Linearly increasing schedule from `beta1` to `beta_k` over `steps`
    /// steps (paper Eq. 8; the paper uses K = 1000, β: 0.01 → 0.5).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::BadSchedule`] when `steps == 0` or either β
    /// is outside `(0, 1)`.
    pub fn linear(steps: usize, beta1: f64, beta_k: f64) -> Result<Self, DiffusionError> {
        if steps == 0
            || !(0.0..1.0).contains(&beta1)
            || !(0.0..1.0).contains(&beta_k)
            || beta1 <= 0.0
            || beta_k <= 0.0
        {
            return Err(DiffusionError::BadSchedule {
                steps,
                beta1,
                beta_k,
            });
        }
        let betas: Vec<f64> = (1..=steps)
            .map(|k| {
                if steps == 1 {
                    beta1
                } else {
                    (k - 1) as f64 * (beta_k - beta1) / (steps - 1) as f64 + beta1
                }
            })
            .collect();
        Ok(Self::from_betas(betas))
    }

    /// Constant schedule (used by the ablation benchmarks).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::BadSchedule`] for invalid parameters.
    pub fn constant(steps: usize, beta: f64) -> Result<Self, DiffusionError> {
        Self::linear(steps, beta, beta)
    }

    fn from_betas(betas: Vec<f64>) -> Self {
        let mut cumulative_flips = Vec::with_capacity(betas.len() + 1);
        cumulative_flips.push(0.0);
        let mut acc = 0.0f64;
        for &b in &betas {
            acc = acc * (1.0 - b) + (1.0 - acc) * b;
            cumulative_flips.push(acc);
        }
        NoiseSchedule {
            betas,
            cumulative_flips,
        }
    }

    /// Number of diffusion steps `K`.
    pub fn steps(&self) -> usize {
        self.betas.len()
    }

    /// The per-step flip probabilities `β_1..β_K` — the schedule's full
    /// description, used by [`crate::TrainedModel`] serialisation.
    pub fn betas(&self) -> &[f64] {
        &self.betas
    }

    /// Rebuilds a schedule from explicit per-step flip probabilities (the
    /// inverse of [`NoiseSchedule::betas`]).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::BadSchedule`] when `betas` is empty or any
    /// entry is outside `(0, 1)`.
    pub fn from_beta_values(betas: Vec<f64>) -> Result<Self, DiffusionError> {
        if betas.is_empty() || betas.iter().any(|&b| b <= 0.0 || b >= 1.0) {
            return Err(DiffusionError::BadSchedule {
                steps: betas.len(),
                beta1: betas.first().copied().unwrap_or(0.0),
                beta_k: betas.last().copied().unwrap_or(0.0),
            });
        }
        Ok(Self::from_betas(betas))
    }

    /// β_k, the single-step flip probability (`k` is 1-based).
    ///
    /// # Panics
    ///
    /// Panics when `k` is outside `1..=K`.
    pub fn beta(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.betas.len(), "step out of range");
        self.betas[k - 1]
    }

    /// `b̄_k`, the cumulative flip probability of `Q̄_k` (Eq. 10);
    /// `cumulative_flip(0) == 0`.
    ///
    /// # Panics
    ///
    /// Panics when `k > K`.
    pub fn cumulative_flip(&self, k: usize) -> f64 {
        assert!(k <= self.betas.len(), "step out of range");
        self.cumulative_flips[k]
    }

    /// Smallest `k` at which the marginal is within `tol` of uniform —
    /// a convergence diagnostic for Eq. 6 (used by the schedule ablation).
    pub fn mixing_step(&self, tol: f64) -> Option<usize> {
        (1..=self.steps()).find(|&k| (self.cumulative_flip(k) - 0.5).abs() < tol)
    }
}

/// Draws `x_k ~ q(x_k | x_0)` by flipping every bit of `x0` independently
/// with probability `b̄_k` (Eq. 10 specialised to the binary case).
///
/// # Panics
///
/// Panics when `k` is outside `1..=K`.
pub fn forward_sample(
    x0: &DeepSquishTensor,
    schedule: &NoiseSchedule,
    k: usize,
    rng: &mut impl Rng,
) -> DeepSquishTensor {
    assert!(k >= 1 && k <= schedule.steps(), "step out of range");
    let flip = schedule.cumulative_flip(k);
    let bits = x0
        .bits()
        .iter()
        .map(|&b| if rng.gen_bool(flip) { !b } else { b })
        .collect();
    DeepSquishTensor::from_bits(x0.channels(), x0.side(), bits)
        .expect("shape preserved by construction")
}

/// Composite flip probability of the transition `Q_{j→k} = Q_{j+1} … Q_k`
/// for `0 <= j < k <= K`: the probability that a bit at step `j` differs at
/// step `k`. Derived from the cumulative recurrence,
/// `f = (b̄_k − b̄_j) / (1 − 2·b̄_j)`.
///
/// # Panics
///
/// Panics when `j >= k` or `k > K`.
pub fn flip_between(schedule: &NoiseSchedule, j: usize, k: usize) -> f64 {
    assert!(j < k && k <= schedule.steps(), "need 0 <= j < k <= K");
    if k == j + 1 {
        // Exact single-step value; the division below loses precision as
        // b̄_j approaches 1/2.
        return schedule.beta(k);
    }
    let bj = schedule.cumulative_flip(j);
    let bk = schedule.cumulative_flip(k);
    let denom = 1.0 - 2.0 * bj;
    if denom < 1e-9 {
        // The state at step j is already (numerically) uniform; any further
        // transition keeps it uniform.
        return 0.5;
    }
    ((bk - bj) / denom).clamp(0.0, 0.5)
}

/// `q(x_j = x_k | x_k, x_0)` — the posterior probability that the state at
/// step `j < k` *equals the current state*, given whether `x_k == x_0`.
/// At `j = k − 1` this is Eq. 12 specialised to the symmetric binary
/// case (`f` is then `β_k` itself, so training's loss and the plain
/// ancestral chain use it there); a larger jump powers respaced
/// (DDIM-style, paper ref. \[12\]) sampling. With `a = b̄_j` and
/// `f = flip_between(j, k)`:
///
/// * `x_k == x_0`:  `(1-f)(1-a) / ((1-f)(1-a) + f·a)`
/// * `x_k != x_0`:  `(1-f)·a / ((1-f)·a + f·(1-a))`
///
/// # Panics
///
/// Panics when `j >= k` or `k > K`.
pub fn posterior_jump_same_prob(
    schedule: &NoiseSchedule,
    j: usize,
    k: usize,
    xk_equals_x0: bool,
) -> f64 {
    let a = schedule.cumulative_flip(j);
    let f = flip_between(schedule, j, k);
    if xk_equals_x0 {
        let num = (1.0 - f) * (1.0 - a);
        num / (num + f * a)
    } else {
        let num = (1.0 - f) * a;
        num / (num + f * (1.0 - a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn schedule() -> NoiseSchedule {
        NoiseSchedule::linear(1000, 0.01, 0.5).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(NoiseSchedule::linear(0, 0.1, 0.5).is_err());
        assert!(NoiseSchedule::linear(10, 0.0, 0.5).is_err());
        assert!(NoiseSchedule::linear(10, 0.1, 1.0).is_err());
    }

    #[test]
    fn betas_are_linear_and_increasing() {
        let s = schedule();
        assert!((s.beta(1) - 0.01).abs() < 1e-12);
        assert!((s.beta(1000) - 0.5).abs() < 1e-12);
        for k in 2..=1000 {
            assert!(s.beta(k) > s.beta(k - 1));
        }
    }

    #[test]
    fn cumulative_flip_converges_to_half() {
        // Paper Eq. 6: q(x_K | x_0) -> [0.5, 0.5].
        let s = schedule();
        assert_eq!(s.cumulative_flip(0), 0.0);
        assert!((s.cumulative_flip(1000) - 0.5).abs() < 1e-9);
        // Monotone approach to 1/2 from below.
        for k in 1..=1000 {
            assert!(s.cumulative_flip(k) <= 0.5 + 1e-12);
            assert!(s.cumulative_flip(k) >= s.cumulative_flip(k - 1) - 1e-12);
        }
    }

    #[test]
    fn mixing_step_reports_convergence() {
        let s = schedule();
        let m = s.mixing_step(1e-3).expect("converges");
        assert!(m < 1000, "should mix before the end: {m}");
        // A slower constant schedule mixes later than a hotter one.
        let cold = NoiseSchedule::constant(1000, 0.002).unwrap();
        let hot = NoiseSchedule::constant(1000, 0.05).unwrap();
        let mc = cold.mixing_step(1e-3).unwrap_or(usize::MAX);
        let mh = hot.mixing_step(1e-3).unwrap();
        assert!(mh < mc);
    }

    #[test]
    fn single_step_schedule() {
        let s = NoiseSchedule::linear(1, 0.3, 0.9).unwrap();
        assert_eq!(s.steps(), 1);
        assert!((s.beta(1) - 0.3).abs() < 1e-12);
        assert!((s.cumulative_flip(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn forward_sample_statistics() {
        let s = schedule();
        let x0 = DeepSquishTensor::from_bits(1, 16, vec![true; 256]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        // Early step: few flips. Late step: about half.
        let early = forward_sample(&x0, &s, 10, &mut rng);
        let late = forward_sample(&x0, &s, 1000, &mut rng);
        let flips_early = early.bits().iter().filter(|&&b| !b).count();
        let flips_late = late.bits().iter().filter(|&&b| !b).count();
        assert!(flips_early < 40, "early flips {flips_early}");
        assert!(
            (flips_late as f64 - 128.0).abs() < 40.0,
            "late flips {flips_late}"
        );
    }

    #[test]
    fn posterior_probabilities_are_normalised_bayes() {
        // Validate Eq. 12 against brute-force Bayes on the 2-state chain.
        let s = NoiseSchedule::linear(50, 0.02, 0.4).unwrap();
        for k in [1usize, 2, 10, 50] {
            let a = s.cumulative_flip(k - 1);
            let b = s.beta(k);
            // Brute force: states 0/1, x0 = 0.
            // P(x_{k-1} = m | x0=0) = a if m==1 else 1-a.
            // P(x_k = j | x_{k-1} = m) = b if j!=m else 1-b.
            for j in [0usize, 1] {
                let joint_m0 = (1.0 - a) * if j == 0 { 1.0 - b } else { b };
                let joint_m1 = a * if j == 1 { 1.0 - b } else { b };
                let brute_same = if j == 0 {
                    joint_m0 / (joint_m0 + joint_m1)
                } else {
                    joint_m1 / (joint_m0 + joint_m1)
                };
                let ours = posterior_jump_same_prob(&s, k - 1, k, j == 0);
                assert!(
                    (ours - brute_same).abs() < 1e-12,
                    "k={k} j={j}: {ours} vs {brute_same}"
                );
            }
        }
    }

    #[test]
    fn reverse_step_with_perfect_knowledge_denoises() {
        // A certain belief collapses Eq. 11's mixture onto one Eq. 12
        // coefficient. If the model is certain x0 == xk, the reverse step
        // should strongly prefer keeping the state (for small a).
        let s = schedule();
        let keep = posterior_jump_same_prob(&s, 1, 2, true);
        assert!(keep > 0.95, "{keep}");
        // If the model is certain x0 != xk at the last step, it should be
        // likely to move away.
        let keep = posterior_jump_same_prob(&s, 999, 1000, false);
        assert!(keep < 0.6, "{keep}");
    }

    #[test]
    fn jump_posterior_reduces_to_single_step() {
        // At j = k - 1 the jump posterior is Eq. 12's single-step
        // expression bit for bit; trained model bytes rely on it.
        let s = NoiseSchedule::linear(100, 0.01, 0.5).unwrap();
        for k in [1usize, 5, 50, 100] {
            let a = s.cumulative_flip(k - 1);
            let b = s.beta(k);
            let eq = (1.0 - b) * (1.0 - a);
            let ne = (1.0 - b) * a;
            assert_eq!(
                posterior_jump_same_prob(&s, k - 1, k, true),
                eq / (eq + b * a)
            );
            assert_eq!(
                posterior_jump_same_prob(&s, k - 1, k, false),
                ne / (ne + b * (1.0 - a))
            );
        }
    }

    #[test]
    fn flip_between_composes() {
        // Flipping j->m then m->k equals flipping j->k.
        let s = NoiseSchedule::linear(100, 0.01, 0.5).unwrap();
        let (j, m, k) = (10usize, 40, 90);
        let f1 = flip_between(&s, j, m);
        let f2 = flip_between(&s, m, k);
        let composed = f1 * (1.0 - f2) + (1.0 - f1) * f2;
        assert!((composed - flip_between(&s, j, k)).abs() < 1e-12);
    }

    #[test]
    fn flip_from_zero_is_cumulative() {
        let s = NoiseSchedule::linear(100, 0.01, 0.5).unwrap();
        for k in [1usize, 10, 100] {
            assert!((flip_between(&s, 0, k) - s.cumulative_flip(k)).abs() < 1e-15);
        }
    }

    proptest! {
        #[test]
        fn reverse_prob_is_convex_mixture(
            k in 1usize..=100, p in 0.0f64..=1.0, seed in any::<u64>()
        ) {
            // Eq. 11 draws once per entry: where a stream seeded alike keeps
            // (or flips) an entry at both Eq. 12 coefficients, so must the mixture.
            let s = NoiseSchedule::linear(100, 0.01, 0.5).unwrap();
            let [eq, ne] = [true, false].map(|same| posterior_jump_same_prob(&s, k / 2, k, same));
            let rng = || rand::rngs::StdRng::seed_from_u64(seed);
            let mut bits: [bool; 64] = std::array::from_fn(|i| i % 2 == 0);
            crate::reverse_update_in_place(eq, ne, &mut bits, &[p; 64], &mut rng());
            let (mut at_eq, mut at_ne) = (rng(), rng());
            for (i, b) in bits.into_iter().enumerate() {
                let (e, n) = (at_eq.gen_bool(eq), at_ne.gen_bool(ne));
                prop_assert!(e != n || (b == (i % 2 == 0)) == e, "eq {eq} ne {ne} p {p}");
            }
        }

        #[test]
        fn cumulative_flip_recurrence(k in 1usize..=200) {
            let s = NoiseSchedule::linear(200, 0.01, 0.5).unwrap();
            let a = s.cumulative_flip(k - 1);
            let b = s.beta(k);
            let expected = a * (1.0 - b) + (1.0 - a) * b;
            prop_assert!((s.cumulative_flip(k) - expected).abs() < 1e-12);
        }
    }
}
