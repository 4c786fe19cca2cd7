//! The variational-bound training loss (paper Eq. 9) and its exact gradient
//! with respect to the network logits.
//!
//! Per entry, the network outputs two logits — one per state of
//! `x̃_0 ∈ {0, 1}` — and the loss is
//!
//! ```text
//! L = D_KL( q(x_{k-1} | x_k, x_0) ‖ p_θ(x_{k-1} | x_k) ) − λ·log p_θ(x_0 | x_k)
//! ```
//!
//! with the KL term replaced by the reconstruction term
//! `−log p_θ(x_0 | x_1)` at `k = 1` (paper Eq. 3, last term). Both the KL
//! and the mixture `p_θ(x_{k-1}|x_k)` have closed forms in the binary state
//! space, so the gradient with respect to the logits is computed exactly —
//! no stochastic estimator is needed.

use crate::schedule::{posterior_jump_same_prob, NoiseSchedule};
use dp_nn::Tensor;
use dp_squish::DeepSquishTensor;

/// Numerical floor for probabilities inside logs and denominators.
const P_EPS: f64 = 1e-7;

/// Loss summary for one mini-batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossReport {
    /// Mean total loss per entry.
    pub total: f64,
    /// Mean KL term per entry (zero contribution at `k = 1`).
    pub kl: f64,
    /// Mean auxiliary cross-entropy per entry.
    pub ce: f64,
}

/// Computes the batch loss and the gradient with respect to `logits`.
///
/// `logits` has shape `(n, 2*C, M, M)`: channel `c < C` is the state-1
/// logit of squish channel `c`, channel `C + c` the state-0 logit.
/// Entries of `ks` are 1-based diffusion steps per batch item.
///
/// Returns the report and a gradient tensor shaped like `logits`,
/// normalised by the total entry count (so learning rates transfer across
/// tensor sizes).
///
/// # Panics
///
/// Panics when shapes disagree or a step index is out of range.
pub fn vb_loss_and_grad(
    x0s: &[DeepSquishTensor],
    xks: &[DeepSquishTensor],
    ks: &[usize],
    logits: &Tensor,
    schedule: &NoiseSchedule,
    lambda: f64,
) -> (LossReport, Tensor) {
    let n = x0s.len();
    assert_eq!(n, xks.len(), "batch size mismatch");
    assert_eq!(n, ks.len(), "batch size mismatch");
    assert!(n > 0, "empty batch");
    let c = x0s[0].channels();
    let side = x0s[0].side();
    assert_eq!(logits.shape(), &[n, 2 * c, side, side], "logit shape");

    let mut grad = Tensor::zeros(logits.shape());
    let entries = (n * c * side * side) as f64;
    let mut total = 0.0f64;
    let mut total_kl = 0.0f64;
    let mut total_ce = 0.0f64;

    for (ni, ((x0, xk), &k)) in x0s.iter().zip(xks).zip(ks).enumerate() {
        assert!(
            k >= 1 && k <= schedule.steps(),
            "step {k} outside 1..={}",
            schedule.steps()
        );
        assert_eq!((x0.channels(), x0.side()), (c, side), "x0 shape");
        assert_eq!((xk.channels(), xk.side()), (c, side), "xk shape");
        let ps_eq = posterior_jump_same_prob(schedule, k - 1, k, true);
        let ps_ne = posterior_jump_same_prob(schedule, k - 1, k, false);
        for ci in 0..c {
            for m in 0..side {
                for nn in 0..side {
                    let b0 = x0.get(ci, nn, m);
                    let bk = xk.get(ci, nn, m);
                    let l1 = logits.at4(ni, ci, m, nn) as f64;
                    let l0 = logits.at4(ni, c + ci, m, nn) as f64;
                    // s1 = p_θ(x̃0 = 1 | x_k) via a stable 2-way softmax.
                    let s1 = sigmoid(l1 - l0).clamp(P_EPS, 1.0 - P_EPS);
                    let s0 = 1.0 - s1;

                    // Probability the model assigns to x̃0 == xk.
                    let p_match = if bk { s1 } else { s0 };
                    // Mixture probability of keeping the state (Eq. 11).
                    let p_same =
                        (p_match * ps_eq + (1.0 - p_match) * ps_ne).clamp(P_EPS, 1.0 - P_EPS);
                    // True posterior keep-probability (Eq. 12).
                    let q_same = if bk == b0 { ps_eq } else { ps_ne };

                    // Cross-entropy on x0.
                    let s_true = if b0 { s1 } else { s0 };
                    let ce = -s_true.ln();

                    let (kl, d_dp_same) = if k == 1 {
                        (0.0, 0.0)
                    } else {
                        let kl = q_same * (q_same / p_same).ln()
                            + (1.0 - q_same) * ((1.0 - q_same) / (1.0 - p_same)).ln();
                        let d = -q_same / p_same + (1.0 - q_same) / (1.0 - p_same);
                        (kl, d)
                    };
                    let base = if k == 1 { ce } else { kl };
                    total += base + lambda * ce;
                    total_kl += kl;
                    total_ce += ce;

                    // Gradient wrt s1.
                    // dp_same/ds1: p_match is s1 when bk else s0.
                    let dp_match_ds1 = if bk { 1.0 } else { -1.0 };
                    let dp_same_ds1 = dp_match_ds1 * (ps_eq - ps_ne);
                    let dce_ds1 = if b0 { -1.0 / s1 } else { 1.0 / s0 };
                    let dl_ds1 = if k == 1 {
                        (1.0 + lambda) * dce_ds1
                    } else {
                        d_dp_same * dp_same_ds1 + lambda * dce_ds1
                    };
                    // s1 = σ(l1 - l0): ds1/dl1 = s1 s0, ds1/dl0 = -s1 s0.
                    let dl_dl1 = dl_ds1 * s1 * s0 / entries;
                    let g1 = grad.at4(ni, ci, m, nn) + dl_dl1 as f32;
                    grad.set4(ni, ci, m, nn, g1);
                    let g0 = grad.at4(ni, c + ci, m, nn) - dl_dl1 as f32;
                    grad.set4(ni, c + ci, m, nn, g0);
                }
            }
        }
    }

    (
        LossReport {
            total: total / entries,
            kl: total_kl / entries,
            ce: total_ce / entries,
        },
        grad,
    )
}

/// Appends per-entry `p_θ(x̃0 = 1 | x_k)` of batch item `ni` to `out`,
/// extracted from a logit tensor (same layout as [`vb_loss_and_grad`]).
/// The batched sampling path concatenates every lane's probabilities into
/// one buffer with repeated calls.
///
/// # Panics
///
/// Panics when the tensor is not `(n, 2C, M, M)` or `ni` is out of range.
pub fn p1_of_logits_append(logits: &Tensor, ni: usize, channels: usize, out: &mut Vec<f64>) {
    let side = logits.shape()[2];
    assert_eq!(logits.shape()[1], 2 * channels, "logit channel layout");
    let hw = side * side;
    out.reserve(channels * hw);
    let base = ni * 2 * channels * hw;
    for ci in 0..channels {
        let ones = &logits.data()[base + ci * hw..base + (ci + 1) * hw];
        let zeros = &logits.data()[base + (channels + ci) * hw..base + (channels + ci + 1) * hw];
        for (&l1, &l0) in ones.iter().zip(zeros) {
            out.push(sigmoid(l1 as f64 - l0 as f64));
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)] // explicit clones read clearer in these fixtures
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_bits(rng: &mut impl Rng, c: usize, side: usize) -> DeepSquishTensor {
        let bits = (0..c * side * side).map(|_| rng.gen_bool(0.5)).collect();
        DeepSquishTensor::from_bits(c, side, bits).unwrap()
    }

    fn schedule() -> NoiseSchedule {
        NoiseSchedule::linear(100, 0.01, 0.5).unwrap()
    }

    #[test]
    fn perfect_prediction_minimises_loss() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = schedule();
        let x0 = random_bits(&mut rng, 1, 4);
        let xk = crate::forward_sample(&x0, &s, 50, &mut rng);

        // Logits that put all mass on the true x0.
        let mut good = Tensor::zeros(&[1, 2, 4, 4]);
        let mut bad = Tensor::zeros(&[1, 2, 4, 4]);
        for m in 0..4 {
            for nn in 0..4 {
                let b = x0.get(0, nn, m);
                good.set4(0, 0, m, nn, if b { 8.0 } else { -8.0 });
                good.set4(0, 1, m, nn, if b { -8.0 } else { 8.0 });
                bad.set4(0, 0, m, nn, if b { -8.0 } else { 8.0 });
                bad.set4(0, 1, m, nn, if b { 8.0 } else { -8.0 });
            }
        }
        let (lg, _) = vb_loss_and_grad(&[x0.clone()], &[xk.clone()], &[50], &good, &s, 0.001);
        let (lb, _) = vb_loss_and_grad(&[x0], &[xk], &[50], &bad, &s, 0.001);
        assert!(lg.total < lb.total, "good {lg:?} bad {lb:?}");
        // Perfect prediction drives the KL near zero (the posterior is then
        // matched exactly).
        assert!(lg.kl < 1e-3, "{}", lg.kl);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = schedule();
        let x0 = random_bits(&mut rng, 4, 3);
        let xk = crate::forward_sample(&x0, &s, 30, &mut rng);
        let logits = Tensor::randn(&[1, 8, 3, 3], 1.0, &mut rng);
        let (_, grad) = vb_loss_and_grad(&[x0.clone()], &[xk.clone()], &[30], &logits, &s, 0.001);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = vb_loss_and_grad(&[x0.clone()], &[xk.clone()], &[30], &plus, &s, 0.001);
            let (lm, _) = vb_loss_and_grad(&[x0.clone()], &[xk.clone()], &[30], &minus, &s, 0.001);
            // Total in the report is already normalised per entry, as is the
            // gradient.
            let numeric = (lp.total - lm.total) / (2.0 * eps as f64);
            let analytic = grad.data()[i] as f64;
            assert!(
                (numeric - analytic).abs() < 1e-4,
                "entry {i}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn k1_uses_reconstruction_term() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let s = schedule();
        let x0 = random_bits(&mut rng, 1, 2);
        let x1 = crate::forward_sample(&x0, &s, 1, &mut rng);
        let logits = Tensor::randn(&[1, 2, 2, 2], 1.0, &mut rng);
        let (report, _) = vb_loss_and_grad(&[x0], &[x1], &[1], &logits, &s, 0.5);
        assert_eq!(report.kl, 0.0);
        // total = (1 + λ) * ce at k=1.
        assert!((report.total - 1.5 * report.ce).abs() < 1e-9);
    }

    #[test]
    fn p1_layout_round_trip() {
        let mut logits = Tensor::zeros(&[1, 2, 2, 2]);
        logits.set4(0, 0, 0, 0, 5.0); // state-1 logit high at (m=0, n=0)
        logits.set4(0, 1, 1, 1, 5.0); // state-0 logit high at (m=1, n=1)
        let mut p1 = Vec::new();
        p1_of_logits_append(&logits, 0, 1, &mut p1);
        assert!(p1[0] > 0.99); // entry (n=0, m=0)
        assert!(p1[3] < 0.01); // entry (n=1, m=1)
        assert!((p1[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn out_of_range_step_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = schedule();
        let x0 = random_bits(&mut rng, 1, 2);
        let logits = Tensor::zeros(&[1, 2, 2, 2]);
        let _ = vb_loss_and_grad(&[x0.clone()], &[x0], &[0], &logits, &s, 0.1);
    }
}
