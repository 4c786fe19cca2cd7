use crate::Tensor;
use rand::Rng;

/// Inverted dropout (the paper trains with dropout rate 0.1, §IV-A).
///
/// During training each activation is zeroed with probability `rate` and
/// survivors are scaled by `1/(1-rate)` so the expected activation is
/// unchanged; during evaluation the layer is the identity. The layer is
/// *off* (evaluation mode) by default so inference code cannot
/// accidentally sample a stochastic network.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    training: bool,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with the given drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1)`.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        Dropout {
            rate,
            training: false,
            mask: None,
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Switches between training (stochastic) and evaluation (identity)
    /// behaviour.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// `true` when in training mode.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Forward pass. In training mode a fresh mask is drawn from `rng`.
    pub fn forward(&mut self, x: &Tensor, rng: &mut impl Rng) -> Tensor {
        if !self.training || self.rate == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(x.shape());
        for m in mask.data_mut() {
            *m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
        }
        let out = elementwise_mul(x, &mask);
        self.mask = Some(mask);
        out
    }

    /// Backward pass: applies the cached mask, consuming it (identity in
    /// eval mode).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => elementwise_mul(grad_out, &mask),
            None => grad_out.clone(),
        }
    }
}

fn elementwise_mul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "shape mismatch");
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x * y).collect();
    Tensor::from_vec(a.shape(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut d = Dropout::new(0.5);
        let x = Tensor::randn(&[32], 1.0, &mut rng);
        let y = d.forward(&x, &mut rng);
        assert_eq!(y, x);
        let g = d.backward(&x);
        assert_eq!(g, x);
    }

    #[test]
    fn training_mode_zeroes_and_scales() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut d = Dropout::new(0.5);
        d.set_training(true);
        let x = Tensor::full(&[10_000], 1.0);
        let y = d.forward(&x, &mut rng);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "drop fraction {frac}");
        // Survivors are scaled by 2.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expectation preserved.
        assert!((y.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut d = Dropout::new(0.3);
        d.set_training(true);
        let x = Tensor::full(&[64], 1.0);
        let y = d.forward(&x, &mut rng);
        let g = d.backward(&Tensor::full(&[64], 1.0));
        // Gradient is zero exactly where the output was zero.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn zero_rate_is_identity_even_in_training() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut d = Dropout::new(0.0);
        d.set_training(true);
        let x = Tensor::randn(&[8], 1.0, &mut rng);
        assert_eq!(d.forward(&x, &mut rng), x);
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn rejects_rate_one() {
        let _ = Dropout::new(1.0);
    }
}
