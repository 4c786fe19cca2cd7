use crate::{Param, Tensor};

/// Adam hyper-parameters (defaults follow the paper's training setup:
/// learning rate 2e-4, gradient clip 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// Global-norm gradient clip; `None` disables clipping.
    pub grad_clip: Option<f32>,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 2e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: Some(1.0),
        }
    }
}

/// The Adam optimizer with optional global-norm gradient clipping.
///
/// Moment buffers are kept inside the optimizer, keyed by parameter order,
/// so the same `Adam` instance must always be stepped with the same
/// parameter list (which [`crate::UNet::params_mut`] guarantees by
/// returning parameters in a stable order).
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimizer.
    pub fn new(config: AdamConfig) -> Self {
        Adam {
            config,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Applies one update to `params` using their accumulated gradients,
    /// then zeroes the gradients.
    ///
    /// # Panics
    ///
    /// Panics when the parameter list changes shape between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter list changed");

        // Global-norm clipping across all parameters.
        if let Some(clip) = self.config.grad_clip {
            let norm_sq: f32 = params
                .iter()
                .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
                .sum();
            let norm = norm_sq.sqrt();
            if norm > clip {
                let scale = clip / norm;
                for p in params.iter_mut() {
                    for g in p.grad.data_mut() {
                        *g *= scale;
                    }
                }
            }
        }

        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.config.beta1.powf(t);
        let bc2 = 1.0 - self.config.beta2.powf(t);

        let AdamConfig {
            lr,
            beta1,
            beta2,
            eps,
            ..
        } = self.config;
        for (i, p) in params.iter_mut().enumerate() {
            assert_eq!(
                self.m[i].shape(),
                p.value.shape(),
                "parameter {i} changed shape"
            );
            let moments = self.m[i].data_mut().iter_mut().zip(self.v[i].data_mut());
            // Update the moments and apply the step in one pass.
            for ((value, &g), (m, v)) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(moments)
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *value -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimising f(x) = x^2 with Adam should converge to 0.
    #[test]
    fn converges_on_quadratic() {
        let mut p = Param::new(Tensor::full(&[1], 5.0));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.1,
            grad_clip: None,
            ..AdamConfig::default()
        });
        for _ in 0..500 {
            let x = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * x;
            adam.step(&mut [&mut p]);
        }
        assert!(p.value.data()[0].abs() < 1e-2, "{}", p.value.data()[0]);
    }

    #[test]
    fn gradient_is_zeroed_after_step() {
        let mut p = Param::new(Tensor::full(&[3], 1.0));
        for g in p.grad.data_mut() {
            *g = 1.0;
        }
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(&mut [&mut p]);
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
        assert_eq!(adam.steps_taken(), 1);
    }

    #[test]
    fn clipping_bounds_the_step() {
        let mut p = Param::new(Tensor::full(&[1], 0.0));
        p.grad.data_mut()[0] = 1e6;
        let mut adam = Adam::new(AdamConfig {
            lr: 1.0,
            grad_clip: Some(1.0),
            ..AdamConfig::default()
        });
        adam.step(&mut [&mut p]);
        // First Adam step with bias correction moves by ~lr regardless, but
        // clipping must have prevented inf/nan.
        assert!(p.value.data()[0].is_finite());
    }

    /// The two-pass update this optimizer used to run (moments and a
    /// per-parameter `updates` buffer first, then the subtraction), kept
    /// as the bit-exact reference. `m`/`v` are its own moment buffers.
    fn reference_step(
        config: &AdamConfig,
        step: u64,
        m: &mut [Vec<f32>],
        v: &mut [Vec<f32>],
        params: &mut [Param],
    ) {
        if let Some(clip) = config.grad_clip {
            let norm_sq: f32 = params
                .iter()
                .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
                .sum();
            let norm = norm_sq.sqrt();
            if norm > clip {
                let scale = clip / norm;
                for p in params.iter_mut() {
                    for g in p.grad.data_mut() {
                        *g *= scale;
                    }
                }
            }
        }
        let t = step as f32;
        let bc1 = 1.0 - config.beta1.powf(t);
        let bc2 = 1.0 - config.beta2.powf(t);
        for (i, p) in params.iter_mut().enumerate() {
            let grads = p.grad.data();
            let mut updates = vec![0.0f32; grads.len()];
            for (j, &g) in grads.iter().enumerate() {
                m[i][j] = config.beta1 * m[i][j] + (1.0 - config.beta1) * g;
                v[i][j] = config.beta2 * v[i][j] + (1.0 - config.beta2) * g * g;
                let m_hat = m[i][j] / bc1;
                let v_hat = v[i][j] / bc2;
                updates[j] = config.lr * m_hat / (v_hat.sqrt() + config.eps);
            }
            for (value, u) in p.value.data_mut().iter_mut().zip(&updates) {
                *value -= u;
            }
            p.zero_grad();
        }
    }

    #[test]
    fn single_pass_step_is_bit_identical_to_two_pass_reference() {
        use rand::SeedableRng;
        let bits = |p: &Param| {
            p.value
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        // Clip 0.5 binds (random gradients have norm ~ 10), 1e9 never
        // does, `None` skips the norm entirely.
        for grad_clip in [Some(0.5), Some(1e9), None] {
            let config = AdamConfig {
                lr: 1e-2,
                grad_clip,
                ..AdamConfig::default()
            };
            let shapes: [&[usize]; 3] = [&[3, 5], &[7], &[2, 2, 3, 3]];
            let mut live: Vec<Param> = shapes
                .iter()
                .map(|s| Param::new(Tensor::randn(s, 1.0, &mut rng)))
                .collect();
            let mut reference = live.clone();
            let mut m: Vec<Vec<f32>> = live.iter().map(|p| vec![0.0; p.len()]).collect();
            let mut v = m.clone();
            let mut adam = Adam::new(config);
            for step in 1..=5u64 {
                for (p, r) in live.iter_mut().zip(reference.iter_mut()) {
                    p.grad = Tensor::randn(p.value.shape(), 2.0, &mut rng);
                    r.grad = p.grad.clone();
                }
                adam.step(&mut live.iter_mut().collect::<Vec<_>>());
                reference_step(&config, step, &mut m, &mut v, &mut reference);
                for (p, r) in live.iter().zip(&reference) {
                    assert_eq!(bits(p), bits(r), "clip {grad_clip:?} step {step}");
                }
            }
        }
    }

    #[test]
    fn multi_param_moments_are_independent() {
        let mut a = Param::new(Tensor::full(&[1], 1.0));
        let mut b = Param::new(Tensor::full(&[2], 1.0));
        let mut adam = Adam::new(AdamConfig {
            lr: 0.01,
            grad_clip: None,
            ..AdamConfig::default()
        });
        a.grad.data_mut()[0] = 1.0;
        // b has zero grad: must not move.
        adam.step(&mut [&mut a, &mut b]);
        assert!(a.value.data()[0] < 1.0);
        assert!(b.value.data().iter().all(|&v| v == 1.0));
    }
}
