use crate::gemm::{
    gemm_packed, matmul, pack_a_into, packed_len, transpose, transpose_into, Epilogue,
};
use crate::{Param, Tensor, Workspace};
use rand::Rng;

/// A fully connected layer `y = x W^T + b` over 2-D inputs `(batch, in)`.
///
/// Used for time-embedding MLPs and the per-residual-block time projection
/// (paper §IV-A: the step index enters each residual block through a
/// sinusoidal embedding followed by learned projections).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight of shape `(out, in)`.
    pub weight: Param,
    /// Bias of shape `(out,)`.
    pub bias: Param,
    cache_input: Option<Tensor>,
    /// Pre-transposed weight `(in, out)`, populated by [`Linear::prepack`]
    /// once the weights are frozen; `None` while training.
    packed_wt: Option<Vec<f32>>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform-like normal init.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        Linear {
            weight: Param::new(Tensor::randn(&[out_features, in_features], std, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cache_input: None,
            packed_wt: None,
        }
    }

    /// Precomputes the transposed weight `(in, out)` so every subsequent
    /// [`Linear::infer`] call skips the per-call transpose.
    ///
    /// Intended for frozen/trained models; a later [`Linear::forward`]
    /// call (resumed training) discards the packed copy so the training
    /// path always computes from the live weights — but mutating
    /// [`Linear::weight`] directly and then calling `infer` leaves the
    /// packed copy stale (re-run `prepack` after by-hand weight edits).
    pub fn prepack(&mut self) {
        let (inf, outf) = (self.in_features(), self.out_features());
        let mut wt = vec![0.0f32; inf * outf];
        transpose_into(self.weight.value.data(), outf, inf, &mut wt);
        self.packed_wt = Some(wt);
    }

    /// `true` once [`Linear::prepack`] has run.
    pub fn is_prepacked(&self) -> bool {
        self.packed_wt.is_some()
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Forward pass over `(batch, in)` input (training mode: caches the
    /// input for `backward`).
    ///
    /// # Panics
    ///
    /// Panics when the input is not 2-D with matching feature count.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        // Training mutates the weights, so any prepacked copy is about to
        // go stale — drop it and compute from the live weights.
        self.packed_wt = None;
        self.cache_input = Some(x.clone());
        self.infer(x, &mut Workspace::new())
    }

    /// Inference forward pass from a shared reference: identical
    /// arithmetic to [`Linear::forward`] (bit-equal outputs) with no
    /// caching; scratch memory comes from `ws`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Linear::forward`].
    pub fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.infer_impl(x, ws, false)
    }

    /// Linear layer with SiLU fused into the GEMM epilogue:
    /// bit-identical to [`Linear::infer`] + [`crate::silu_in_place`] (the
    /// biased accumulator value is the same f32 the activation reads),
    /// without the extra pass — the time-embedding MLP's hidden layer.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Linear::forward`].
    pub fn infer_silu(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.infer_impl(x, ws, true)
    }

    fn infer_impl(&self, x: &Tensor, ws: &mut Workspace, fuse_silu: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear expects 2-D input");
        assert_eq!(x.shape()[1], self.in_features(), "feature mismatch");
        let (batch, inf, outf) = (x.shape()[0], self.in_features(), self.out_features());

        let fresh_wt = match &self.packed_wt {
            Some(_) => None,
            None => {
                let mut wt = ws.take_uninit(&[inf, outf]);
                transpose_into(self.weight.value.data(), outf, inf, wt.data_mut());
                Some(wt)
            }
        };
        let wt: &[f32] = match (&self.packed_wt, &fresh_wt) {
            (Some(p), _) => p,
            (None, Some(t)) => t.data(),
            (None, None) => unreachable!(),
        };

        let mut panel = ws.take_uninit(&[packed_len(batch, inf)]);
        pack_a_into(x.data(), batch, inf, panel.data_mut());
        let mut y = ws.take_uninit(&[batch, outf]);
        let bias = self.bias.value.data();
        let epilogue = if fuse_silu {
            Epilogue::BiasSiluPerCol(bias)
        } else {
            Epilogue::BiasPerCol(bias)
        };
        gemm_packed(panel.data(), wt, y.data_mut(), batch, inf, outf, epilogue);
        ws.recycle(panel);
        if let Some(t) = fresh_wt {
            ws.recycle(t);
        }
        y
    }

    /// Backward pass: accumulates parameter gradients, returns grad wrt
    /// input.
    ///
    /// # Panics
    ///
    /// Panics with "backward before forward" unless a `forward` ran since
    /// the last `backward` (this consumes the cache), or on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache_input.take().expect("backward before forward");
        assert_eq!(grad_out.shape()[0], x.shape()[0], "batch mismatch");
        assert_eq!(grad_out.shape()[1], self.out_features(), "feature mismatch");

        // dW = grad_out^T x ; db = column sums of grad_out.
        let gw = matmul(&transpose(grad_out), &x);
        self.weight.grad.add_assign(&gw);
        let out = self.out_features();
        for row in grad_out.data().chunks(out) {
            for (g, &v) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *g += v;
            }
        }
        // dx = grad_out W
        matmul(grad_out, &self.weight.value)
    }

    /// Mutable access to the parameters, in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Shared access to the parameters, in the same stable order as
    /// [`Linear::params_mut`].
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, finite_diff};
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut layer = Linear::new(3, 5, &mut rng);
        for b in layer.bias.value.data_mut() {
            *b = 1.0;
        }
        let x = Tensor::zeros(&[2, 3]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), &[2, 5]);
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn infer_silu_matches_infer_then_silu_bit_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut layer = Linear::new(5, 9, &mut rng);
        for (i, b) in layer.bias.value.data_mut().iter_mut().enumerate() {
            *b = i as f32 * 0.1 - 0.4;
        }
        let x = Tensor::randn(&[3, 5], 1.5, &mut rng);
        let mut ws = Workspace::new();
        for prepacked in [false, true] {
            if prepacked {
                layer.prepack();
            }
            let fused = layer.infer_silu(&x, &mut ws);
            let mut reference = layer.infer(&x, &mut ws);
            crate::silu_in_place(&mut reference);
            assert_eq!(fused, reference, "prepacked={prepacked}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let _ = layer.forward(&x);
        let grad_out = Tensor::full(&[2, 3], 1.0);
        let analytic = layer.backward(&grad_out);
        let probe = layer.clone();
        let numeric = finite_diff(&x, move |t| {
            let mut l = probe.clone();
            l.forward(t).sum()
        });
        assert_close(&analytic, &numeric, 1e-2, "linear dx");
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let mut live = layer.clone();
        let _ = live.forward(&x);
        let _ = live.backward(&Tensor::full(&[2, 3], 1.0));

        let x2 = x.clone();
        let base = layer.clone();
        let numeric = finite_diff(&layer.weight.value, move |w| {
            let mut l = base.clone();
            l.weight.value = w.clone();
            l.forward(&x2).sum()
        });
        assert_close(&live.weight.grad, &numeric, 1e-2, "linear dW");
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::randn(&[3, 2], 1.0, &mut rng);
        let _ = layer.forward(&x);
        let grad_out = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let _ = layer.backward(&grad_out);
        assert_eq!(layer.bias.grad.data(), &[9.0, 12.0]);
    }

    #[test]
    fn grads_accumulate_across_calls() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::randn(&[1, 2], 1.0, &mut rng);
        let _ = layer.forward(&x);
        let _ = layer.backward(&Tensor::full(&[1, 2], 1.0));
        let first = layer.bias.grad.clone();
        let _ = layer.forward(&x);
        let _ = layer.backward(&Tensor::full(&[1, 2], 1.0));
        assert_eq!(layer.bias.grad, first.scale(2.0));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_after_one_forward_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut layer = Linear::new(2, 3, &mut rng);
        let _ = layer.forward(&Tensor::randn(&[1, 2], 1.0, &mut rng));
        let _ = layer.backward(&Tensor::full(&[1, 3], 1.0));
        let _ = layer.backward(&Tensor::full(&[1, 3], 1.0));
    }
}
