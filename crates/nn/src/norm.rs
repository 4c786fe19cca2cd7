use crate::activation::silu_val;
use crate::{Param, Tensor, Workspace};

/// Group normalisation over NCHW tensors (the DDPM U-Net's normaliser).
///
/// Channels are split into `groups`; each `(batch, group)` slice is
/// standardised to zero mean / unit variance and then scaled and shifted by
/// the per-channel affine parameters `gamma` and `beta`.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    /// Per-channel scale, initialised to one.
    pub gamma: Param,
    /// Per-channel shift, initialised to zero.
    pub beta: Param,
    groups: usize,
    eps: f32,
    /// The input of the last `forward`, until `backward` consumes it.
    cache: Option<Tensor>,
}

impl GroupNorm {
    /// Creates a GroupNorm layer.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is not divisible by `groups` or `groups` is
    /// zero.
    pub fn new(groups: usize, channels: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert_eq!(channels % groups, 0, "channels must divide into groups");
        GroupNorm {
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            groups,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channel groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The variance stabiliser, for fused kernels that replicate this
    /// layer's arithmetic outside it.
    pub(crate) fn eps(&self) -> f32 {
        self.eps
    }

    /// Forward pass: [`GroupNorm::infer`], caching the input `backward`
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics on non-4-D input or channel mismatch.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let out = self.infer(x, &mut Workspace::new());
        self.cache = Some(x.clone());
        out
    }

    /// Inference forward pass from a shared reference: no caching; the
    /// output tensor comes from `ws`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GroupNorm::forward`].
    pub fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.normalize(x, ws, |v| v)
    }

    /// GroupNorm immediately followed by SiLU, in one pass: bit-identical
    /// to [`GroupNorm::infer`] + [`crate::silu_in_place`] (the normalised
    /// affine value is materialised as the same f32 before the activation
    /// reads it), but the intermediate tensor is never written out cold.
    /// This is the norm-SiLU prefix of every residual block and of the
    /// output head.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GroupNorm::forward`].
    pub fn infer_silu(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.normalize(x, ws, silu_val)
    }

    fn check_input(&self, x: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(x.shape().len(), 4, "groupnorm expects NCHW input");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.gamma.value.len(), "channel mismatch");
        (n, c, h, w)
    }

    /// The normalisation loop every forward path runs: `finish(gamma *
    /// x̂ + beta)` per element, with `x̂` as [`normalized`] computes it.
    fn normalize(&self, x: &Tensor, ws: &mut Workspace, finish: impl Fn(f32) -> f32) -> Tensor {
        let (n, c, h, w) = self.check_input(x);
        let (cg, hw) = (c / self.groups, h * w);
        let mut out = ws.take_uninit(x.shape());
        for ni in 0..n {
            for g in 0..self.groups {
                let span = (ni * c + g * cg) * hw..(ni * c + (g + 1) * cg) * hw;
                let xs = &x.data()[span.clone()];
                let (mean, inv_std) = group_stats(xs, xs.len() as f32, self.eps);
                let os = &mut out.data_mut()[span];
                for (ci, (orow, xrow)) in os.chunks_mut(hw).zip(xs.chunks(hw)).enumerate() {
                    let gamma = self.gamma.value.data()[g * cg + ci];
                    let beta = self.beta.value.data()[g * cg + ci];
                    for (o, &v) in orow.iter_mut().zip(xrow) {
                        *o = finish(gamma * normalized(v, mean, inv_std) + beta);
                    }
                }
            }
        }
        out
    }

    /// Backward pass: accumulates `gamma`/`beta` gradients, returns grad wrt
    /// input. `x̂` is recomputed from the cached input with the same
    /// statistics and expression as the forward pass, so it is bit-equal
    /// to the values the forward pass produced.
    ///
    /// # Panics
    ///
    /// Panics with "backward before forward" unless a `forward` ran since
    /// the last `backward` (this consumes the cache), or on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.take().expect("backward before forward");
        assert_eq!(grad_out.shape(), x.shape(), "grad_out shape mismatch");
        let (n, c, h, w) = self.check_input(&x);
        let (cg, hw) = (c / self.groups, h * w);
        let group_len = (cg * hw) as f32;
        let go = grad_out.data();
        let gamma = self.gamma.value.data();

        // Per (n, group), with dxhat = grad_out * gamma:
        // dx = inv_std/Ng * (Ng*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat)).
        // The affine gradients sum over (n, h, w) per channel, in that order.
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        let mut xhat = vec![0.0f32; cg * hw];
        let mut grad_in = Tensor::zeros(grad_out.shape());
        for ni in 0..n {
            for g in 0..self.groups {
                let span = (ni * c + g * cg) * hw..(ni * c + (g + 1) * cg) * hw;
                let xs = &x.data()[span.clone()];
                let (mean, inv_std) = group_stats(xs, group_len, self.eps);
                for (xh, &v) in xhat.iter_mut().zip(xs) {
                    *xh = normalized(v, mean, inv_std);
                }
                let gos = &go[span.clone()];
                let gammas = &gamma[g * cg..(g + 1) * cg];
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                for (ci, (gor, xhr)) in gos.chunks(hw).zip(xhat.chunks(hw)).enumerate() {
                    let (dg, db) = (&mut dgamma[g * cg + ci], &mut dbeta[g * cg + ci]);
                    for (&gv, &xh) in gor.iter().zip(xhr) {
                        *dg += gv * xh;
                        *db += gv;
                        let dxhat = gv * gammas[ci];
                        sum_dxhat += dxhat;
                        sum_dxhat_xhat += dxhat * xh;
                    }
                }
                let scale = inv_std / group_len;
                let dst = &mut grad_in.data_mut()[span];
                for (((dr, gor), xhr), &gm) in dst
                    .chunks_mut(hw)
                    .zip(gos.chunks(hw))
                    .zip(xhat.chunks(hw))
                    .zip(gammas)
                {
                    for ((d, &gv), &xh) in dr.iter_mut().zip(gor).zip(xhr) {
                        let dxhat = gv * gm;
                        *d = scale * (group_len * dxhat - sum_dxhat - xh * sum_dxhat_xhat);
                    }
                }
            }
        }
        self.gamma.grad.add_assign(&Tensor::from_vec(&[c], dgamma));
        self.beta.grad.add_assign(&Tensor::from_vec(&[c], dbeta));
        grad_in
    }

    /// Mutable access to the parameters, in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    /// Shared access to the parameters, in the same stable order as
    /// [`GroupNorm::params_mut`].
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }
}

/// `x̂ = (v - mean) * inv_std`, the expression the forward loop and
/// `backward` share, so the `x̂` `backward` recomputes is bit-equal to the
/// forward pass's.
#[inline]
fn normalized(v: f32, mean: f32, inv_std: f32) -> f32 {
    (v - mean) * inv_std
}

/// Mean and inverse standard deviation of one `(batch, group)` slice,
/// accumulated in memory order (the order every code path shares so
/// `forward`, `infer` and the fused GEMM epilogues stay bit-equal).
pub(crate) fn group_stats(xs: &[f32], group_len: f32, eps: f32) -> (f32, f32) {
    let mut mean = 0.0f32;
    for &v in xs {
        mean += v;
    }
    mean /= group_len;
    let mut var = 0.0f32;
    for &v in xs {
        let d = v - mean;
        var += d * d;
    }
    var /= group_len;
    (mean, 1.0 / (var + eps).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, finite_diff};
    use rand::SeedableRng;

    #[test]
    fn infer_matches_forward_bit_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut norm = GroupNorm::new(2, 6);
        for (g, b) in norm
            .gamma
            .value
            .data_mut()
            .iter_mut()
            .zip([0.5, -1.0, 2.0, 1.5, 0.1, -0.3])
        {
            *g = b;
        }
        let x = Tensor::randn(&[2, 6, 4, 4], 2.0, &mut rng);
        let mut ws = Workspace::new();
        assert_eq!(norm.infer(&x, &mut ws), norm.forward(&x));
    }

    #[test]
    fn infer_silu_matches_infer_then_silu_bit_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut norm = GroupNorm::new(2, 6);
        for (g, b) in norm
            .gamma
            .value
            .data_mut()
            .iter_mut()
            .zip([0.5, -1.0, 2.0, 1.5, 0.1, -0.3])
        {
            *g = b;
        }
        let x = Tensor::randn(&[3, 6, 4, 4], 2.0, &mut rng);
        let mut ws = Workspace::new();
        let fused = norm.infer_silu(&x, &mut ws);
        let mut reference = norm.infer(&x, &mut ws);
        crate::silu_in_place(&mut reference);
        assert_eq!(fused, reference);
    }

    #[test]
    fn output_is_standardised_per_group() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut norm = GroupNorm::new(2, 4);
        let x = Tensor::randn(&[2, 4, 5, 5], 3.0, &mut rng);
        let y = norm.forward(&x);
        // With gamma=1 beta=0 each (n, group) slice has ~zero mean, unit var.
        for ni in 0..2 {
            for g in 0..2 {
                let mut vals = Vec::new();
                for ci in g * 2..(g + 1) * 2 {
                    for hi in 0..5 {
                        for wi in 0..5 {
                            vals.push(y.at4(ni, ci, hi, wi));
                        }
                    }
                }
                let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
                let var: f32 =
                    vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
                assert!(mean.abs() < 1e-4, "mean {mean}");
                assert!((var - 1.0).abs() < 1e-2, "var {var}");
            }
        }
    }

    /// What the forward pass used to cache: `x̂` and the per `(n, group)`
    /// inverse standard deviations, rebuilt from the cached input.
    struct Cache {
        normalized: Tensor,
        inv_std: Vec<f32>,
    }

    fn cached_normalization(norm: &GroupNorm) -> Cache {
        let x = norm.cache.as_ref().expect("forward first");
        let (n, c, h, w) = norm.check_input(x);
        let group = c / norm.groups * h * w;
        let mut normalized = Tensor::zeros(x.shape());
        let mut inv_std = Vec::new();
        for (xs, out) in x
            .data()
            .chunks(group)
            .zip(normalized.data_mut().chunks_mut(group))
        {
            let (mean, is) = group_stats(xs, group as f32, norm.eps);
            inv_std.push(is);
            for (o, &v) in out.iter_mut().zip(xs) {
                *o = (v - mean) * is;
            }
        }
        assert_eq!(inv_std.len(), n * norm.groups);
        Cache {
            normalized,
            inv_std,
        }
    }

    /// The `at4`-indexed backward this layer used to run, kept as the
    /// bit-exact reference.
    fn reference_backward(norm: &mut GroupNorm, grad_out: &Tensor) -> Tensor {
        let cache = cached_normalization(norm);
        let shape = cache.normalized.shape();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let cg = c / norm.groups;
        let group_len = (cg * h * w) as f32;
        for ci in 0..c {
            let mut dg = 0.0f32;
            let mut db = 0.0f32;
            for ni in 0..n {
                for hi in 0..h {
                    for wi in 0..w {
                        let g = grad_out.at4(ni, ci, hi, wi);
                        dg += g * cache.normalized.at4(ni, ci, hi, wi);
                        db += g;
                    }
                }
            }
            norm.gamma.grad.data_mut()[ci] += dg;
            norm.beta.grad.data_mut()[ci] += db;
        }
        let mut grad_in = Tensor::zeros(shape);
        for ni in 0..n {
            for g in 0..norm.groups {
                let inv_std = cache.inv_std[ni * norm.groups + g];
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                for ci in g * cg..(g + 1) * cg {
                    let gamma = norm.gamma.value.data()[ci];
                    for hi in 0..h {
                        for wi in 0..w {
                            let dxhat = grad_out.at4(ni, ci, hi, wi) * gamma;
                            sum_dxhat += dxhat;
                            sum_dxhat_xhat += dxhat * cache.normalized.at4(ni, ci, hi, wi);
                        }
                    }
                }
                for ci in g * cg..(g + 1) * cg {
                    let gamma = norm.gamma.value.data()[ci];
                    for hi in 0..h {
                        for wi in 0..w {
                            let dxhat = grad_out.at4(ni, ci, hi, wi) * gamma;
                            let xhat = cache.normalized.at4(ni, ci, hi, wi);
                            let dx = inv_std / group_len
                                * (group_len * dxhat - sum_dxhat - xhat * sum_dxhat_xhat);
                            grad_in.set4(ni, ci, hi, wi, dx);
                        }
                    }
                }
            }
        }
        grad_in
    }

    #[test]
    fn backward_is_bit_identical_to_at4_reference() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for (groups, batch) in [(1usize, 1usize), (2, 3), (3, 2)] {
            let mut live = GroupNorm::new(groups, 6);
            live.gamma.value = Tensor::randn(&[6], 1.0, &mut rng);
            let mut reference = live.clone();
            // Two rounds, so the second accumulates onto non-zero
            // gradients.
            for round in 0..2 {
                let x = Tensor::randn(&[batch, 6, 5, 3], 2.0, &mut rng);
                assert_eq!(live.forward(&x), reference.forward(&x));
                let go = Tensor::randn(x.shape(), 1.0, &mut rng);
                let gx = live.backward(&go);
                let gx_ref = reference_backward(&mut reference, &go);
                let case = format!("groups {groups} n {batch} round {round}");
                assert_eq!(bits(&gx), bits(&gx_ref), "{case}: dx");
                assert_eq!(
                    bits(&live.gamma.grad),
                    bits(&reference.gamma.grad),
                    "{case}: dgamma"
                );
                assert_eq!(
                    bits(&live.beta.grad),
                    bits(&reference.beta.grad),
                    "{case}: dbeta"
                );
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let norm = GroupNorm::new(2, 4);
        let x = Tensor::randn(&[1, 4, 3, 3], 1.0, &mut rng);
        // Non-trivial loss weights to exercise all terms.
        let w = Tensor::randn(&[1, 4, 3, 3], 1.0, &mut rng);
        let mut live = norm.clone();
        let _ = live.forward(&x);
        let analytic = live.backward(&w);
        let base = norm.clone();
        let w2 = w.clone();
        let numeric = finite_diff(&x, move |t| {
            let mut n = base.clone();
            n.forward(t)
                .data()
                .iter()
                .zip(w2.data())
                .map(|(a, b)| a * b)
                .sum()
        });
        assert_close(&analytic, &numeric, 3e-2, "groupnorm dx");
    }

    #[test]
    fn affine_gradients_match_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let norm = GroupNorm::new(1, 2);
        let x = Tensor::randn(&[2, 2, 2, 2], 1.0, &mut rng);
        let mut live = norm.clone();
        let y = live.forward(&x);
        let _ = live.backward(&Tensor::full(y.shape(), 1.0));

        let base = norm.clone();
        let x2 = x.clone();
        let numeric_gamma = finite_diff(&norm.gamma.value, move |g| {
            let mut n = base.clone();
            n.gamma.value = g.clone();
            n.forward(&x2).sum()
        });
        assert_close(&live.gamma.grad, &numeric_gamma, 2e-2, "groupnorm dgamma");

        let base = norm.clone();
        let x2 = x.clone();
        let numeric_beta = finite_diff(&norm.beta.value, move |b| {
            let mut n = base.clone();
            n.beta.value = b.clone();
            n.forward(&x2).sum()
        });
        assert_close(&live.beta.grad, &numeric_beta, 2e-2, "groupnorm dbeta");
    }

    #[test]
    #[should_panic(expected = "channels must divide")]
    fn bad_group_count_panics() {
        let _ = GroupNorm::new(3, 4);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_after_one_forward_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut norm = GroupNorm::new(2, 4);
        let y = norm.forward(&Tensor::randn(&[1, 4, 3, 3], 1.0, &mut rng));
        let g = Tensor::full(y.shape(), 1.0);
        let _ = norm.backward(&g);
        let _ = norm.backward(&g);
    }
}
