use crate::activation::{scale_and_softmax_rows_in_place, softmax_rows_backward_in_place};
use crate::gemm::{
    gemm_packed, pack_a_into, pack_a_transposed_into, packed_len, transpose_into, Epilogue,
};
use crate::{Conv2d, GroupNorm, Param, Tensor, Workspace};
use rand::Rng;

/// Single-head spatial self-attention block with a residual connection,
/// as placed at the 16x16 level of the paper's U-Net (§IV-A).
///
/// `y = x + proj(attend(norm(x)))` where attention runs over the `H*W`
/// spatial positions with channel-dimension keys/queries/values produced by
/// 1x1 convolutions.
#[derive(Debug, Clone)]
pub struct SelfAttention2d {
    norm: GroupNorm,
    q: Conv2d,
    k: Conv2d,
    v: Conv2d,
    proj: Conv2d,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    /// The q, k and v projections `(n, c, h, w)`: each batch item's channel
    /// block is its `(c, L)` matrix, borrowed as a slice.
    qs: Tensor,
    ks: Tensor,
    vs: Tensor,
    /// Attention weights `(n, L, L)`.
    attn: Tensor,
}

impl SelfAttention2d {
    /// Creates the block for `channels` feature channels.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is not divisible by `groups`.
    pub fn new(channels: usize, groups: usize, rng: &mut impl Rng) -> Self {
        SelfAttention2d {
            norm: GroupNorm::new(groups, channels),
            q: Conv2d::new_1x1(channels, channels, rng),
            k: Conv2d::new_1x1(channels, channels, rng),
            v: Conv2d::new_1x1(channels, channels, rng),
            proj: Conv2d::new_1x1(channels, channels, rng),
            cache: None,
        }
    }

    /// Forward pass: [`SelfAttention2d::infer`]'s arithmetic, keeping the
    /// q, k, v projections and attention weights `backward` reads.
    ///
    /// # Panics
    ///
    /// Panics on non-4-D input or channel mismatch.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let normed = self.norm.forward(x);
        let qs = self.q.forward(&normed);
        let ks = self.k.forward(&normed);
        let vs = self.v.forward(&normed);
        let (attended, attn) = attend(&qs, &ks, &vs, &mut Workspace::new());
        self.cache = Some(Cache { qs, ks, vs, attn });

        let projected = self.proj.forward(&attended);
        x.add(&projected)
    }

    /// Precomputes packed weights for the four 1x1 projections so
    /// subsequent [`SelfAttention2d::infer`] calls skip per-call packing.
    /// Call only once the weights are final.
    pub fn prepack(&mut self) {
        self.q.prepack();
        self.k.prepack();
        self.v.prepack();
        self.proj.prepack();
    }

    /// Inference forward pass from a shared reference: identical
    /// arithmetic to [`SelfAttention2d::forward`] (bit-equal outputs)
    /// with no caching; all scratch memory comes from `ws`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SelfAttention2d::forward`].
    pub fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let normed = self.norm.infer(x, ws);
        let qs = self.q.infer(&normed, ws);
        let ks = self.k.infer(&normed, ws);
        let vs = self.v.infer(&normed, ws);
        ws.recycle(normed);
        let (attended, attn) = attend(&qs, &ks, &vs, ws);
        ws.recycle(attn);
        ws.recycle(qs);
        ws.recycle(ks);
        ws.recycle(vs);

        let projected = self.proj.infer(&attended, ws);
        ws.recycle(attended);
        let mut out = ws.take_uninit(x.shape());
        for (o, (a, b)) in out
            .data_mut()
            .iter_mut()
            .zip(x.data().iter().zip(projected.data()))
        {
            *o = a + b;
        }
        ws.recycle(projected);
        out
    }

    /// Backward pass: accumulates all parameter gradients, returns grad wrt
    /// input.
    ///
    /// # Panics
    ///
    /// Panics with "backward before forward" unless a `forward` ran since
    /// the last `backward` (this consumes the cache).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Cache { qs, ks, vs, attn } = self.cache.take().expect("backward before forward");
        let (n, c, h, w) = shape4(&qs);
        let l = h * w;
        let scale = 1.0 / (c as f32).sqrt();

        // Residual: grad flows both directly and through proj.
        let grad_attended = self.proj.backward(grad_out);

        let mut grad_q = Tensor::zeros(&[n, c, h, w]);
        let mut grad_k = Tensor::zeros(&[n, c, h, w]);
        let mut grad_v = Tensor::zeros(&[n, c, h, w]);
        let mut panel_c = vec![0.0f32; packed_len(c, l)];
        let mut panel_go_t = vec![0.0f32; packed_len(l, c)];
        let mut dscores = vec![0.0f32; l * l];
        let mut dscores_t = vec![0.0f32; l * l];
        for ni in 0..n {
            let (i0, i1) = (ni * c * l, (ni + 1) * c * l);
            let go = &grad_attended.data()[i0..i1];
            let a = &attn.data()[ni * l * l..(ni + 1) * l * l];
            // go is (c, L); out = v attn^T  =>  dv = go attn ; dattn = go^T v
            pack_a_into(go, c, l, &mut panel_c);
            let dv = &mut grad_v.data_mut()[i0..i1];
            gemm_packed(&panel_c, a, dv, c, l, l, Epilogue::Zero);
            pack_a_transposed_into(go, l, c, &mut panel_go_t);
            let vm = &vs.data()[i0..i1];
            gemm_packed(&panel_go_t, vm, &mut dscores, l, c, l, Epilogue::Zero);
            softmax_rows_backward_in_place(a, &mut dscores, l, scale);
            // scores = q^T k  =>  dq = k dscores^T ; dk = q dscores
            transpose_into(&dscores, l, l, &mut dscores_t);
            pack_a_into(&ks.data()[i0..i1], c, l, &mut panel_c);
            let dq = &mut grad_q.data_mut()[i0..i1];
            gemm_packed(&panel_c, &dscores_t, dq, c, l, l, Epilogue::Zero);
            pack_a_into(&qs.data()[i0..i1], c, l, &mut panel_c);
            let dk = &mut grad_k.data_mut()[i0..i1];
            gemm_packed(&panel_c, &dscores, dk, c, l, l, Epilogue::Zero);
        }

        let mut grad_normed = self.q.backward(&grad_q);
        grad_normed.add_assign(&self.k.backward(&grad_k));
        grad_normed.add_assign(&self.v.backward(&grad_v));
        let mut grad_x = self.norm.backward(&grad_normed);
        grad_x.add_assign(grad_out);
        grad_x
    }

    /// Mutable access to all parameters, in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.norm.params_mut();
        params.extend(self.q.params_mut());
        params.extend(self.k.params_mut());
        params.extend(self.v.params_mut());
        params.extend(self.proj.params_mut());
        params
    }

    /// Shared access to all parameters, in the same stable order as
    /// [`SelfAttention2d::params_mut`].
    pub fn params(&self) -> Vec<&Param> {
        let mut params = self.norm.params();
        params.extend(self.q.params());
        params.extend(self.k.params());
        params.extend(self.v.params());
        params.extend(self.proj.params());
        params
    }
}

/// The attention both forward passes run. Per batch item, with the
/// item's `(c, L)` q, k and v matrices borrowed straight from the NCHW
/// buffers (each item's channel block *is* that matrix), it computes the
/// weights `softmax(qᵀk / √c)` `(L, L)` and `v · weightsᵀ` `(c, L)` with
/// packed GEMMs. Returns `(attended, weights)`, shaped `(n, c, h, w)` and
/// `(n, L, L)`, both drawn from `ws`.
fn attend(qs: &Tensor, ks: &Tensor, vs: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor) {
    let (n, c, h, w) = shape4(qs);
    let l = h * w;
    let scale = 1.0 / (c as f32).sqrt();
    let mut attended = ws.take_uninit(qs.shape());
    let mut attn = ws.take_uninit(&[n, l, l]);
    let mut panel_qt = ws.take_uninit(&[packed_len(l, c)]);
    let mut panel_v = ws.take_uninit(&[packed_len(c, l)]);
    let mut attn_t = ws.take_uninit(&[l, l]);
    for ni in 0..n {
        let (i0, i1) = (ni * c * l, (ni + 1) * c * l);
        let a = &mut attn.data_mut()[ni * l * l..(ni + 1) * l * l];
        pack_a_transposed_into(&qs.data()[i0..i1], l, c, panel_qt.data_mut());
        gemm_packed(
            panel_qt.data(),
            &ks.data()[i0..i1],
            a,
            l,
            c,
            l,
            Epilogue::Zero,
        );
        scale_and_softmax_rows_in_place(a, l, scale);
        transpose_into(a, l, l, attn_t.data_mut());
        pack_a_into(&vs.data()[i0..i1], c, l, panel_v.data_mut());
        let out = &mut attended.data_mut()[i0..i1];
        gemm_packed(panel_v.data(), attn_t.data(), out, c, l, l, Epilogue::Zero);
    }
    ws.recycle(panel_qt);
    ws.recycle(panel_v);
    ws.recycle(attn_t);
    (attended, attn)
}

fn shape4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.shape().len(), 4, "expected NCHW tensor");
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, finite_diff};
    use rand::SeedableRng;

    /// The attention this block used to run — per-item `(c, L)` copies,
    /// allocating `matmul`/`transpose` products and softmax backward —
    /// kept as the bit-exact reference. Returns `(forward output, grad
    /// wrt input)`; the sublayers run their own forward/backward.
    fn reference_forward_backward(
        attn: &mut SelfAttention2d,
        x: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor) {
        use crate::activation::softmax_rows;
        use crate::gemm::{matmul, transpose};
        let (n, c, h, w) = shape4(x);
        let l = h * w;
        let scale = 1.0 / (c as f32).sqrt();
        let mat = |t: &Tensor, ni: usize| {
            Tensor::from_vec(&[c, l], t.data()[ni * c * l..(ni + 1) * c * l].to_vec())
        };

        let normed = attn.norm.forward(x);
        let qs = attn.q.forward(&normed);
        let ks = attn.k.forward(&normed);
        let vs = attn.v.forward(&normed);
        let mut attended = Tensor::zeros(&[n, c, h, w]);
        let mut per_item = Vec::new();
        for ni in 0..n {
            let (qm, km, vm) = (mat(&qs, ni), mat(&ks, ni), mat(&vs, ni));
            let a = softmax_rows(&matmul(&transpose(&qm), &km).scale(scale));
            let out = matmul(&vm, &transpose(&a));
            attended.data_mut()[ni * c * l..(ni + 1) * c * l].copy_from_slice(out.data());
            per_item.push((qm, km, vm, a));
        }
        let y = x.add(&attn.proj.forward(&attended));

        let grad_attended = attn.proj.backward(grad_out);
        let mut grads = [
            Tensor::zeros(&[n, c, h, w]),
            Tensor::zeros(&[n, c, h, w]),
            Tensor::zeros(&[n, c, h, w]),
        ];
        for (ni, (qm, km, vm, a)) in per_item.iter().enumerate() {
            let go = mat(&grad_attended, ni);
            let dv = matmul(&go, a);
            let dattn = matmul(&transpose(&go), vm);
            let mut ds = vec![0.0f32; l * l];
            for r in 0..l {
                let yr = &a.data()[r * l..(r + 1) * l];
                let gr = &dattn.data()[r * l..(r + 1) * l];
                let dot: f32 = yr.iter().zip(gr).map(|(p, q)| p * q).sum();
                for ((o, &yv), &gv) in ds[r * l..(r + 1) * l].iter_mut().zip(yr).zip(gr) {
                    *o = yv * (gv - dot);
                }
            }
            let dscores = Tensor::from_vec(&[l, l], ds).scale(scale);
            let dq = matmul(km, &transpose(&dscores));
            let dk = matmul(qm, &dscores);
            for (g, d) in grads.iter_mut().zip([dq, dk, dv]) {
                g.data_mut()[ni * c * l..(ni + 1) * c * l].copy_from_slice(d.data());
            }
        }
        let [grad_q, grad_k, grad_v] = grads;
        let gn_q = attn.q.backward(&grad_q);
        let gn_k = attn.k.backward(&grad_k);
        let gn_v = attn.v.backward(&grad_v);
        let grad_normed = gn_q.add(&gn_k).add(&gn_v);
        (y, grad_out.add(&attn.norm.backward(&grad_normed)))
    }

    #[test]
    fn forward_and_backward_are_bit_identical_to_matmul_reference() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for batch in [1usize, 3] {
            // L = 15: every GEMM runs a ragged MR and NR tail.
            let mut live = SelfAttention2d::new(8, 2, &mut rng);
            let mut reference = live.clone();
            // Two rounds, so the second accumulates onto non-zero
            // gradients.
            for round in 0..2 {
                let x = Tensor::randn(&[batch, 8, 5, 3], 1.0, &mut rng);
                let go = Tensor::randn(x.shape(), 1.0, &mut rng);
                let y = live.forward(&x);
                let gx = live.backward(&go);
                let (y_ref, gx_ref) = reference_forward_backward(&mut reference, &x, &go);
                let case = format!("n {batch} round {round}");
                assert_eq!(bits(&y), bits(&y_ref), "{case}: y");
                assert_eq!(bits(&gx), bits(&gx_ref), "{case}: dx");
                for (i, (p, r)) in live.params().iter().zip(reference.params()).enumerate() {
                    assert_eq!(bits(&p.grad), bits(&r.grad), "{case}: param {i}");
                }
            }
        }
    }

    #[test]
    fn forward_preserves_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut attn = SelfAttention2d::new(4, 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 3, 3], 1.0, &mut rng);
        let y = attn.forward(&x);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut attn = SelfAttention2d::new(4, 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 3, 3], 1.0, &mut rng);
        let mut ws = Workspace::new();
        assert_eq!(attn.infer(&x, &mut ws), attn.forward(&x));
        // Prepacked weights must not change a single bit.
        attn.prepack();
        assert_eq!(attn.infer(&x, &mut ws), attn.forward(&x));
    }

    #[test]
    fn zero_proj_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut attn = SelfAttention2d::new(4, 2, &mut rng);
        for v in attn.proj.weight.value.data_mut() {
            *v = 0.0;
        }
        let x = Tensor::randn(&[1, 4, 2, 2], 1.0, &mut rng);
        let y = attn.forward(&x);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let attn = SelfAttention2d::new(2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 2, 2], 1.0, &mut rng);
        let w = Tensor::randn(&[1, 2, 2, 2], 1.0, &mut rng);
        let mut live = attn.clone();
        let _ = live.forward(&x);
        let analytic = live.backward(&w);
        let base = attn.clone();
        let w2 = w.clone();
        let numeric = finite_diff(&x, move |t| {
            let mut a = base.clone();
            a.forward(t)
                .data()
                .iter()
                .zip(w2.data())
                .map(|(p, q)| p * q)
                .sum()
        });
        assert_close(&analytic, &numeric, 5e-2, "attention dx");
    }

    #[test]
    fn parameter_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let attn = SelfAttention2d::new(2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 2, 2], 1.0, &mut rng);
        let mut live = attn.clone();
        let y = live.forward(&x);
        let _ = live.backward(&Tensor::full(y.shape(), 1.0));

        // Check the query projection weight gradient.
        let base = attn.clone();
        let x2 = x.clone();
        let numeric = finite_diff(&attn.q.weight.value, move |wq| {
            let mut a = base.clone();
            a.q.weight.value = wq.clone();
            a.forward(&x2).sum()
        });
        assert_close(&live.q.weight.grad, &numeric, 5e-2, "attention dWq");
    }

    #[test]
    fn params_mut_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut attn = SelfAttention2d::new(4, 2, &mut rng);
        // norm (2) + q/k/v/proj (2 each) = 10.
        assert_eq!(attn.params_mut().len(), 10);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_after_one_forward_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut attn = SelfAttention2d::new(4, 2, &mut rng);
        let y = attn.forward(&Tensor::randn(&[1, 4, 3, 3], 1.0, &mut rng));
        let g = Tensor::full(y.shape(), 1.0);
        let _ = attn.backward(&g);
        let _ = attn.backward(&g);
    }
}
