use crate::activation::{scale_and_softmax_rows_in_place, softmax_rows, softmax_rows_backward};
use crate::gemm::{
    gemm_packed, matmul, pack_a_into, packed_len, transpose, transpose_into, Epilogue,
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
    /// Per batch item: (q, k, v) as `(c, L)` matrices and attention `(L, L)`.
    per_item: Vec<(Tensor, Tensor, Tensor, Tensor)>,
    shape: [usize; 4],
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

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics on non-4-D input or channel mismatch.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = shape4(x);
        let l = h * w;
        let scale = 1.0 / (c as f32).sqrt();

        let normed = self.norm.forward(x);
        let qs = self.q.forward(&normed);
        let ks = self.k.forward(&normed);
        let vs = self.v.forward(&normed);

        let mut attended = Tensor::zeros(&[n, c, h, w]);
        let mut per_item = Vec::with_capacity(n);
        for ni in 0..n {
            let qm = slice_to_mat(&qs, ni, c, l);
            let km = slice_to_mat(&ks, ni, c, l);
            let vm = slice_to_mat(&vs, ni, c, l);
            // scores (L, L) = q^T k * scale
            let scores = matmul(&transpose(&qm), &km).scale(scale);
            let attn = softmax_rows(&scores);
            // out (c, L) = v attn^T
            let out = matmul(&vm, &transpose(&attn));
            write_mat(&mut attended, &out, ni, c, l, w);
            per_item.push((qm, km, vm, attn));
        }
        self.cache = Some(Cache {
            per_item,
            shape: [n, c, h, w],
        });

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
    /// with no caching; all scratch memory comes from `ws`. Per-item
    /// `(c, L)` matrices are borrowed directly from the NCHW buffers
    /// (each batch item's channel block *is* that matrix), so the only
    /// data movement is the two transposes the math requires.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SelfAttention2d::forward`].
    pub fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = shape4(x);
        let l = h * w;
        let scale = 1.0 / (c as f32).sqrt();

        let normed = self.norm.infer(x, ws);
        let qs = self.q.infer(&normed, ws);
        let ks = self.k.infer(&normed, ws);
        let vs = self.v.infer(&normed, ws);
        ws.recycle(normed);

        let mut attended = ws.take_uninit(&[n, c, h, w]);
        let mut qt = ws.take_uninit(&[l, c]);
        let mut scores = ws.take_uninit(&[l, l]);
        let mut attn_t = ws.take_uninit(&[l, l]);
        let mut panel_q = ws.take_uninit(&[packed_len(l, c)]);
        let mut panel_v = ws.take_uninit(&[packed_len(c, l)]);
        for ni in 0..n {
            let qm = &qs.data()[ni * c * l..(ni + 1) * c * l];
            let km = &ks.data()[ni * c * l..(ni + 1) * c * l];
            let vm = &vs.data()[ni * c * l..(ni + 1) * c * l];
            // scores (L, L) = q^T k * scale
            transpose_into(qm, c, l, qt.data_mut());
            pack_a_into(qt.data(), l, c, panel_q.data_mut());
            gemm_packed(
                panel_q.data(),
                km,
                scores.data_mut(),
                l,
                c,
                l,
                Epilogue::Zero,
            );
            scale_and_softmax_rows_in_place(scores.data_mut(), l, scale);
            // out (c, L) = v attn^T, straight into the attended slice.
            transpose_into(scores.data(), l, l, attn_t.data_mut());
            pack_a_into(vm, c, l, panel_v.data_mut());
            gemm_packed(
                panel_v.data(),
                attn_t.data(),
                &mut attended.data_mut()[ni * c * l..(ni + 1) * c * l],
                c,
                l,
                l,
                Epilogue::Zero,
            );
        }
        ws.recycle(qt);
        ws.recycle(scores);
        ws.recycle(attn_t);
        ws.recycle(panel_q);
        ws.recycle(panel_v);
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
    /// Panics when called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let [n, c, h, w] = cache.shape;
        let l = h * w;
        let scale = 1.0 / (c as f32).sqrt();

        // Residual: grad flows both directly and through proj.
        let grad_attended = self.proj.backward(grad_out);

        let mut grad_q = Tensor::zeros(&[n, c, h, w]);
        let mut grad_k = Tensor::zeros(&[n, c, h, w]);
        let mut grad_v = Tensor::zeros(&[n, c, h, w]);
        for (ni, (qm, km, vm, attn)) in cache.per_item.iter().enumerate() {
            // go is (c, L); out = v attn^T  =>  dv = go attn ; dattn = go^T v
            let go = slice_to_mat(&grad_attended, ni, c, l);
            let dv = matmul(&go, attn);
            let dattn = matmul(&transpose(&go), vm);
            let dscores = softmax_rows_backward(attn, &dattn).scale(scale);
            // scores = q^T k  =>  dq = k dscores^T ; dk = q dscores
            let dq = matmul(km, &transpose(&dscores));
            let dk = matmul(qm, &dscores);
            write_mat(&mut grad_q, &dq, ni, c, l, w);
            write_mat(&mut grad_k, &dk, ni, c, l, w);
            write_mat(&mut grad_v, &dv, ni, c, l, w);
        }

        let gn_q = self.q.backward(&grad_q);
        let gn_k = self.k.backward(&grad_k);
        let gn_v = self.v.backward(&grad_v);
        let grad_normed = gn_q.add(&gn_k).add(&gn_v);
        let grad_x_through_norm = self.norm.backward(&grad_normed);
        grad_out.add(&grad_x_through_norm)
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

fn shape4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.shape().len(), 4, "expected NCHW tensor");
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

/// Extracts batch item `ni` as a `(c, L)` matrix. In NCHW layout the
/// item's channel block already is that matrix, so this is one contiguous
/// copy.
fn slice_to_mat(x: &Tensor, ni: usize, c: usize, l: usize) -> Tensor {
    let mut data = vec![0.0f32; c * l];
    data.copy_from_slice(&x.data()[ni * c * l..(ni + 1) * c * l]);
    Tensor::from_vec(&[c, l], data)
}

/// Writes a `(c, L)` matrix into batch item `ni` of an NCHW tensor
/// (contiguous copy, see [`slice_to_mat`]).
fn write_mat(dst: &mut Tensor, mat: &Tensor, ni: usize, c: usize, l: usize, _w: usize) {
    dst.data_mut()[ni * c * l..(ni + 1) * c * l].copy_from_slice(mat.data());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, finite_diff};
    use rand::SeedableRng;

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
}
