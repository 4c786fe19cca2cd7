use crate::Tensor;

/// SiLU (swish) activation `x * sigmoid(x)` applied element-wise.
pub fn silu(x: &Tensor) -> Tensor {
    let data = x.data().iter().map(|&v| v * sigmoid(v)).collect();
    Tensor::from_vec(x.shape(), data)
}

/// In-place SiLU: `x[i] = x[i] * sigmoid(x[i])` — same arithmetic as
/// [`silu`] without the allocation, for the workspace-backed inference
/// path.
pub fn silu_in_place(x: &mut Tensor) {
    for v in x.data_mut() {
        *v *= sigmoid(*v);
    }
}

/// Gradient of SiLU: given the forward input `x` and upstream gradient
/// `grad_out`, returns `grad_out * d silu(x)/dx`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn silu_backward(x: &Tensor, grad_out: &Tensor) -> Tensor {
    assert_eq!(x.shape(), grad_out.shape(), "shape mismatch");
    let data = x
        .data()
        .iter()
        .zip(grad_out.data())
        .map(|(&v, &g)| {
            let s = sigmoid(v);
            g * (s * (1.0 + v * (1.0 - s)))
        })
        .collect();
    Tensor::from_vec(x.shape(), data)
}

/// A SiLU layer caching its input for the backward pass.
#[derive(Debug, Default, Clone)]
pub struct Silu {
    cache: Option<Tensor>,
}

impl Silu {
    /// Creates the layer.
    pub fn new() -> Self {
        Silu { cache: None }
    }

    /// Forward pass, caching the input.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache = Some(x.clone());
        silu(x)
    }

    /// Backward pass using the cached input.
    ///
    /// # Panics
    ///
    /// Panics with "backward before forward" unless a `forward` ran since
    /// the last `backward` (this consumes the cache).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.take().expect("backward before forward");
        silu_backward(&x, grad_out)
    }
}

/// Numerically stable row-wise softmax over a 2-D tensor.
///
/// # Panics
///
/// Panics when the input is not 2-D.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 2, "softmax_rows expects 2-D input");
    let mut out = x.clone();
    softmax_rows_in_place(out.data_mut(), x.shape()[1]);
    out
}

/// In-place row-wise softmax over row-major data with `cols` columns —
/// same arithmetic (and accumulation order) as [`softmax_rows`] without
/// the allocation.
///
/// # Panics
///
/// Panics when the data length is not a multiple of `cols`.
pub fn softmax_rows_in_place(data: &mut [f32], cols: usize) {
    assert!(
        cols > 0 && data.len().is_multiple_of(cols),
        "data length must be a multiple of the column count"
    );
    for row in data.chunks_mut(cols) {
        softmax_row(row);
    }
}

/// Row-wise softmax fused with a uniform logit scale: equivalent to
/// multiplying every element by `scale` and then calling
/// [`softmax_rows_in_place`], bit for bit, but the scale rides along in
/// the max pass instead of needing its own sweep. This is the attention
/// score path (`softmax(q^T k / sqrt(c))`).
///
/// # Panics
///
/// Panics when the data length is not a multiple of `cols`.
pub fn scale_and_softmax_rows_in_place(data: &mut [f32], cols: usize, scale: f32) {
    assert!(
        cols > 0 && data.len().is_multiple_of(cols),
        "data length must be a multiple of the column count"
    );
    for row in data.chunks_mut(cols) {
        let mut max = f32::NEG_INFINITY;
        for v in row.iter_mut() {
            *v *= scale;
            max = max.max(*v);
        }
        exp_and_normalise(row, max);
    }
}

/// One softmax row, split into three slice passes (max, exp, divide) so
/// each loop body is branch-free and a straight-line candidate for the
/// autovectoriser. The accumulation order of every pass matches the
/// original single-loop form (sequential left-to-right), so results are
/// bit-identical.
#[inline]
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    exp_and_normalise(row, max);
}

#[inline]
fn exp_and_normalise(row: &mut [f32], max: f32) {
    for v in row.iter_mut() {
        *v = (*v - max).exp();
    }
    let mut denom = 0.0f32;
    for &v in row.iter() {
        denom += v;
    }
    // Division (not multiplication by the reciprocal) keeps the exact
    // rounding of the historical implementation.
    for v in row.iter_mut() {
        *v /= denom;
    }
}

/// Backward of row-wise softmax, in place: `grad` holds the upstream
/// gradient with respect to the softmax output `y` (both row-major with
/// `cols` columns) and is overwritten with `scale` times the gradient with
/// respect to the logits, `y * (grad - <y, grad>) * scale` per row — the
/// attention path's `softmax(q^T k * scale)` chain rule in one pass.
///
/// # Panics
///
/// Panics on length mismatch or when the length is not a multiple of
/// `cols`.
pub(crate) fn softmax_rows_backward_in_place(y: &[f32], grad: &mut [f32], cols: usize, scale: f32) {
    assert_eq!(y.len(), grad.len(), "shape mismatch");
    assert!(
        cols > 0 && y.len().is_multiple_of(cols),
        "data length must be a multiple of the column count"
    );
    for (yr, gr) in y.chunks(cols).zip(grad.chunks_mut(cols)) {
        let dot: f32 = yr.iter().zip(gr.iter()).map(|(a, b)| a * b).sum();
        for (g, &yv) in gr.iter_mut().zip(yr) {
            *g = yv * (*g - dot) * scale;
        }
    }
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_diff;
    use rand::SeedableRng;

    #[test]
    fn silu_known_values() {
        let x = Tensor::from_vec(&[3], vec![0.0, 10.0, -10.0]);
        let y = silu(&x);
        assert!((y.data()[0] - 0.0).abs() < 1e-6);
        assert!((y.data()[1] - 10.0).abs() < 1e-3);
        assert!(y.data()[2].abs() < 1e-3);
    }

    #[test]
    fn silu_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let x = Tensor::randn(&[17], 1.0, &mut rng);
        let grad_out = Tensor::full(&[17], 1.0);
        let analytic = silu_backward(&x, &grad_out);
        let numeric = finite_diff(&x, |t| silu(t).sum());
        for (a, n) in analytic.data().iter().zip(numeric.data()) {
            assert!((a - n).abs() < 1e-2, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[4, 9], 3.0, &mut rng);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.data()[r * 9..(r + 1) * 9].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn scaled_softmax_matches_scale_then_softmax_bit_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Tensor::randn(&[6, 17], 2.0, &mut rng);
        let scale = 0.37f32;
        let mut fused: Vec<f32> = x.data().to_vec();
        scale_and_softmax_rows_in_place(&mut fused, 17, scale);
        let mut reference: Vec<f32> = x.data().to_vec();
        for v in reference.iter_mut() {
            *v *= scale;
        }
        softmax_rows_in_place(&mut reference, 17);
        assert_eq!(fused, reference);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        // Loss: weighted sum of softmax outputs.
        let w = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let y = softmax_rows(&x);
        let mut analytic = w.clone();
        softmax_rows_backward_in_place(y.data(), analytic.data_mut(), 5, 1.0);
        let w2 = w.clone();
        let numeric = finite_diff(&x, move |t| {
            softmax_rows(t)
                .data()
                .iter()
                .zip(w2.data())
                .map(|(a, b)| a * b)
                .sum()
        });
        for (a, n) in analytic.data().iter().zip(numeric.data()) {
            assert!((a - n).abs() < 1e-2, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn silu_layer_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let mut layer = Silu::new();
        let y = layer.forward(&x);
        assert_eq!(y, silu(&x));
        let g = layer.backward(&Tensor::full(&[2, 3], 1.0));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_after_one_forward_panics() {
        let mut layer = Silu::new();
        let _ = layer.forward(&Tensor::full(&[4], 0.5));
        let _ = layer.backward(&Tensor::full(&[4], 1.0));
        let _ = layer.backward(&Tensor::full(&[4], 1.0));
    }
}
