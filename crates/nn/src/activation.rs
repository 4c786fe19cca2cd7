use crate::Tensor;

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use crate::avx512 as kernels;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use portable as kernels;

/// SiLU (swish) activation `x * sigmoid(x)` applied element-wise.
pub fn silu(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    silu_in_place(&mut out);
    out
}

/// In-place SiLU: `x[i] = x[i] * sigmoid(x[i])` — same arithmetic as
/// [`silu`] without the allocation, for the workspace-backed inference
/// path.
pub fn silu_in_place(x: &mut Tensor) {
    kernels::silu_in_place(x.data_mut());
}

/// Gradient of SiLU: given the forward input `x` and upstream gradient
/// `grad_out`, returns `grad_out * d silu(x)/dx`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn silu_backward(x: &Tensor, grad_out: &Tensor) -> Tensor {
    assert_eq!(x.shape(), grad_out.shape(), "shape mismatch");
    let mut grad = grad_out.clone();
    kernels::silu_backward_in_place(x.data(), grad.data_mut());
    grad
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
    kernels::exp_sub_in_place(row, max);
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

/// The element-wise kernels of a build without AVX-512F: one scalar
/// expression per element, each `exp` a libm call. The `avx512` kernels
/// compute the same expressions 16 lanes at a time.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod portable {
    /// `x = silu(x)` element-wise.
    pub(super) fn silu_in_place(xs: &mut [f32]) {
        for v in xs {
            *v *= sigmoid(*v);
        }
    }

    /// `grad *= silu'(x)` element-wise.
    pub(super) fn silu_backward_in_place(x: &[f32], grad: &mut [f32]) {
        assert_eq!(x.len(), grad.len(), "shape mismatch");
        for (g, &v) in grad.iter_mut().zip(x) {
            let s = sigmoid(v);
            *g *= s * (1.0 + v * (1.0 - s));
        }
    }

    /// `x = exp(x - shift)` element-wise.
    pub(super) fn exp_sub_in_place(xs: &mut [f32], shift: f32) {
        for v in xs {
            *v = (*v - shift).exp();
        }
    }

    fn sigmoid(v: f32) -> f32 {
        1.0 / (1.0 + (-v).exp())
    }
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

    /// The scalar SiLU sigmoid, the expression the portable kernels run.
    fn sigmoid_reference(v: f32) -> f32 {
        1.0 / (1.0 + (-v).exp())
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs the build's `exp` kernel (softmax's `exp(x - shift)` at shift
    /// `0.0`, the identity for every non-NaN `x`) over `inputs` in slices
    /// of 4099 = 16 * 256 + 3 values, so each ends mid-register, and checks
    /// every output against `f32::exp` bitwise. Returns the inputs checked.
    fn assert_exp_matches_libm(inputs: impl Iterator<Item = u32>) -> usize {
        let mut inputs = inputs.map(f32::from_bits).peekable();
        let (mut xs, mut ys) = (Vec::with_capacity(4099), Vec::with_capacity(4099));
        let mut checked = 0;
        while inputs.peek().is_some() {
            xs.clear();
            xs.extend(inputs.by_ref().take(4099));
            ys.clone_from(&xs);
            kernels::exp_sub_in_place(&mut ys, 0.0);
            for (&x, &y) in xs.iter().zip(&ys) {
                let expect = x.exp();
                assert_eq!(
                    y.to_bits(),
                    expect.to_bits(),
                    "exp({x:e}) (input bits {:#010x}): {y:e} vs {expect:e}",
                    x.to_bits()
                );
            }
            checked += xs.len();
        }
        checked
    }

    #[test]
    fn vector_exp_matches_libm_on_a_sweep_and_at_every_threshold() {
        // Every 1021st bit pattern (all residues of the low bits).
        let swept = assert_exp_matches_libm((0..=u32::MAX).step_by(1021));
        assert!(swept > 4_000_000);
        // 4096 patterns either side of each special-path or rounding
        // threshold: the signed zeros (and the subnormal inputs next to
        // them); the infinities and the NaNs next to them; |x| = 88, where
        // lanes leave for the scalar routine; 88.72 (`0x1.62e42ep6`),
        // above which the result overflows; -87.34 (ln of the least normal
        // float), -103.28 (`-0x1.9d1d9ep6`) and -103.97 (`-0x1.9fe368p6`),
        // the edges of the subnormal results.
        let thresholds: [u32; 12] = [
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x42b0_0000,
            0xc2b0_0000,
            0x42b1_7217,
            0xc2ae_ac50,
            0xc2ce_8ecf,
            0xc2cf_f1b4,
            0x3f80_0000,
            0xbf80_0000,
        ];
        for t in thresholds {
            assert_exp_matches_libm(t.saturating_sub(4096)..=t.saturating_add(4096));
        }
        // Quiet and signalling NaNs of both signs with assorted payloads.
        let nans = [
            0x7fc0_0000u32,
            0xffc0_0000,
            0x7fc0_0001,
            0x7fff_ffff,
            0xffff_ffff,
            0x7f80_0001,
            0xff80_0001,
            0x7fa5_a5a5,
            0xffbf_ffff,
        ];
        assert_exp_matches_libm(nans.into_iter());
        // The only two inputs (32.56 and -63.10) whose result changes when
        // `r = z - k` subtracts from the rounded product `z` rather than
        // the fused one: no other fused step of the routine changes a
        // result, found by comparing each variant on all 2^32 inputs.
        assert_exp_matches_libm([0x4202_422fu32, 0xc27c_65d9].into_iter());
        // Every input whose result is subnormal or underflows to zero:
        // -87.34 and below, down to past -103.97.
        assert_exp_matches_libm(0xc2ae_ac50..=0xc2d0_0000);
    }

    /// All 2^32 inputs, about a minute in a release build: `cargo test
    /// --release -p dp_nn -- --ignored vector_exp_matches_libm_on_every_input`.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn vector_exp_matches_libm_on_every_input() {
        assert_eq!(assert_exp_matches_libm(0..=u32::MAX), 1 << 32);
    }

    #[test]
    fn silu_kernels_match_the_scalar_expressions_bit_for_bit() {
        // Lengths that end mid-register, values past exp's special
        // thresholds in both directions, signed zeros and infinities.
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let specials = [
            0.0,
            -0.0,
            88.0,
            -88.0,
            95.5,
            -95.5,
            120.0,
            -120.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -1e-40,
        ];
        for len in [1usize, 7, 15, 16, 17, 33, 250] {
            let mut x = Tensor::randn(&[len], 6.0, &mut rng);
            for (v, &special) in x.data_mut().iter_mut().step_by(3).zip(&specials) {
                *v = special;
            }
            let g = Tensor::randn(&[len], 1.0, &mut rng);
            let y_ref: Vec<f32> = x.data().iter().map(|&v| v * sigmoid_reference(v)).collect();
            let g_ref: Vec<f32> = x
                .data()
                .iter()
                .zip(g.data())
                .map(|(&v, &gv)| {
                    let s = sigmoid_reference(v);
                    gv * (s * (1.0 + v * (1.0 - s)))
                })
                .collect();
            assert_eq!(bits(silu(&x).data()), bits(&y_ref), "silu, length {len}");
            let mut y = x.clone();
            silu_in_place(&mut y);
            assert_eq!(bits(y.data()), bits(&y_ref), "silu_in_place, length {len}");
            let gx = silu_backward(&x, &g);
            assert_eq!(bits(gx.data()), bits(&g_ref), "silu_backward, length {len}");
        }
    }

    #[test]
    fn softmax_kernels_match_the_scalar_expressions_bit_for_bit() {
        // Rows that end mid-register, spread wide enough that some shifted
        // logits pass -88 (exp's special path) and underflow.
        let reference = |data: &[f32], cols: usize| -> Vec<f32> {
            let mut out = Vec::with_capacity(data.len());
            for row in data.chunks(cols) {
                let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let e: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
                let mut denom = 0.0f32;
                for &v in &e {
                    denom += v;
                }
                out.extend(e.iter().map(|&v| v / denom));
            }
            out
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for cols in [1usize, 5, 16, 17, 31, 64, 100] {
            let x = Tensor::randn(&[3, cols], 40.0, &mut rng);
            let mut y = x.data().to_vec();
            softmax_rows_in_place(&mut y, cols);
            assert_eq!(bits(&y), bits(&reference(x.data(), cols)), "{cols} columns");
            let scale = 0.37f32;
            let scaled: Vec<f32> = x.data().iter().map(|&v| v * scale).collect();
            let mut y = x.data().to_vec();
            scale_and_softmax_rows_in_place(&mut y, cols, scale);
            assert_eq!(
                bits(&y),
                bits(&reference(&scaled, cols)),
                "{cols} columns, scaled"
            );
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
