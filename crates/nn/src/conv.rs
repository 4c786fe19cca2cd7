use crate::gemm::{
    conv_same_size, gemm_packed, pack_a_into, pack_a_transposed_into, packed_len, transpose_into,
    Epilogue, Taps, MR,
};
use crate::{Param, Tensor, Workspace};
use rand::Rng;

/// 2-D convolution over NCHW tensors, implemented as im2col + GEMM. A
/// same-size stride-1 convolution is one `gemm::conv_same_size` call,
/// which on AVX-512 builds reads the im2col matrix straight from the input
/// planes instead of writing it.
///
/// Supports arbitrary kernel size, stride and zero padding — everything the
/// DDPM U-Net needs (3x3 stride-1 pad-1 feature convs, 3x3 stride-2 pad-1
/// downsampling, 1x1 skip/attention projections).
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Kernel of shape `(out_c, in_c, kh, kw)`.
    pub weight: Param,
    /// Bias of shape `(out_c,)`.
    pub bias: Param,
    stride: usize,
    padding: usize,
    cache_input: Option<Tensor>,
    /// GEMM-panel-packed weight matrix, populated by [`Conv2d::prepack`]
    /// once the weights are frozen; `None` while training.
    packed: Option<Vec<f32>>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal initialisation.
    ///
    /// # Panics
    ///
    /// Panics when `kernel` or `stride` is zero.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        let fan_in = (in_c * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        Conv2d {
            weight: Param::new(Tensor::randn(&[out_c, in_c, kernel, kernel], std, rng)),
            bias: Param::new(Tensor::zeros(&[out_c])),
            stride,
            padding,
            cache_input: None,
            packed: None,
        }
    }

    /// Convenience constructor for a 1x1 stride-1 projection.
    pub fn new_1x1(in_c: usize, out_c: usize, rng: &mut impl Rng) -> Self {
        Conv2d::new(in_c, out_c, 1, 1, 0, rng)
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.weight.value.shape()[2]
    }

    /// Spatial output size for a given input size.
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.padding - self.kernel()) / self.stride + 1
    }

    /// Precomputes the GEMM-ready packed weight matrix so every subsequent
    /// [`Conv2d::infer`] call skips the per-call packing step.
    ///
    /// Intended for frozen/trained models; a later [`Conv2d::forward`]
    /// call (resumed training) discards the packed copy so the training
    /// path always computes from the live weights — but mutating
    /// [`Conv2d::weight`] directly and then calling `infer` leaves the
    /// packed copy stale (re-run `prepack` after by-hand weight edits).
    pub fn prepack(&mut self) {
        let (oc, ckk) = (
            self.out_channels(),
            self.in_channels() * self.kernel() * self.kernel(),
        );
        // The (oc, ic, kh, kw) kernel in row-major order *is* the
        // (oc, ic*kh*kw) matrix — no reshape copy needed, only packing.
        let mut panel = vec![0.0f32; packed_len(oc, ckk)];
        pack_a_into(self.weight.value.data(), oc, ckk, &mut panel);
        self.packed = Some(panel);
    }

    /// `true` once [`Conv2d::prepack`] has run.
    pub fn is_prepacked(&self) -> bool {
        self.packed.is_some()
    }

    /// Forward pass (training mode: caches the input for `backward`).
    ///
    /// # Panics
    ///
    /// Panics on non-4-D input, channel mismatch, or an input smaller than
    /// the kernel after padding.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        // Training mutates the weights, so any prepacked copy is about to
        // go stale — drop it and compute from the live weights.
        self.packed = None;
        self.cache_input = Some(x.clone());
        self.infer(x, &mut Workspace::new())
    }

    /// Inference forward pass from a shared reference: identical
    /// arithmetic to [`Conv2d::forward`] (bit-equal outputs), but nothing
    /// is cached and all scratch memory comes from `ws`, so steady-state
    /// calls allocate nothing.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Conv2d::forward`].
    pub fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.shape().len(), 4, "conv expects NCHW input");
        assert_eq!(x.shape()[1], self.in_channels(), "channel mismatch");
        let (n, ic, h, w) = shape4(x);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (oc, k) = (self.out_channels(), self.kernel());
        let (l, ckk) = (oh * ow, ic * k * k);

        // Packed weights: frozen copy when available, otherwise packed
        // into workspace scratch (same values, so same results).
        let fresh_panel = match &self.packed {
            Some(_) => None,
            None => {
                let mut panel = ws.take_uninit(&[packed_len(oc, ckk)]);
                pack_a_into(self.weight.value.data(), oc, ckk, panel.data_mut());
                Some(panel)
            }
        };
        let panel: &[f32] = match (&self.packed, &fresh_panel) {
            (Some(p), _) => p,
            (None, Some(t)) => t.data(),
            (None, None) => unreachable!(),
        };

        let mut out = ws.take_uninit(&[n, oc, oh, ow]);
        if k == 1 && self.stride == 1 && self.padding == 0 {
            // 1x1 projection: the im2col matrix of an item *is* the item's
            // (ic, L) channel block — feed it to the GEMM directly.
            for ni in 0..n {
                let item = &x.data()[ni * ic * l..(ni + 1) * ic * l];
                gemm_packed(
                    panel,
                    item,
                    &mut out.data_mut()[ni * oc * l..(ni + 1) * oc * l],
                    oc,
                    ckk,
                    l,
                    Epilogue::BiasPerRow(self.bias.value.data()),
                );
            }
        } else if self.stride == 1 && (oh, ow) == (h, w) {
            // Every feature conv of the U-Net: the GEMM reads B as the
            // im2col matrix of each item's planes.
            let taps = Taps {
                channels: ic,
                h,
                w,
                k,
                pad: self.padding,
            };
            let bias = self.bias.value.data();
            conv_same_size(panel, bias, x.data(), out.data_mut(), oc, taps, ws);
        } else {
            let mut cols = ws.take_uninit(&[ckk, l]);
            for ni in 0..n {
                let item = &x.data()[ni * ic * h * w..(ni + 1) * ic * h * w];
                im2col_into(
                    item,
                    ic,
                    h,
                    w,
                    k,
                    self.stride,
                    self.padding,
                    oh,
                    ow,
                    cols.data_mut(),
                );
                // The (oc, L) product block is exactly the (oc, oh, ow)
                // output slice of this batch item; the bias initialises it.
                gemm_packed(
                    panel,
                    cols.data(),
                    &mut out.data_mut()[ni * oc * l..(ni + 1) * oc * l],
                    oc,
                    ckk,
                    l,
                    Epilogue::BiasPerRow(self.bias.value.data()),
                );
            }
            ws.recycle(cols);
        }
        if let Some(t) = fresh_panel {
            ws.recycle(t);
        }
        out
    }

    /// Backward pass: accumulates weight/bias gradients, returns grad wrt
    /// input.
    ///
    /// Per batch item it runs two packed GEMMs on per-call scratch: the
    /// transposed weight gradient `dWᵀ (ic·k·k, oc) += cols · goᵀ`, whose
    /// im2col rows are packed as GEMM panels (so only the small `go` is
    /// transposed, never the `cols` matrix), and the column gradient
    /// `Wᵀ · go`, with `Wᵀ` packed once per call, which `col2im_accumulate`
    /// scatters back.
    /// Every gradient element sees the same products in the same order as
    /// the textbook `matmul`/`transpose` formulation, so results are
    /// bit-identical to it (pinned by this module's tests).
    ///
    /// # Panics
    ///
    /// Panics with "backward before forward" unless a `forward` ran since
    /// the last `backward` (this consumes the cache), or on shape mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache_input.take().expect("backward before forward");
        let (n, ic, h, w) = shape4(&x);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (oc, k, s, p) = (
            self.out_channels(),
            self.kernel(),
            self.stride,
            self.padding,
        );
        assert_eq!(
            grad_out.shape(),
            &[n, oc, oh, ow],
            "grad_out shape mismatch"
        );
        let (l, ckk, hw) = (oh * ow, ic * k * k, h * w);
        let pointwise = k == 1 && s == 1 && p == 0;

        // The (oc, ic, kh, kw) kernel is the (oc, ckk) matrix W.
        let mut panel_wt = vec![0.0f32; packed_len(ckk, oc)];
        pack_a_transposed_into(self.weight.value.data(), ckk, oc, &mut panel_wt);
        let mut panel_cols = vec![0.0f32; packed_len(ckk, l)];
        // im2col runs MR input channels at a time: MR * k * k rows is a
        // whole number of MR-row panels, so each chunk packs in place.
        let chunk_rows = MR * k * k;
        let mut cols = vec![0.0f32; if pointwise { 0 } else { chunk_rows * l }];
        let mut gcols = vec![0.0f32; if pointwise { 0 } else { ckk * l }];
        let mut go_t = vec![0.0f32; l * oc];
        let mut grad_wt = vec![0.0f32; ckk * oc];
        let mut grad_input = Tensor::zeros(&[n, ic, h, w]);
        for ni in 0..n {
            // The (oc, oh, ow) slice of this batch item is the (oc, L)
            // matrix go.
            let go = &grad_out.data()[ni * oc * l..(ni + 1) * oc * l];
            // Bias gradient: row sums of go.
            for (gb, row) in self.bias.grad.data_mut().iter_mut().zip(go.chunks(l)) {
                let sum: f32 = row.iter().sum();
                *gb += sum;
            }
            let item = &x.data()[ni * ic * hw..(ni + 1) * ic * hw];
            if pointwise {
                // A 1x1 projection's im2col matrix is the item itself.
                pack_a_into(item, ckk, l, &mut panel_cols);
            } else {
                for c0 in (0..ic).step_by(MR) {
                    let cc = MR.min(ic - c0);
                    let rows = cc * k * k;
                    im2col_into(
                        &item[c0 * hw..(c0 + cc) * hw],
                        cc,
                        h,
                        w,
                        k,
                        s,
                        p,
                        oh,
                        ow,
                        &mut cols[..rows * l],
                    );
                    let dst = c0 * k * k * l;
                    pack_a_into(
                        &cols[..rows * l],
                        rows,
                        l,
                        &mut panel_cols[dst..dst + packed_len(rows, l)],
                    );
                }
            }
            transpose_into(go, oc, l, &mut go_t);
            gemm_packed(
                &panel_cols,
                &go_t,
                &mut grad_wt,
                ckk,
                l,
                oc,
                Epilogue::Accumulate,
            );
            let grad_item = &mut grad_input.data_mut()[ni * ic * hw..(ni + 1) * ic * hw];
            if pointwise {
                gemm_packed(&panel_wt, go, grad_item, ckk, oc, l, Epilogue::Zero);
            } else {
                gemm_packed(&panel_wt, go, &mut gcols, ckk, oc, l, Epilogue::Zero);
                col2im_accumulate(&gcols, grad_item, ic, h, w, k, s, p, oh, ow);
            }
        }
        // weight.grad += (dWᵀ)ᵀ, once per call.
        for (i, row) in self.weight.grad.data_mut().chunks_mut(ckk).enumerate() {
            for (j, g) in row.iter_mut().enumerate() {
                *g += grad_wt[j * oc + i];
            }
        }
        grad_input
    }

    /// Mutable access to the parameters, in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Shared access to the parameters, in the same stable order as
    /// [`Conv2d::params_mut`].
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

/// Writes the im2col matrix `(ic*k*k, oh*ow)` of one `(ic, h, w)` input
/// item into `cols`, fully overwriting it (padding positions are written
/// as explicit zeros, so the destination may hold stale data).
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_into(
    item: &[f32],
    ic: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    let l = oh * ow;
    debug_assert_eq!(cols.len(), ic * k * k * l);
    let (s, p) = (stride, padding);
    if s == 1 && oh == h && ow == w {
        // Same-size stride-1 convolution (every feature conv in the
        // U-Net): for a fixed (c, ki, kj) the whole (oh, ow) destination
        // row is the source plane shifted by a constant offset, so it is
        // ONE clamped contiguous copy plus edge zeroing — instead of
        // per-output-row bookkeeping.
        for c in 0..ic {
            let plane = &item[c * h * w..(c + 1) * h * w];
            for ki in 0..k {
                for kj in 0..k {
                    let base = ((c * k + ki) * k + kj) * l;
                    let oy0 = p.saturating_sub(ki); // first valid output row
                    let oy1 = (h + p).saturating_sub(ki).min(h); // one past last
                    cols[base..base + oy0 * w].fill(0.0);
                    cols[base + oy1 * w..base + l].fill(0.0);
                    if oy0 < oy1 {
                        let shift = (oy0 + ki - p) * w; // >= 0 by construction
                        let mut d0 = oy0 * w;
                        let mut len = (oy1 - oy0) * w;
                        let s0 = if kj >= p {
                            (shift + kj - p).min(plane.len())
                        } else {
                            // Source would start p-kj before the plane;
                            // skip those (they are left-pad positions,
                            // zeroed below).
                            d0 += p - kj;
                            len -= p - kj;
                            shift
                        };
                        len = len.min(plane.len() - s0);
                        cols[base + d0..base + d0 + len].copy_from_slice(&plane[s0..s0 + len]);
                        // Horizontal pad columns picked up wrapped
                        // neighbours in the bulk copy; zero them, one
                        // strided pass per pad column (a `fill` per row
                        // would cost a `memset` call per row).
                        let pads = if kj < p {
                            0..(p - kj).min(w)
                        } else {
                            w.saturating_sub(kj - p)..w
                        };
                        for x in pads {
                            let valid_rows = &mut cols[base + oy0 * w + x..base + oy1 * w];
                            for v in valid_rows.iter_mut().step_by(w) {
                                *v = 0.0;
                            }
                        }
                    }
                }
            }
        }
        return;
    }
    // Generic strided path: the same clamped-span idea as the fast path
    // above — the output positions whose sampled input index clears the
    // padding form one contiguous range per axis, computed once per
    // (ki, kj), so each destination row is two zero fills plus one
    // branch-free copy (contiguous for stride 1, strided gather
    // otherwise) instead of a per-element padding test.
    for c in 0..ic {
        for ki in 0..k {
            let oy0 = valid_start(ki, p, s);
            let oy1 = valid_end(ki, p, s, h, oh).max(oy0);
            for kj in 0..k {
                let row = (c * k + ki) * k + kj;
                let base = row * l;
                let ox0 = valid_start(kj, p, s);
                let ox1 = valid_end(kj, p, s, w, ow).max(ox0);
                cols[base..base + oy0 * ow].fill(0.0);
                cols[base + oy1 * ow..base + l].fill(0.0);
                for oy in oy0..oy1 {
                    let dst = &mut cols[base + oy * ow..base + (oy + 1) * ow];
                    dst[..ox0].fill(0.0);
                    dst[ox1..].fill(0.0);
                    if ox0 == ox1 {
                        continue;
                    }
                    let iy = oy * s + ki - p;
                    let src_row = &item[(c * h + iy) * w..(c * h + iy + 1) * w];
                    let sx0 = ox0 * s + kj - p;
                    if s == 1 {
                        dst[ox0..ox1].copy_from_slice(&src_row[sx0..sx0 + (ox1 - ox0)]);
                    } else {
                        for (d, &v) in dst[ox0..ox1]
                            .iter_mut()
                            .zip(src_row[sx0..].iter().step_by(s))
                        {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Scatters the column gradients `gcols` (`(ic*k*k, oh*ow)`, the layout
/// [`im2col_into`] writes) back onto one `(ic, h, w)` input-gradient item,
/// adding into it. The same clamped spans as `im2col_into` skip the padding,
/// so each `(c, ki, kj, oy)` row is one contiguous (stride 1) or strided
/// add with no per-element test. Every element receives its adds in
/// `(c, ki, kj, oy, ox)` order.
#[allow(clippy::too_many_arguments)]
fn col2im_accumulate(
    gcols: &[f32],
    grad_item: &mut [f32],
    ic: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
) {
    let l = oh * ow;
    debug_assert_eq!(gcols.len(), ic * k * k * l);
    let (s, p) = (stride, padding);
    for c in 0..ic {
        for ki in 0..k {
            let oy0 = valid_start(ki, p, s);
            let oy1 = valid_end(ki, p, s, h, oh).max(oy0);
            for kj in 0..k {
                let ox0 = valid_start(kj, p, s);
                let ox1 = valid_end(kj, p, s, w, ow).max(ox0);
                if ox0 == ox1 {
                    continue;
                }
                let base = ((c * k + ki) * k + kj) * l;
                let ix0 = ox0 * s + kj - p;
                for oy in oy0..oy1 {
                    let iy = oy * s + ki - p;
                    let src = &gcols[base + oy * ow + ox0..base + oy * ow + ox1];
                    let dst = &mut grad_item[(c * h + iy) * w + ix0..(c * h + iy + 1) * w];
                    if s == 1 {
                        for (d, &g) in dst.iter_mut().zip(src) {
                            *d += g;
                        }
                    } else {
                        for (d, &g) in dst.iter_mut().step_by(s).zip(src) {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

/// First output index along one axis whose sampled input position
/// `o * stride + kk` clears the left padding.
fn valid_start(kk: usize, p: usize, s: usize) -> usize {
    if kk >= p {
        0
    } else {
        (p - kk).div_ceil(s)
    }
}

/// One past the last output index along one axis whose sampled input
/// position lands inside the (unpadded) input, clamped to the output size.
fn valid_end(kk: usize, p: usize, s: usize, size: usize, osize: usize) -> usize {
    let span = (size + p).saturating_sub(kk);
    if span == 0 {
        0
    } else {
        ((span - 1) / s + 1).min(osize)
    }
}

fn shape4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.shape().len(), 4, "expected 4-D tensor");
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, finite_diff};
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_1x1() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new_1x1(1, 1, &mut rng);
        conv.weight.value.data_mut()[0] = 1.0;
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn known_3x3_same_conv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        // Averaging kernel.
        for v in conv.weight.value.data_mut() {
            *v = 1.0;
        }
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        // Centre sees 9 ones; corners see 4.
        assert!((y.at4(0, 0, 1, 1) - 9.0).abs() < 1e-5);
        assert!((y.at4(0, 0, 0, 0) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn stride_two_output_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 3, 4, 4]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let mut ws = Workspace::new();
        assert_eq!(conv.infer(&x, &mut ws), conv.forward(&x));
    }

    #[test]
    fn im2col_spans_match_per_element_reference() {
        // The span-based im2col must place exactly the same values as the
        // textbook per-element gather, across strides, paddings and kernel
        // sizes (including ones where whole rows/columns are padding).
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for (ic, h, w, k, s, p) in [
            (2usize, 6usize, 6usize, 3usize, 1usize, 1usize),
            (1, 5, 7, 3, 2, 1),
            (3, 8, 8, 3, 2, 1),
            (1, 4, 4, 1, 2, 0),
            (2, 6, 6, 5, 1, 2),
            (1, 3, 3, 3, 3, 2),
            (1, 4, 6, 3, 1, 0),
        ] {
            let oh = (h + 2 * p - k) / s + 1;
            let ow = (w + 2 * p - k) / s + 1;
            let item = Tensor::randn(&[ic, h, w], 1.0, &mut rng);
            let l = oh * ow;
            let mut cols = vec![f32::NAN; ic * k * k * l];
            im2col_into(item.data(), ic, h, w, k, s, p, oh, ow, &mut cols);
            for c in 0..ic {
                for ki in 0..k {
                    for kj in 0..k {
                        let row = (c * k + ki) * k + kj;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let (iy, ix) = (oy * s + ki, ox * s + kj);
                                let expect = if iy < p || iy >= h + p || ix < p || ix >= w + p {
                                    0.0
                                } else {
                                    item.data()[(c * h + iy - p) * w + (ix - p)]
                                };
                                let got = cols[row * l + oy * ow + ox];
                                assert_eq!(
                                    got.to_bits(),
                                    expect.to_bits(),
                                    "(ic {ic} h {h} w {w} k {k} s {s} p {p}) row {row} oy {oy} ox {ox}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_infer_is_bit_identical_and_reuses_workspace() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut conv = Conv2d::new(3, 5, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let mut ws = Workspace::new();
        let fresh = conv.infer(&x, &mut ws);
        conv.prepack();
        assert!(conv.is_prepacked());
        let packed = conv.infer(&x, &mut ws);
        assert_eq!(fresh, packed, "prepacking must not change results");
        // Repeated calls reuse the same workspace buffers.
        let again = conv.infer(&x, &mut ws);
        assert_eq!(again, packed);
    }

    #[test]
    fn resumed_training_discards_stale_pack() {
        // prepack() then keep training: forward must compute from the
        // live weights, not the frozen packed copy.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        conv.prepack();
        let mut reference = conv.clone();
        // Simulate an optimiser step between prepack and the next forward.
        for v in conv.weight.value.data_mut() {
            *v += 0.25;
        }
        for v in reference.weight.value.data_mut() {
            *v += 0.25;
        }
        reference.packed = None;
        assert!(conv.is_prepacked());
        let live = conv.forward(&x);
        assert!(!conv.is_prepacked(), "forward must drop the stale pack");
        assert_eq!(live, reference.forward(&x));
    }

    /// The allocating `matmul`/`transpose` backward this layer used to
    /// run, kept as the bit-exact reference: per item `dW += go · colsᵀ`
    /// and `gcols = Wᵀ · go`, then a per-element col2im with a padding test.
    fn reference_backward(conv: &mut Conv2d, grad_out: &Tensor) -> Tensor {
        use crate::gemm::{matmul, transpose};
        let x = conv.cache_input.clone().expect("forward first");
        let (n, ic, h, w) = shape4(&x);
        let (oh, ow) = (conv.out_size(h), conv.out_size(w));
        let (oc, k) = (conv.out_channels(), conv.kernel());
        let (stride, p) = (conv.stride, conv.padding);
        let l = oh * ow;
        let w_mat_t = transpose(&conv.weight.value.clone().reshape(&[oc, ic * k * k]));
        let mut grad_input = Tensor::zeros(&[n, ic, h, w]);
        let mut grad_w_mat = Tensor::zeros(&[oc, ic * k * k]);
        for ni in 0..n {
            let go = Tensor::from_vec(
                &[oc, l],
                grad_out.data()[ni * oc * l..(ni + 1) * oc * l].to_vec(),
            );
            for c in 0..oc {
                let s: f32 = go.data()[c * l..(c + 1) * l].iter().sum();
                conv.bias.grad.data_mut()[c] += s;
            }
            let mut cols = vec![0.0f32; ic * k * k * l];
            let item = &x.data()[ni * ic * h * w..(ni + 1) * ic * h * w];
            im2col_into(item, ic, h, w, k, stride, p, oh, ow, &mut cols);
            let cols = Tensor::from_vec(&[ic * k * k, l], cols);
            grad_w_mat.add_assign(&matmul(&go, &transpose(&cols)));
            let gcols = matmul(&w_mat_t, &go);
            for c in 0..ic {
                for ki in 0..k {
                    for kj in 0..k {
                        let row = (c * k + ki) * k + kj;
                        for oy in 0..oh {
                            let iy = oy * stride + ki;
                            if iy < p || iy >= h + p {
                                continue;
                            }
                            for ox in 0..ow {
                                let ix = ox * stride + kj;
                                if ix < p || ix >= w + p {
                                    continue;
                                }
                                grad_input.data_mut()[((ni * ic + c) * h + iy - p) * w + ix - p] +=
                                    gcols.data()[row * l + oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
        conv.weight
            .grad
            .add_assign(&grad_w_mat.reshape(&[oc, ic, k, k]));
        grad_input
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn backward_is_bit_identical_to_matmul_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for k in [1usize, 3] {
            for stride in [1usize, 2] {
                for padding in [0usize, 1] {
                    for batch in [1usize, 3] {
                        // 5 input channels: one full MR-channel im2col
                        // chunk plus a ragged tail.
                        let mut live = Conv2d::new(5, 6, k, stride, padding, &mut rng);
                        let mut reference = live.clone();
                        let case = format!("k {k} s {stride} p {padding} n {batch}");
                        // Two rounds, so the second accumulates onto
                        // non-zero gradients.
                        for round in 0..2 {
                            let x = Tensor::randn(&[batch, 5, 7, 6], 1.0, &mut rng);
                            let y = live.forward(&x);
                            assert_eq!(y, reference.forward(&x), "{case}");
                            let go = Tensor::randn(y.shape(), 1.0, &mut rng);
                            let gx = live.backward(&go);
                            let gx_ref = reference_backward(&mut reference, &go);
                            assert_eq!(bits(&gx), bits(&gx_ref), "{case} round {round}: dx");
                            assert_eq!(
                                bits(&live.weight.grad),
                                bits(&reference.weight.grad),
                                "{case} round {round}: dW"
                            );
                            assert_eq!(
                                bits(&live.bias.grad),
                                bits(&reference.bias.grad),
                                "{case} round {round}: db"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let mut live = conv.clone();
        let y = live.forward(&x);
        let analytic = live.backward(&Tensor::full(y.shape(), 1.0));
        let base = conv.clone();
        let numeric = finite_diff(&x, move |t| {
            let mut c = base.clone();
            c.forward(t).sum()
        });
        assert_close(&analytic, &numeric, 2e-2, "conv dx");
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let conv = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let mut live = conv.clone();
        let y = live.forward(&x);
        let _ = live.backward(&Tensor::full(y.shape(), 1.0));
        let x2 = x.clone();
        let base = conv.clone();
        let numeric = finite_diff(&conv.weight.value, move |w| {
            let mut c = base.clone();
            c.weight.value = w.clone();
            c.forward(&x2).sum()
        });
        assert_close(&live.weight.grad, &numeric, 2e-2, "conv dW");
    }

    #[test]
    fn strided_gradients_match_finite_difference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let mut live = conv.clone();
        let y = live.forward(&x);
        let analytic = live.backward(&Tensor::full(y.shape(), 1.0));
        let base = conv.clone();
        let numeric = finite_diff(&x, move |t| {
            let mut c = base.clone();
            c.forward(t).sum()
        });
        assert_close(&analytic, &numeric, 2e-2, "strided conv dx");
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let x = Tensor::randn(&[2, 1, 3, 3], 1.0, &mut rng);
        let y = conv.forward(&x);
        let _ = conv.backward(&Tensor::full(y.shape(), 1.0));
        // 2 batch items x 9 positions.
        assert!((conv.bias.grad.data()[0] - 18.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn second_backward_after_one_forward_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng));
        let g = Tensor::full(y.shape(), 1.0);
        let _ = conv.backward(&g);
        let _ = conv.backward(&g);
    }
}
