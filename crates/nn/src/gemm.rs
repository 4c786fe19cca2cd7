//! Blocked GEMM, packing and transpose kernels for the compute hot path.
//!
//! The multiply is organised as a register-blocked micro-kernel over
//! panel-packed A: rows of A are packed in groups of [`MR`] so the inner
//! loop reads one contiguous `MR`-wide column of A per `k` step, streams
//! one row of B, and accumulates `MR` output rows simultaneously. The
//! inner loop is branch-free (no zero-skip) and written so LLVM
//! autovectorises it. Bias addition is fused into the epilogue (the
//! output is *initialised* with the bias, then accumulated into), which
//! the convolution and linear layers use to avoid a separate pass.
//!
//! # Threading policy
//!
//! Every multiply runs on the calling thread. Parallelism lives one level
//! up, in the `PatternService` worker pool: on the 2-vCPU hosts this tree
//! is timed on, splitting a shipped-profile U-Net call or training step
//! across GEMM threads measured slower than running it serially (see the
//! README's "Threading policy").

use crate::activation::silu_val;
use crate::norm::group_stats;
use crate::Tensor;

/// Micro-kernel height: rows of A (and of the output) processed together.
pub(crate) const MR: usize = 4;

/// Runs `f` on the calling thread and returns its result; the flag is
/// ignored.
///
/// GEMMs always run on the calling thread, so there is no inner GEMM
/// parallelism left to scope. This pass-through remains only because the
/// benchmark package (`perfbench/`) still calls it; it goes once that
/// package stops doing so.
pub fn with_inner_gemm_parallelism<R>(_enabled: bool, f: impl FnOnce() -> R) -> R {
    f()
}

/// How the output is initialised before accumulation, and (for the fused
/// variants) what elementwise finish pass runs over the still-hot output
/// once accumulation ends.
///
/// The fused variants exist so the layers between GEMMs — SiLU,
/// time-bias broadcast, GroupNorm — never need a separate sweep over a
/// cold tensor. Their finish passes reuse the exact scalar arithmetic of
/// the standalone layers ([`crate::silu_in_place`], `GroupNorm::infer`),
/// applied to identical f32 inputs in identical order, so a fused call is
/// **bit-identical** to the unfused layer sequence it replaces.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// Plain product: output starts at zero.
    Zero,
    /// The product is added into `out` as it stands (no initialisation):
    /// `out[i][j] += sum`. Adding into a buffer that started at `+0.0` is
    /// bit-identical to a [`Epilogue::Zero`] product followed by an
    /// element-wise add, because `0.0 + sum` only differs from `sum` at
    /// `-0.0`, and an accumulator that starts at `+0.0` never becomes `-0.0`.
    Accumulate,
    /// `out[i][j]` starts at `bias[i]` (convolution: one bias per output
    /// channel row).
    BiasPerRow(&'a [f32]),
    /// `out[i][j]` starts at `bias[j]` (linear: one bias per output
    /// feature column).
    BiasPerCol(&'a [f32]),
    /// [`Epilogue::BiasPerCol`] followed by an in-register SiLU finish:
    /// `out[i][j] = silu(bias[j] + sum)` — a linear layer feeding an
    /// activation (the time-embedding MLP's hidden layer).
    BiasSiluPerCol(&'a [f32]),
    /// [`Epilogue::BiasPerRow`] followed by the full residual-block
    /// mid-section as a finish pass: optional per-row extra bias (the
    /// broadcast time projection), GroupNorm over contiguous row groups,
    /// then SiLU. See [`GroupNormSilu`].
    BiasGroupNormSilu(GroupNormSilu<'a>),
}

/// Parameters of the fused bias + GroupNorm + SiLU finish pass.
///
/// The GEMM output is an `(m, n)` matrix whose rows are output channels of
/// one batch item, so "GroupNorm over `(item, group)`" is exactly a
/// normalisation over each contiguous block of `m / groups` rows — the
/// same memory-order statistics `GroupNorm::infer` computes.
#[derive(Clone, Copy)]
pub(crate) struct GroupNormSilu<'a> {
    /// Per-row bias the output is initialised with (conv bias).
    pub bias: &'a [f32],
    /// Optional per-row additive term applied after accumulation and
    /// before the statistics (the residual block's time-embedding
    /// projection, broadcast over each row).
    pub row_extra: Option<&'a [f32]>,
    /// Per-row GroupNorm scale.
    pub gamma: &'a [f32],
    /// Per-row GroupNorm shift.
    pub beta: &'a [f32],
    /// Number of row groups; must divide `m`.
    pub groups: usize,
    /// Variance stabiliser.
    pub eps: f32,
}

/// Runs the elementwise finish pass of the fused epilogues over the fully
/// accumulated `(m, n)` output. It runs once accumulation has finished,
/// touches each element once, and must preserve the exact accumulation
/// order of the standalone layers it replaces.
fn apply_epilogue_finish(epilogue: &Epilogue<'_>, out: &mut [f32], m: usize, n: usize) {
    match epilogue {
        Epilogue::Zero
        | Epilogue::Accumulate
        | Epilogue::BiasPerRow(_)
        | Epilogue::BiasPerCol(_) => {}
        Epilogue::BiasSiluPerCol(_) => {
            for v in out.iter_mut() {
                *v = silu_val(*v);
            }
        }
        Epilogue::BiasGroupNormSilu(gns) => {
            if let Some(extra) = gns.row_extra {
                for (row, &ev) in out.chunks_mut(n).zip(extra) {
                    for v in row {
                        *v += ev;
                    }
                }
            }
            let cg = m / gns.groups;
            let group_len = (cg * n) as f32;
            for (g, chunk) in out.chunks_mut(cg * n).enumerate() {
                let (mean, inv_std) = group_stats(chunk, group_len, gns.eps);
                for (ci, row) in chunk.chunks_mut(n).enumerate() {
                    let gamma = gns.gamma[g * cg + ci];
                    let beta = gns.beta[g * cg + ci];
                    for v in row {
                        let xhat = (*v - mean) * inv_std;
                        *v = silu_val(gamma * xhat + beta);
                    }
                }
            }
        }
    }
}

/// Length of the packed representation of an `(m, k)` A matrix.
pub(crate) fn packed_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Packs row-major `a` (`m x k`) into `MR`-row panels: element `(i, kk)`
/// lands at `panel_base + kk * MR + (i % MR)`, with zero padding for the
/// tail rows, so the micro-kernel reads A contiguously.
pub(crate) fn pack_a_into(a: &[f32], m: usize, k: usize, dst: &mut [f32]) {
    assert_eq!(dst.len(), packed_len(m, k), "packed destination length");
    assert_eq!(a.len(), m * k, "matrix data length");
    for bi in 0..m.div_ceil(MR) {
        let i0 = bi * MR;
        let rows = MR.min(m - i0);
        let panel = &mut dst[bi * MR * k..(bi + 1) * MR * k];
        for r in 0..MR {
            if r < rows {
                let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
                for (kk, &v) in a_row.iter().enumerate() {
                    panel[kk * MR + r] = v;
                }
            } else {
                for kk in 0..k {
                    panel[kk * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs the `(m, k)` matrix `A` into the same panels as [`pack_a_into`],
/// reading it from its row-major transpose `at` (`k x m`), so no
/// transposed copy is materialised: each `k` step of a panel is `MR`
/// contiguous elements of one row of `at`.
pub(crate) fn pack_a_transposed_into(at: &[f32], m: usize, k: usize, dst: &mut [f32]) {
    assert_eq!(dst.len(), packed_len(m, k), "packed destination length");
    assert_eq!(at.len(), m * k, "matrix data length");
    for bi in 0..m.div_ceil(MR) {
        let i0 = bi * MR;
        let rows = MR.min(m - i0);
        let panel = &mut dst[bi * MR * k..(bi + 1) * MR * k];
        for (kk, step) in panel.chunks_exact_mut(MR).enumerate() {
            step[..rows].copy_from_slice(&at[kk * m + i0..kk * m + i0 + rows]);
            step[rows..].fill(0.0);
        }
    }
}

/// Computes `out (m x n) = unpack(packed_a) (m x k) * b (k x n)` plus the
/// fused [`Epilogue`], on the calling thread.
pub(crate) fn gemm_packed(
    packed_a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epilogue: Epilogue<'_>,
) {
    assert_eq!(packed_a.len(), packed_len(m, k), "packed A length");
    assert_eq!(b.len(), k * n, "B length");
    assert_eq!(out.len(), m * n, "output length");
    match epilogue {
        Epilogue::Zero => out.fill(0.0),
        Epilogue::Accumulate => {}
        Epilogue::BiasPerRow(bias) => {
            assert_eq!(bias.len(), m, "per-row bias length");
            for (row, &bv) in out.chunks_mut(n).zip(bias) {
                row.fill(bv);
            }
        }
        Epilogue::BiasPerCol(bias) | Epilogue::BiasSiluPerCol(bias) => {
            assert_eq!(bias.len(), n, "per-column bias length");
            for row in out.chunks_mut(n) {
                row.copy_from_slice(bias);
            }
        }
        Epilogue::BiasGroupNormSilu(gns) => {
            assert_eq!(gns.bias.len(), m, "per-row bias length");
            assert_eq!(gns.gamma.len(), m, "gamma length");
            assert_eq!(gns.beta.len(), m, "beta length");
            assert!(
                gns.groups > 0 && m.is_multiple_of(gns.groups),
                "groups must divide output rows"
            );
            if let Some(extra) = gns.row_extra {
                assert_eq!(extra.len(), m, "row extra length");
            }
            for (row, &bv) in out.chunks_mut(n).zip(gns.bias) {
                row.fill(bv);
            }
        }
    }

    gemm_blocks(packed_a, b, out, m, k, n);
    apply_epilogue_finish(&epilogue, out, m, n);
}

/// Micro-kernel width: output columns accumulated in registers per tile.
/// `MR x NR = 64` f32 accumulators — sized so the tile fits the vector
/// register file once the build targets a 256/512-bit ISA (see the
/// `target-cpu=native` note in `.cargo/config.toml`).
const NR: usize = 16;

/// Panel sweep over all `rows` output rows, one `MR`-row block at a time.
// Kept out of line: inlined into `gemm_packed`, LLVM spills B's base
// pointer and reloads it on every `k` step of the full-width tile, which
// measured slower than the out-of-line kernel.
#[inline(never)]
fn gemm_blocks(packed_a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    let mut done = 0usize;
    while done < rows {
        let block_rows = MR.min(rows - done);
        let panel = &packed_a[(done / MR) * MR * k..][..MR * k];
        let out_block = &mut out[done * n..(done + block_rows) * n];
        let mut j0 = 0usize;
        while j0 < n {
            let width = NR.min(n - j0);
            let acc = if width == NR {
                tile_kernel::<NR>(panel, b, k, n, j0)
            } else {
                tile_kernel_tail(panel, b, k, n, j0, width)
            };
            for (r, acc_row) in acc.iter().enumerate().take(block_rows) {
                let orow = &mut out_block[r * n + j0..r * n + j0 + width];
                for (o, &v) in orow.iter_mut().zip(acc_row) {
                    *o += v;
                }
            }
            j0 += width;
        }
        done += block_rows;
    }
}

/// The register-tiled core: an `MR x W` accumulator block lives entirely
/// in registers across the full `k` loop, so each step touches only one
/// `MR`-wide column of packed A and one `W`-wide row segment of B — no
/// output traffic until the final write-back. Branch-free and
/// autovectorisation-friendly (the const width lets LLVM fully unroll).
#[inline]
fn tile_kernel<const W: usize>(
    panel: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
) -> [[f32; W]; MR] {
    let mut acc = [[0.0f32; W]; MR];
    for kk in 0..k {
        let ap = &panel[kk * MR..kk * MR + MR];
        let bs = &b[kk * n + j0..kk * n + j0 + W];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = ap[r];
            for (a, &bv) in acc_row.iter_mut().zip(bs) {
                *a += ar * bv;
            }
        }
    }
    acc
}

/// Variable-width tail tile for the last `n % NR` columns.
fn tile_kernel_tail(
    panel: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    width: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let ap = &panel[kk * MR..kk * MR + MR];
        let bs = &b[kk * n + j0..kk * n + j0 + width];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = ap[r];
            for (a, &bv) in acc_row.iter_mut().zip(bs) {
                *a += ar * bv;
            }
        }
    }
    acc
}

/// Matrix product `a (m x k) * b (k x n) -> (m x n)`.
///
/// Allocating convenience wrapper over the packed kernel; the inference
/// layers call the packed kernel directly with workspace-owned buffers
/// instead.
///
/// # Panics
///
/// Panics when either input is not 2-D or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");

    let mut panel = vec![0.0f32; packed_len(m, k)];
    pack_a_into(a.data(), m, k, &mut panel);
    let mut out = vec![0.0f32; m * n];
    gemm_packed(&panel, b.data(), &mut out, m, k, n, Epilogue::Zero);
    Tensor::from_vec(&[m, n], out)
}

/// Cache-blocked transpose of row-major `a` (`rows x cols`) into `out`
/// (`cols x rows`).
pub(crate) fn transpose_into(a: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert_eq!(a.len(), rows * cols, "input length");
    assert_eq!(out.len(), rows * cols, "output length");
    const TILE: usize = 32;
    for i0 in (0..rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(rows);
        for j0 in (0..cols).step_by(TILE) {
            let j1 = (j0 + TILE).min(cols);
            for i in i0..i1 {
                for j in j0..j1 {
                    out[j * rows + i] = a[i * cols + j];
                }
            }
        }
    }
}

/// Transposes a 2-D tensor.
///
/// # Panics
///
/// Panics when the input is not 2-D.
pub fn transpose(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "transpose input must be 2-D");
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let mut out = vec![0.0f32; m * n];
    transpose_into(a.data(), m, n, &mut out);
    Tensor::from_vec(&[n, m], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Textbook i-j-k reference product.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            eye.data_mut()[i * 5 + i] = 1.0;
        }
        let c = matmul(&a, &eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn blocked_kernel_matches_naive_on_odd_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Shapes exercising every tail path of the MR blocking.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 4),
            (5, 9, 2),
            (7, 13, 17),
            (16, 36, 256),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let c = matmul(&a, &b);
            for (x, y) in c.data().iter().zip(naive_matmul(&a, &b)) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn fused_bias_epilogues() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let (m, k, n) = (5, 7, 6);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let row_bias: Vec<f32> = (0..m).map(|i| i as f32).collect();
        let col_bias: Vec<f32> = (0..n).map(|j| 10.0 + j as f32).collect();
        let mut panel = vec![0.0f32; packed_len(m, k)];
        pack_a_into(a.data(), m, k, &mut panel);
        let base = naive_matmul(&a, &b);

        let mut out = vec![0.0f32; m * n];
        gemm_packed(
            &panel,
            b.data(),
            &mut out,
            m,
            k,
            n,
            Epilogue::BiasPerRow(&row_bias),
        );
        for i in 0..m {
            for j in 0..n {
                assert!((out[i * n + j] - (base[i * n + j] + i as f32)).abs() < 1e-4);
            }
        }
        gemm_packed(
            &panel,
            b.data(),
            &mut out,
            m,
            k,
            n,
            Epilogue::BiasPerCol(&col_bias),
        );
        for i in 0..m {
            for j in 0..n {
                assert!((out[i * n + j] - (base[i * n + j] + 10.0 + j as f32)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn fused_epilogues_match_unfused_passes_bit_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (m, k, n) = (8, 7, 10);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let col_bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.3 - 1.0).collect();
        let row_bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.2 - 0.5).collect();
        let extra: Vec<f32> = (0..m).map(|i| 0.1 * i as f32).collect();
        let gamma: Vec<f32> = (0..m).map(|i| 1.0 + 0.05 * i as f32).collect();
        let beta: Vec<f32> = (0..m).map(|i| -0.2 + 0.01 * i as f32).collect();
        let mut panel = vec![0.0f32; packed_len(m, k)];
        pack_a_into(a.data(), m, k, &mut panel);

        // BiasSiluPerCol == BiasPerCol then elementwise SiLU.
        let mut fused = vec![0.0f32; m * n];
        gemm_packed(
            &panel,
            b.data(),
            &mut fused,
            m,
            k,
            n,
            Epilogue::BiasSiluPerCol(&col_bias),
        );
        let mut reference = vec![0.0f32; m * n];
        gemm_packed(
            &panel,
            b.data(),
            &mut reference,
            m,
            k,
            n,
            Epilogue::BiasPerCol(&col_bias),
        );
        for v in reference.iter_mut() {
            *v = crate::activation::silu_val(*v);
        }
        assert_eq!(fused, reference);

        // BiasGroupNormSilu == BiasPerRow, then row extra, per-group
        // normalisation over contiguous row blocks, affine, SiLU.
        let groups = 4;
        let mut fused = vec![0.0f32; m * n];
        gemm_packed(
            &panel,
            b.data(),
            &mut fused,
            m,
            k,
            n,
            Epilogue::BiasGroupNormSilu(GroupNormSilu {
                bias: &row_bias,
                row_extra: Some(&extra),
                gamma: &gamma,
                beta: &beta,
                groups,
                eps: 1e-5,
            }),
        );
        let mut reference = vec![0.0f32; m * n];
        gemm_packed(
            &panel,
            b.data(),
            &mut reference,
            m,
            k,
            n,
            Epilogue::BiasPerRow(&row_bias),
        );
        for (row, &ev) in reference.chunks_mut(n).zip(&extra) {
            for v in row {
                *v += ev;
            }
        }
        let cg = m / groups;
        for (g, chunk) in reference.chunks_mut(cg * n).enumerate() {
            let (mean, inv_std) = crate::norm::group_stats(chunk, (cg * n) as f32, 1e-5);
            for (ci, row) in chunk.chunks_mut(n).enumerate() {
                for v in row {
                    let xhat = (*v - mean) * inv_std;
                    *v = crate::activation::silu_val(gamma[g * cg + ci] * xhat + beta[g * cg + ci]);
                }
            }
        }
        assert_eq!(fused, reference);
    }

    #[test]
    fn accumulate_epilogue_matches_zero_then_add_bit_exactly() {
        // Several products added into one buffer that starts at +0.0 — the
        // weight-gradient pattern of `Conv2d::backward` — against the
        // allocating `acc.add_assign(&matmul(..))` form. Signed zeros in
        // the inputs make some products exactly -0.0.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for (m, k, n) in [(3, 5, 7), (8, 9, 16), (13, 4, 33)] {
            let mut acc = Tensor::zeros(&[m, n]);
            let mut out = vec![0.0f32; m * n];
            let mut panel = vec![0.0f32; packed_len(m, k)];
            for round in 0..4 {
                let mut a = Tensor::randn(&[m, k], 1.0, &mut rng);
                let b = Tensor::randn(&[k, n], 1.0, &mut rng);
                if round == 1 {
                    for (i, v) in a.data_mut().iter_mut().enumerate() {
                        *v = if i % 2 == 0 { -0.0 } else { 0.0 };
                    }
                }
                acc.add_assign(&matmul(&a, &b));
                pack_a_into(a.data(), m, k, &mut panel);
                gemm_packed(&panel, b.data(), &mut out, m, k, n, Epilogue::Accumulate);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(acc.data()), "({m},{k},{n}) round {round}");
            }
        }
    }

    #[test]
    fn transposed_packing_matches_transpose_then_pack() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        for (m, k) in [(1, 1), (4, 3), (7, 5), (36, 64)] {
            let at = Tensor::randn(&[k, m], 1.0, &mut rng);
            let mut direct = vec![f32::NAN; packed_len(m, k)];
            pack_a_transposed_into(at.data(), m, k, &mut direct);
            let mut reference = vec![0.0f32; packed_len(m, k)];
            pack_a_into(transpose(&at).data(), m, k, &mut reference);
            assert_eq!(direct, reference, "({m},{k})");
        }
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Tensor::randn(&[4, 7], 1.0, &mut rng);
        assert_eq!(transpose(&transpose(&a)), a);
        // A shape larger than one transpose tile.
        let big = Tensor::randn(&[40, 65], 1.0, &mut rng);
        assert_eq!(transpose(&transpose(&big)), big);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }
}
