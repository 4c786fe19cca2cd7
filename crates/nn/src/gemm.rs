//! Blocked GEMM, packing and transpose kernels for the compute hot path.
//!
//! The multiply is organised as a register-blocked micro-kernel over
//! panel-packed A (Goto & van de Geijn, "Anatomy of High-Performance
//! Matrix Multiplication", ACM TOMS 2008): rows of A are packed in groups
//! of [`MR`] so the inner loop reads one contiguous `MR`-wide column of A
//! per `k` step, streams one row of B, and accumulates `MR` output rows
//! simultaneously. The inner loop is branch-free (no zero-skip). Bias
//! addition is fused into the epilogue (the output is *initialised* with
//! the bias, then accumulated into), which the convolution and linear
//! layers use to avoid a separate pass.
//!
//! # Two tile kernels, one accumulation order
//!
//! `gemm_blocks` computes the product in `MR x NR` tiles with one of two
//! kernels, chosen by the build's target features alone:
//!
//! * built for x86-64 with AVX-512F (the repository's `target-cpu=native`
//!   on an AVX-512 host), the `avx512` kernel keeps a 4x64 tile in 16 zmm
//!   accumulators, with masked loads and stores for the last `n % 16`
//!   columns. It reads B from 64-byte-aligned copies of 64 x 64 strips on
//!   the stack, so its inner loop's 64-byte loads never split a cache
//!   line: read in place, B's rows start wherever the allocator put the
//!   buffer, and the tile's speed changed from one process to the next.
//!   For a same-size convolution ([`conv_same_size`]) it fills the strips
//!   straight from the input planes (the "implicit GEMM" lowering of
//!   Chetlur et al., arXiv:1410.0759), so no im2col matrix is written;
//! * on every other target the portable kernel sweeps each `MR`-row block
//!   with a 4x16 tile in arrays that LLVM autovectorises.
//!
//! Both compute each output element in the naive i-j-k order: the
//! accumulator starts at `+0.0` and, for `k` ascending, adds the rounded
//! product `a[i][k] * b[k][j]` with a rounded add (never a fused
//! multiply-add); the finished sum is then added into the initialised
//! output. Every model, sample and digest is therefore the same bytes
//! whichever kernel a build runs, and the tests pin the order bitwise.
//!
//! # Threading policy
//!
//! Every multiply runs on the calling thread. Parallelism lives one level
//! up, in the `PatternService` worker pool: on the 2-vCPU hosts this tree
//! is timed on, splitting a shipped-profile U-Net call or training step
//! across GEMM threads measured slower than running it serially (see the
//! README's "Threading policy").

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use crate::conv::im2col_into;
use crate::{Tensor, Workspace};

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

/// How the output is initialised before the product is accumulated into
/// it.
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

/// Computes `out (m x n) = unpack(packed_a) (m x k) * b (k x n)`, with
/// `out` initialised as the [`Epilogue`] says, on the calling thread.
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
    init_output(out, m, n, epilogue);
    gemm_blocks(packed_a, b, out, m, k, n);
}

/// Initialises the `m x n` output as the [`Epilogue`] says.
fn init_output(out: &mut [f32], m: usize, n: usize, epilogue: Epilogue<'_>) {
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
        Epilogue::BiasPerCol(bias) => {
            assert_eq!(bias.len(), n, "per-column bias length");
            for row in out.chunks_mut(n) {
                row.copy_from_slice(bias);
            }
        }
    }
}

/// The input side of a same-size stride-1 convolution: `channels` planes
/// of `h x w` per item, read through a `k x k` kernel with `pad` zero
/// rows and columns on each side (`2 * pad + 1 = k`), so the output planes
/// are `h x w` too. Its im2col matrix has one row per `(c, ki, kj)` tap
/// and one column per output position.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Taps {
    pub(crate) channels: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) k: usize,
    pub(crate) pad: usize,
}

impl Taps {
    /// Rows of the im2col matrix: the GEMM's `k`.
    fn rows(&self) -> usize {
        self.channels * self.k * self.k
    }

    /// Output positions per plane: the GEMM's `n`.
    fn positions(&self) -> usize {
        self.h * self.w
    }
}

/// Same-size stride-1 convolution of every `(channels, h, w)` item of `x`
/// into the matching `(m, h, w)` item of `out`: `bias + W * im2col(item)`,
/// with `panel` the packed `(m, channels * k * k)` kernel `W`.
///
/// Built for AVX-512F, the tile kernel copies its B strips straight from
/// the item's planes, one `(c, ki, kj)` tap per strip row with the padding
/// read as `0.0`, so no im2col matrix is written; on every other target
/// `im2col` writes the matrix into `ws` scratch for the portable kernel.
/// The strips hold the im2col matrix's values, so each output sums the
/// same products in the same order either way.
///
/// # Panics
///
/// Panics when `x` or `out` is not a whole number of items, when they
/// hold different item counts, or when the geometry is not same-size.
pub(crate) fn conv_same_size(
    panel: &[f32],
    bias: &[f32],
    x: &[f32],
    out: &mut [f32],
    m: usize,
    taps: Taps,
    ws: &mut Workspace,
) {
    let (rows, l) = (taps.rows(), taps.positions());
    assert_eq!(2 * taps.pad + 1, taps.k, "same-size kernel");
    assert_eq!(panel.len(), packed_len(m, rows), "packed kernel length");
    let item_len = taps.channels * l;
    assert!(x.len().is_multiple_of(item_len), "whole input items");
    assert_eq!(x.len() / item_len * m * l, out.len(), "output length");
    let items = x.chunks_exact(item_len).zip(out.chunks_exact_mut(m * l));
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    {
        let Taps {
            channels,
            h,
            w,
            k,
            pad,
        } = taps;
        let mut cols = ws.take_uninit(&[rows, l]);
        for (item, o) in items {
            im2col_into(item, channels, h, w, k, 1, pad, h, w, cols.data_mut());
            gemm_packed(
                panel,
                cols.data(),
                o,
                m,
                rows,
                l,
                Epilogue::BiasPerRow(bias),
            );
        }
        ws.recycle(cols);
    }
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        // The strips live on the stack: no scratch to take.
        let _ = ws;
        for (item, o) in items {
            init_output(o, m, l, Epilogue::BiasPerRow(bias));
            gemm_planes(panel, item, taps, o, m);
        }
    }
}

/// Adds `unpack(packed_a) (rows x k) * b (k x n)` into `out` with the
/// build's tile kernel.
// Kept out of line: inlined into `gemm_packed`, LLVM spills B's base
// pointer and reloads it on every `k` step of the portable full-width
// tile, which measured slower than the out-of-line kernel.
#[inline(never)]
fn gemm_blocks(packed_a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    tiles::gemm(packed_a, b, out, rows, k, n);
}

/// Adds `unpack(packed_a) (rows x taps.rows()) * im2col(item)` into `out`,
/// the AVX-512 tile reading the im2col matrix from the item's planes.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(never)]
fn gemm_planes(packed_a: &[f32], item: &[f32], taps: Taps, out: &mut [f32], rows: usize) {
    assert_eq!(item.len(), taps.channels * taps.positions(), "item length");
    // The strip fill works out plane offsets in 32-bit lanes.
    let reach = taps.positions() + 16 + taps.pad * (taps.w + 1);
    assert!(
        i32::try_from(reach).is_ok(),
        "plane too large for the strip fill"
    );
    avx512::gemm_planes(packed_a, item, taps, out, rows);
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use avx512 as tiles;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use portable as tiles;

/// The portable tile kernel: an `MR x NR` block of `f32` arrays that LLVM
/// autovectorises (256-bit `vmulps` + `vaddps` under AVX2).
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod portable {
    use super::MR;

    /// Micro-kernel width: output columns accumulated in registers per
    /// tile. `MR x NR = 64` f32 accumulators, eight ymm registers once the
    /// build targets a 256-bit ISA (see the `target-cpu=native` note in
    /// `.cargo/config.toml`).
    const NR: usize = 16;

    /// Panel sweep over all `rows` output rows, one `MR`-row block at a
    /// time.
    #[inline(always)]
    pub(super) fn gemm(
        packed_a: &[f32],
        b: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let mut done = 0usize;
        while done < rows {
            let block_rows = MR.min(rows - done);
            let panel = &packed_a[(done / MR) * MR * k..][..MR * k];
            let out_block = &mut out[done * n..(done + block_rows) * n];
            sweep(panel, b, out_block, block_rows, k, n);
            done += block_rows;
        }
    }

    /// Adds `panel (MR x k) * b (k x n)` into the `block_rows` rows of
    /// `out_block`, one `MR x NR` tile at a time.
    #[inline(always)]
    fn sweep(
        panel: &[f32],
        b: &[f32],
        out_block: &mut [f32],
        block_rows: usize,
        k: usize,
        n: usize,
    ) {
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
    }

    /// The register-tiled core: an `MR x W` accumulator block lives
    /// entirely in registers across the full `k` loop, so each step
    /// touches only one `MR`-wide column of packed A and one `W`-wide row
    /// segment of B — no output traffic until the final write-back.
    /// Branch-free and autovectorisation-friendly (the const width lets
    /// LLVM fully unroll).
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
}

/// The AVX-512 tile kernel: an `MR x NR` tile of 16 zmm accumulators,
/// each `k` step one `_mm512_mul_ps` and then one `_mm512_add_ps` per
/// accumulator, so every element sees the portable kernel's operations in
/// its order. The tile reads B from 64-byte-aligned strips on the stack,
/// so its loads never split a cache line wherever the allocator placed B
/// (only the copy into the strip reads B in place, once per row group).
/// B is a row-major matrix or a same-size convolution's input planes, whose
/// im2col rows the strip copy gathers. `unsafe` here covers entering code
/// compiled for AVX-512F; the vector loads and stores are the checked
/// slice ones of `crate::avx512`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[allow(unsafe_code)]
mod avx512 {
    use super::{Taps, MR};
    use crate::avx512::{lanes, load, store, LANES};
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_add_epi32, _mm512_add_ps, _mm512_cmpge_epi32_mask,
        _mm512_cmpge_epu32_mask, _mm512_cmplt_epi32_mask, _mm512_cmplt_epu32_mask,
        _mm512_mask_sub_epi32, _mm512_maskz_permutexvar_ps, _mm512_mul_ps, _mm512_set1_epi32,
        _mm512_set1_ps, _mm512_set_epi32, _mm512_setzero_ps, _mm512_setzero_si512,
        _mm512_sub_epi32,
    };
    use std::ops::Range;

    /// zmm registers per tile row: `MR x VECS = 16` accumulators, half the
    /// register file, leaving room for the B row and the products.
    const VECS: usize = 4;
    /// Micro-kernel width: output columns accumulated in registers per
    /// tile.
    const NR: usize = LANES * VECS;
    /// `k` steps per strip of B: a `KC x NR` strip is 16 KiB, so it stays
    /// in L1 while every row block of a group streams through it.
    const KC: usize = 64;
    /// `MR`-row blocks per group: between strips a group's partial sums
    /// wait in a `GROUP * MR x NR` buffer (16 KiB).
    const GROUP: usize = 16;

    /// Rows of `NR` lanes, each starting on a cache line.
    #[repr(C, align(64))]
    struct Lines<const R: usize>([[f32; NR]; R]);

    /// Where a product's B (`k x n`) comes from.
    #[derive(Clone, Copy)]
    enum Source<'a> {
        /// A row-major matrix.
        Dense(&'a [f32]),
        /// The im2col matrix of one same-size convolution item, read from
        /// the item's `(channels, h, w)` planes.
        Planes(&'a [f32], Taps),
    }

    /// The operands of one product: packed A (`rows x k`, in `MR`-row
    /// panels) and B (`k x n`).
    struct Operands<'a> {
        packed_a: &'a [f32],
        b: Source<'a>,
        rows: usize,
        k: usize,
        n: usize,
    }

    /// One product's stack scratch: the current strip of B, and a group's
    /// partial sums between strips.
    struct Scratch {
        strip: Lines<KC>,
        partial: Lines<{ GROUP * MR }>,
    }

    /// Adds `unpack(packed_a) (rows x k) * b (k x n)` into `out`.
    #[inline(always)]
    pub(super) fn gemm(
        packed_a: &[f32],
        b: &[f32],
        out: &mut [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let b = Source::Dense(b);
        sweep(
            &Operands {
                packed_a,
                b,
                rows,
                k,
                n,
            },
            out,
        );
    }

    /// Adds `unpack(packed_a) (rows x taps.rows()) * im2col(item)` into
    /// `out`.
    #[inline(always)]
    pub(super) fn gemm_planes(
        packed_a: &[f32],
        item: &[f32],
        taps: Taps,
        out: &mut [f32],
        rows: usize,
    ) {
        let (b, k, n) = (Source::Planes(item, taps), taps.rows(), taps.positions());
        sweep(
            &Operands {
                packed_a,
                b,
                rows,
                k,
                n,
            },
            out,
        );
    }

    #[inline(always)]
    fn sweep(ops: &Operands<'_>, out: &mut [f32]) {
        // SAFETY: this module is compiled only when the build enables
        // AVX-512F for x86-64, so the CPU running it has the instructions
        // `sweep_strips` is compiled to.
        unsafe { sweep_strips(ops, out) }
    }

    /// One `NR`-column strip of the output at a time; the last, `n % NR`
    /// columns wide, takes as few registers as hold it, the last
    /// `n % LANES` columns through masked lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn sweep_strips(ops: &Operands<'_>, out: &mut [f32]) {
        let mut scratch = Scratch {
            strip: Lines([[0.0; NR]; KC]),
            partial: Lines([[0.0; NR]; GROUP * MR]),
        };
        let mut j0 = 0usize;
        while j0 < ops.n {
            let cols = j0..j0 + NR.min(ops.n - j0);
            j0 = cols.end;
            match cols.len().div_ceil(LANES) {
                1 => strip_tiles::<1>(ops, out, cols, &mut scratch),
                2 => strip_tiles::<2>(ops, out, cols, &mut scratch),
                3 => strip_tiles::<3>(ops, out, cols, &mut scratch),
                _ => strip_tiles::<VECS>(ops, out, cols, &mut scratch),
            }
        }
    }

    /// Adds output columns `cols` of the product into `out`, with `V` zmm
    /// accumulators per row. For each group of `GROUP` row blocks and each
    /// `KC` steps of `k`, those columns of B are copied into the strip
    /// (zeros past `cols`, up to `V` registers), and every block of the
    /// group runs its tile over the strip. A tile's sums wait in the
    /// partial buffer between strips and are added into `out` after the
    /// last one, so each output element still sums its `k` products in
    /// ascending order from `+0.0`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn strip_tiles<const V: usize>(
        ops: &Operands<'_>,
        out: &mut [f32],
        cols: Range<usize>,
        scratch: &mut Scratch,
    ) {
        let Operands {
            packed_a,
            b,
            rows,
            k,
            n,
        } = *ops;
        let blocks = rows.div_ceil(MR);
        for g0 in (0..blocks).step_by(GROUP) {
            let mut k0 = 0usize;
            loop {
                let kc = KC.min(k - k0);
                let last = k0 + kc == k;
                let lines = &mut scratch.strip.0[..kc];
                match b {
                    Source::Dense(b) => {
                        for (kk, line) in lines.iter_mut().enumerate() {
                            let row = (k0 + kk) * n;
                            let bv = load_row::<V>(&b[row + cols.start..row + cols.end]);
                            store_row(&mut line[..V * LANES], bv);
                        }
                    }
                    Source::Planes(item, taps) => {
                        gather::<V>(item, taps, k0, cols.clone(), lines);
                    }
                }
                for blk in g0..blocks.min(g0 + GROUP) {
                    let panel = &packed_a[blk * MR * k + k0 * MR..][..kc * MR];
                    let partial = &mut scratch.partial.0[(blk - g0) * MR..][..MR];
                    let mut acc = [[_mm512_setzero_ps(); V]; MR];
                    if k0 > 0 {
                        for (acc_row, line) in acc.iter_mut().zip(partial.iter()) {
                            *acc_row = load_row::<V>(&line[..V * LANES]);
                        }
                    }
                    for (ap, line) in panel.chunks_exact(MR).zip(&scratch.strip.0[..kc]) {
                        let bv = load_row::<V>(&line[..V * LANES]);
                        for (acc_row, &a) in acc.iter_mut().zip(ap) {
                            let av = _mm512_set1_ps(a);
                            for (c, &bx) in acc_row.iter_mut().zip(&bv) {
                                *c = _mm512_add_ps(*c, _mm512_mul_ps(av, bx));
                            }
                        }
                    }
                    if !last {
                        for (line, &acc_row) in partial.iter_mut().zip(&acc) {
                            store_row(&mut line[..V * LANES], acc_row);
                        }
                        continue;
                    }
                    let block_rows = MR.min(rows - blk * MR);
                    for (r, acc_row) in acc.iter().enumerate().take(block_rows) {
                        let row = (blk * MR + r) * n;
                        let o = &mut out[row + cols.start..row + cols.end];
                        let mut sums = load_row::<V>(o);
                        for (s, &c) in sums.iter_mut().zip(acc_row) {
                            *s = _mm512_add_ps(*s, c);
                        }
                        store_row(o, sums);
                    }
                }
                if last {
                    break;
                }
                k0 += kc;
            }
        }
    }

    /// Writes columns `cols` of im2col rows `k0..k0 + lines.len()` of `item`
    /// into `lines`: the values the im2col matrix holds there, and zeros
    /// past them. Row `(c, ki, kj)` is a tap, and its column `j` (output
    /// position `(oy, ox)`) holds element `j + (ki - pad) w + kj - pad` of
    /// plane `c`, or `0.0` where input `(oy + ki - pad, ox + kj - pad)`
    /// lies in the padding: outside the plane (top and bottom rows) or
    /// past a row's edge (left and right columns, whose elements are the
    /// neighbouring rows' ends). Each register of a line is one window of
    /// 16 consecutive plane elements, moved into its lanes by a permute
    /// that zeroes the padding. The windows, lane indices and masks depend
    /// on `(ki, kj)` alone, so they are worked out once per tap and reused
    /// for every channel's row.
    // Kept out of line, so that its constants are not hoisted into
    // registers the tile loop needs.
    #[target_feature(enable = "avx512f")]
    #[inline(never)]
    fn gather<const V: usize>(
        item: &[f32],
        taps: Taps,
        k0: usize,
        cols: Range<usize>,
        lines: &mut [[f32; NR]],
    ) {
        let Taps { h, w, k, pad, .. } = taps;
        let (hw, kk) = (h * w, k * k);
        let iota = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        // Each lane's column `j`, its output column `ox`, and whether it
        // lies inside `cols`.
        let mut pos = [iota; V];
        let mut ox = [iota; V];
        let mut in_cols = [0 as __mmask16; V];
        let wv = _mm512_set1_epi32(w as i32);
        for (v, ((pos, ox), in_cols)) in pos.iter_mut().zip(&mut ox).zip(&mut in_cols).enumerate() {
            let j = cols.start + v * LANES;
            *pos = _mm512_add_epi32(_mm512_set1_epi32(j as i32), iota);
            *ox = _mm512_add_epi32(_mm512_set1_epi32((j % w) as i32), iota);
            loop {
                let wrapped = _mm512_cmpge_epu32_mask(*ox, wv);
                if wrapped == 0 {
                    break;
                }
                *ox = _mm512_mask_sub_epi32(*ox, wrapped, *ox, wv);
            }
            *in_cols = lanes(cols.end.saturating_sub(j).min(LANES));
        }
        let hwv = _mm512_set1_epi32(hw as i32);
        // The channel and tap of row `k0 + t`.
        let (mut c0, mut ki, mut kj) = (k0 / kk, k0 % kk / k, k0 % k);
        for t in 0..kk.min(lines.len()) {
            let shift = (ki * w + kj) as isize - (pad * (w + 1)) as isize;
            let (ox0, ox1) = (pad.saturating_sub(kj), (w + pad).saturating_sub(kj).min(w));
            let (ox0, ox1) = (_mm512_set1_epi32(ox0 as i32), _mm512_set1_epi32(ox1 as i32));
            // Per register: the window's start in the plane, the lanes
            // that read it, and the window lane each reads.
            let mut windows = [(0usize, 0 as __mmask16, iota); V];
            for (v, win) in windows.iter_mut().enumerate() {
                let idx = _mm512_add_epi32(pos[v], _mm512_set1_epi32(shift as i32));
                let in_plane = _mm512_cmpge_epi32_mask(idx, _mm512_setzero_si512())
                    & _mm512_cmplt_epi32_mask(idx, hwv);
                let in_row =
                    _mm512_cmpge_epu32_mask(ox[v], ox0) & _mm512_cmplt_epu32_mask(ox[v], ox1);
                let src = (cols.start + v * LANES) as isize + shift;
                let base = src.clamp(0, hw.saturating_sub(LANES) as isize) as usize;
                let perm = _mm512_sub_epi32(idx, _mm512_set1_epi32(base as i32));
                *win = (base, in_plane & in_row & in_cols[v], perm);
            }
            let rows = lines[t..].iter_mut().step_by(kk);
            for (c, line) in (c0..).zip(rows) {
                let plane = &item[c * hw..(c + 1) * hw];
                for (reg, &(base, mask, perm)) in line.chunks_exact_mut(LANES).zip(&windows) {
                    let window = load(&plane[base..(base + LANES).min(hw)]);
                    store(reg, _mm512_maskz_permutexvar_ps(mask, perm, window));
                }
            }
            kj += 1;
            if kj == k {
                (kj, ki) = (0, ki + 1);
                if ki == k {
                    (ki, c0) = (0, c0 + 1);
                }
            }
        }
    }

    /// Loads `s` into `V` registers: `16 (V - 1)` values through full
    /// loads, the remaining one to sixteen through a masked one.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load_row<const V: usize>(s: &[f32]) -> [__m512; V] {
        let (full, tail) = s.split_at(LANES * (V - 1));
        let mut regs = [_mm512_setzero_ps(); V];
        for (reg, chunk) in regs.iter_mut().zip(full.chunks_exact(LANES)) {
            *reg = load(chunk);
        }
        regs[V - 1] = load(tail);
        regs
    }

    /// Stores `regs` into `s`, the inverse of [`load_row`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn store_row<const V: usize>(s: &mut [f32], regs: [__m512; V]) {
        let (full, tail) = s.split_at_mut(LANES * (V - 1));
        for (&reg, chunk) in regs.iter().zip(full.chunks_exact_mut(LANES)) {
            store(chunk, reg);
        }
        store(tail, regs[V - 1]);
    }
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
        // Shapes exercising every tail path of the MR blocking and of
        // either kernel's tile width (one to four 16-lane registers, full
        // or masked), products spanning several of the AVX-512 kernel's
        // 16-block row groups and 64-step `k` strips, then the products
        // the shipped U-Net issues.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 4),
            (5, 9, 2),
            (7, 13, 17),
            (6, 11, 40),
            (5, 7, 63),
            (9, 3, 100),
            (70, 130, 40),
            (133, 65, 100),
            (16, 36, 256),
            (32, 36, 256),
            (32, 288, 256),
            (64, 576, 64),
            (64, 1152, 64),
            (8, 288, 256),
            (64, 64, 64),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let c = matmul(&a, &b);
            // Bitwise: the kernel sums over `k` in ascending order from
            // +0.0 with a rounded multiply then a rounded add, exactly as
            // the naive loop does.
            for (x, y) in c.data().iter().zip(naive_matmul(&a, &b)) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}): {x} vs {y}");
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
                let expected = base[i * n + j] + i as f32;
                assert_eq!(out[i * n + j].to_bits(), expected.to_bits(), "({i},{j})");
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
                let expected = base[i * n + j] + (10.0 + j as f32);
                assert_eq!(out[i * n + j].to_bits(), expected.to_bits(), "({i},{j})");
            }
        }
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
    fn same_size_convolution_matches_im2col_then_gemm_bit_for_bit() {
        // `conv_same_size` (on AVX-512 the tile gathers its strips from the
        // input planes) against im2col into a matrix and the dense product,
        // bitwise: every same-size convolution the shipped U-Net issues,
        // then odd sides, where strips and registers end mid-row, flat
        // planes and other kernel sizes.
        let shapes = [
            // (input channels, output channels, h, w, k)
            (4, 32, 16, 16, 3), // stem
            (32, 32, 16, 16, 3),
            (32, 32, 8, 8, 3),
            (32, 64, 16, 16, 3),
            (32, 64, 8, 8, 3),
            (64, 64, 8, 8, 3),
            (64, 64, 16, 16, 3), // after the upsample
            (128, 64, 8, 8, 3),  // decoder, with the skip concatenated
            (96, 64, 8, 8, 3),
            (96, 32, 16, 16, 3),
            (64, 32, 16, 16, 3),
            (32, 8, 16, 16, 3), // head
            (3, 5, 5, 5, 3),
            (2, 6, 7, 7, 3),
            (5, 4, 9, 9, 3),
            (3, 3, 5, 9, 3),
            (2, 3, 1, 6, 3),
            (3, 5, 9, 7, 5),
            (2, 4, 6, 5, 1),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let mut ws = Workspace::new();
        for (channels, m, h, w, k) in shapes {
            let taps = Taps {
                channels,
                h,
                w,
                k,
                pad: k / 2,
            };
            let (rows, l, items) = (channels * k * k, h * w, 2);
            let weights = Tensor::randn(&[m, rows], 1.0, &mut rng);
            let mut panel = vec![0.0f32; packed_len(m, rows)];
            pack_a_into(weights.data(), m, rows, &mut panel);
            let bias = Tensor::randn(&[m], 1.0, &mut rng);
            let clean = Tensor::randn(&[items, channels, h, w], 1.0, &mut rng);
            // The same input with infinities and NaNs at a corner, an edge
            // and the middle of the last item's planes.
            let mut special = clean.clone();
            let last = special.len() - channels * l;
            for (at, v) in [
                (0, f32::INFINITY),
                (w - 1, f32::NAN),
                (l / 2, f32::NEG_INFINITY),
                (l - 1, -f32::NAN),
            ] {
                special.data_mut()[last + at] = v;
            }
            for x in [&clean, &special] {
                let mut got = vec![f32::NAN; items * m * l];
                conv_same_size(&panel, bias.data(), x.data(), &mut got, m, taps, &mut ws);
                let mut cols = vec![0.0f32; rows * l];
                let mut expect = vec![0.0f32; items * m * l];
                let outs = expect.chunks_exact_mut(m * l);
                for (item, out) in x.data().chunks_exact(channels * l).zip(outs) {
                    crate::conv::im2col_into(item, channels, h, w, k, 1, k / 2, h, w, &mut cols);
                    gemm_packed(
                        &panel,
                        &cols,
                        out,
                        m,
                        rows,
                        l,
                        Epilogue::BiasPerRow(bias.data()),
                    );
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&expect),
                    "{channels}->{m} at {h}x{w}, {k}x{k}"
                );
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
