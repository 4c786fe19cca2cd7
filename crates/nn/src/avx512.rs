//! The per-element kernels of an AVX-512 build, and the masked slice
//! loads and stores every AVX-512 kernel in this crate shares (the GEMM
//! tile in `gemm::avx512` too).
//!
//! SiLU, its gradient and softmax's exponentials run 16 lanes at a time
//! through one vector `expf`, a port of the FMA variant of glibc's
//! `expf` (`__expf_fma`, the ARM optimized-routines `math/expf.c`): the
//! same f64 steps with the same fused multiply-adds, the same 32-entry
//! table of `2^(i/32)` and the same degree-3 polynomial, eight lanes per
//! f64 register. On every finite input below 88 in magnitude it returns
//! that routine's result, and the lanes outside that range (large, infinite
//! or NaN) are handed to scalar [`f32::exp`]. glibc 2.27 and later run that
//! routine for `expf` on any x86-64 CPU with FMA, which every AVX-512 CPU
//! has, so the kernels here give [`f32::exp`]'s bytes: the activation tests
//! check a strided sweep of all 2^32 inputs in tier-1 and every input in an
//! ignored test. Every other operation is the scalar expression's IEEE
//! operation in its order (`vdivps` for each division), so the portable
//! kernels in `activation.rs` and these agree bit for bit.
//!
//! `unsafe` here covers entering code compiled for AVX-512F and the masked
//! loads and stores, each of which takes a slice whose bounds safe code has
//! checked.

use std::arch::x86_64::{
    __m256, __m512, __m512d, __m512i, __mmask16, _mm256_castpd_ps, _mm256_castps_pd,
    _mm512_add_epi64, _mm512_add_ps, _mm512_and_si512, _mm512_castpd_ps, _mm512_castpd_si512,
    _mm512_castps256_ps512, _mm512_castps512_ps256, _mm512_castps_pd, _mm512_castps_si512,
    _mm512_castsi512_pd, _mm512_castsi512_ps, _mm512_cmpge_epu32_mask, _mm512_cvtpd_ps,
    _mm512_cvtps_pd, _mm512_div_ps, _mm512_extractf64x4_pd, _mm512_fmadd_pd, _mm512_fmsub_pd,
    _mm512_insertf64x4, _mm512_mask_blend_epi64, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
    _mm512_mul_pd, _mm512_mul_ps, _mm512_permutex2var_epi64, _mm512_set1_epi32, _mm512_set1_epi64,
    _mm512_set1_pd, _mm512_set1_ps, _mm512_set_epi64, _mm512_slli_epi64, _mm512_sub_pd,
    _mm512_sub_ps, _mm512_test_epi64_mask, _mm512_xor_si512,
};

/// `f32` lanes in one zmm register.
pub(crate) const LANES: usize = 16;

/// `x = silu(x)` element-wise: `x * (1 / (1 + exp(-x)))`.
pub(crate) fn silu_in_place(xs: &mut [f32]) {
    // SAFETY: this module is compiled only when the build enables
    // AVX-512F for x86-64, so the CPU running it has the instructions
    // `silu_lanes` is compiled to.
    unsafe { silu_lanes(xs) }
}

/// `grad *= silu'(x)` element-wise: with `s = 1 / (1 + exp(-x))`,
/// `grad * (s * (1 + x * (1 - s)))`.
///
/// # Panics
///
/// Panics when the lengths differ.
pub(crate) fn silu_backward_in_place(x: &[f32], grad: &mut [f32]) {
    assert_eq!(x.len(), grad.len(), "shape mismatch");
    // SAFETY: as in `silu_in_place`.
    unsafe { silu_backward_lanes(x, grad) }
}

/// `x = exp(x - shift)` element-wise (softmax's exponentials).
pub(crate) fn exp_sub_in_place(xs: &mut [f32], shift: f32) {
    // SAFETY: as in `silu_in_place`.
    unsafe { exp_sub_lanes(xs, shift) }
}

#[target_feature(enable = "avx512f")]
fn silu_lanes(xs: &mut [f32]) {
    for chunk in xs.chunks_mut(LANES) {
        let x = load(chunk);
        store(chunk, _mm512_mul_ps(x, sigmoid(x)));
    }
}

#[target_feature(enable = "avx512f")]
fn silu_backward_lanes(x: &[f32], grad: &mut [f32]) {
    let one = _mm512_set1_ps(1.0);
    for (gc, xc) in grad.chunks_mut(LANES).zip(x.chunks(LANES)) {
        let (g, v) = (load(gc), load(xc));
        let s = sigmoid(v);
        let slope = _mm512_add_ps(one, _mm512_mul_ps(v, _mm512_sub_ps(one, s)));
        store(gc, _mm512_mul_ps(g, _mm512_mul_ps(s, slope)));
    }
}

#[target_feature(enable = "avx512f")]
fn exp_sub_lanes(xs: &mut [f32], shift: f32) {
    let shift = _mm512_set1_ps(shift);
    for chunk in xs.chunks_mut(LANES) {
        store(chunk, exp(_mm512_sub_ps(load(chunk), shift)));
    }
}

/// `1 / (1 + exp(-x))`, negating by flipping the sign bit (as scalar `-x`
/// does, so `-0.0` stays distinct from `0 - x`).
#[target_feature(enable = "avx512f")]
#[inline]
fn sigmoid(x: __m512) -> __m512 {
    let sign = _mm512_set1_epi32(i32::MIN);
    let neg = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign));
    let one = _mm512_set1_ps(1.0);
    _mm512_div_ps(one, _mm512_add_ps(one, exp(neg)))
}

/// `tab[i] = bits(2^(i / 32)) - (i << 47)`, so that adding `k << 47` to
/// entry `k % 32` gives the bits of `2^(k / 32)` for any integer `k` in
/// the kernel's range (glibc's `__exp2f_data.tab`).
#[rustfmt::skip]
const TABLE: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p+52`: adding it rounds to an integer held in the low mantissa
/// bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
// The polynomial for `2^(r / 32)`, `|r| <= 1/2`: `C0 r^3 + C1 r^2 + C2 r + 1`
// (`0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`, `0x1.62e42ff0c52d6p-6`).
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// Bits of `88.0f32`: lanes at or above it in magnitude, and NaNs, take
/// the scalar routine's special cases.
const SPECIAL_ABS_BITS: i32 = 0x42b0_0000;

/// `exp` of 16 lanes: glibc's `__expf_fma` in every lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn exp(x: __m512) -> __m512 {
    let abs = _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(i32::MAX));
    let special = _mm512_cmpge_epu32_mask(abs, _mm512_set1_epi32(SPECIAL_ABS_BITS));
    let high = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
    let low = exp_f64(_mm512_cvtps_pd(_mm512_castps512_ps256(x)));
    let high = exp_f64(_mm512_cvtps_pd(high));
    let y = _mm512_castps_pd(_mm512_castps256_ps512(low));
    let mut y = _mm512_castpd_ps(_mm512_insertf64x4::<1>(y, _mm256_castps_pd(high)));
    if special != 0 {
        let (mut xs, mut ys) = ([0.0f32; LANES], [0.0f32; LANES]);
        store(&mut xs, x);
        store(&mut ys, y);
        for (lane, (y, x)) in ys.iter_mut().zip(xs).enumerate() {
            if special & (1 << lane) != 0 {
                *y = x.exp();
            }
        }
        y = load(&ys);
    }
    y
}

/// The body of `__expf_fma` on eight lanes widened to f64: with
/// `z = x * 32 / ln 2 = k + r`, `exp(x) = 2^(k / 32) * 2^(r / 32)`.
#[target_feature(enable = "avx512f")]
#[inline]
fn exp_f64(x: __m512d) -> __m256 {
    let (inv_ln2_n, shift) = (_mm512_set1_pd(INV_LN2_N), _mm512_set1_pd(SHIFT));
    // `k + SHIFT` and `r = z - k`, each from the unrounded product.
    let kd = _mm512_fmadd_pd(inv_ln2_n, x, shift);
    let ki = _mm512_castpd_si512(kd);
    let r = _mm512_fmsub_pd(inv_ln2_n, x, _mm512_sub_pd(kd, shift));
    // `2^(k / 32)`: table entry `k % 32`, whose exponent `k << 47` shifts.
    let low = _mm512_permutex2var_epi64(table::<0>(), ki, table::<8>());
    let high = _mm512_permutex2var_epi64(table::<16>(), ki, table::<24>());
    let entry =
        _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), low, high);
    let s = _mm512_castsi512_pd(_mm512_add_epi64(entry, _mm512_slli_epi64::<47>(ki)));
    let z = _mm512_fmadd_pd(_mm512_set1_pd(C0), r, _mm512_set1_pd(C1));
    let r2 = _mm512_mul_pd(r, r);
    let y = _mm512_fmadd_pd(_mm512_set1_pd(C2), r, _mm512_set1_pd(1.0));
    let y = _mm512_fmadd_pd(z, r2, y);
    _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
}

/// Table entries `I..I + 8` in one register.
#[target_feature(enable = "avx512f")]
#[inline]
fn table<const I: usize>() -> __m512i {
    let t = TABLE.map(|v| v as i64);
    _mm512_set_epi64(
        t[I + 7],
        t[I + 6],
        t[I + 5],
        t[I + 4],
        t[I + 3],
        t[I + 2],
        t[I + 1],
        t[I],
    )
}

/// The mask selecting the first `len` (at most 16) lanes.
#[inline(always)]
pub(crate) fn lanes(len: usize) -> __mmask16 {
    assert!(len <= LANES, "at most one register of lanes");
    ((1u32 << len) - 1) as __mmask16
}

/// Loads `s` (at most 16 values) into the low lanes of a register; the
/// lanes past its end read as `0.0`.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn load(s: &[f32]) -> __m512 {
    let mask = lanes(s.len());
    // SAFETY: `mask` enables exactly the first `s.len()` lanes, which lie
    // inside `s`; masked-off lanes are not read and cannot fault.
    unsafe { _mm512_maskz_loadu_ps(mask, s.as_ptr()) }
}

/// Stores the low `s.len()` (at most 16) lanes of `v` into `s`.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn store(s: &mut [f32], v: __m512) {
    let mask = lanes(s.len());
    // SAFETY: `mask` enables exactly the first `s.len()` lanes, which lie
    // inside `s`, borrowed mutably; masked-off lanes are not written.
    unsafe { _mm512_mask_storeu_ps(s.as_mut_ptr(), mask, v) }
}
