//! Explicit f64×4 dot-product kernels for the KCD lag scan.
//!
//! The KCD lag scan ([`crate::kcd_incremental`]) reduces every lag to one
//! or two mean-centred dot products over normalised window slices. This
//! module owns those inner loops. There is one kernel per target, chosen
//! at compile time: SSE2 intrinsics on `x86_64` (SSE2 is part of that
//! target's baseline, so no runtime detection is needed) and the portable
//! four-lane code everywhere else.
//!
//! # Bit-identity contract
//!
//! Both kernels compute **bit-identical** results by construction, so
//! golden verdict streams stay byte-unchanged on every target. The shared
//! algorithm for a dot product of length `n` is:
//!
//! 1. Split into `blocks = n / 4` full blocks. Virtual lane `j` (0..4)
//!    accumulates `x[4b + j] * y[4b + j]` for `b` in `0..blocks`, each
//!    lane as an independent sequential sum.
//! 2. Reduce lanes in the fixed order `(l0 + l1) + (l2 + l3)`.
//! 3. Add the tail elements `4 * blocks..n` sequentially onto the
//!    reduced sum.
//!
//! The portable kernel ([`dot_scalar`], [`dot2_scalar`]) emulates the four
//! lanes with an `[f64; 4]` and stays public as the bitwise test oracle;
//! SSE2 uses two `__m128d` accumulators (lanes 0–1 and 2–3). Neither uses
//! FMA — a fused multiply-add rounds once where the contract rounds
//! twice. `tests/simd_differential.rs` pins `to_bits` equality between
//! the compiled kernel and the oracle at every length in `0..=300`.
//!
//! Relative to the PR 4 sequential kernels this reassociates the
//! accumulation (four partial sums instead of one running sum), which
//! moves raw correlations by a few ULP; `score_to_level`'s 1e-12
//! quantisation grid absorbs the difference (see DESIGN.md §13).

// The SSE2 kernel is the only unsafe code in library crates; the crate
// root downgrades `forbid(unsafe_code)` to `deny` solely so this module
// can scope the allowance, and dbclint's `no-unsafe` rule still
// inventories every site below via audited waivers.
#![allow(unsafe_code)]

/// Dot product of two equal-length slices under the four-lane scheme.
///
/// Bit-identical to [`dot_scalar`]; see the module docs for the contract.
#[inline]
pub fn dot(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline, so the kernel's
    // `target_feature` contract always holds on this target.
    // dbclint: allow(no-unsafe) — SSE2 kernel call; SSE2 is the x86_64 baseline
    unsafe {
        sse2::dot(xs, ys)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot_scalar(xs, ys)
    }
}

/// Two fused dot products over equal-length chains, one memory sweep.
///
/// Equivalent to `(dot(x1, y1), dot(x2, y2))` bit-for-bit — each chain
/// follows the same lane scheme as [`dot`] — but walks the four slices
/// together, which is how the lag scan pairs the `+s`/`-s` shifted
/// windows.
#[inline]
pub fn dot2(x1: &[f64], y1: &[f64], x2: &[f64], y2: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x1.len(), y1.len());
    debug_assert_eq!(x1.len(), x2.len());
    debug_assert_eq!(x2.len(), y2.len());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `dot` — SSE2 is the x86_64 baseline.
    // dbclint: allow(no-unsafe) — SSE2 kernel call; SSE2 is the x86_64 baseline
    unsafe {
        sse2::dot2(x1, y1, x2, y2)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot2_scalar(x1, y1, x2, y2)
    }
}

/// Portable kernel: the reference four-lane emulation of [`dot`].
pub fn dot_scalar(xs: &[f64], ys: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let x4 = xs.chunks_exact(4);
    let y4 = ys.chunks_exact(4);
    let xt = x4.remainder();
    let yt = y4.remainder();
    for (x, y) in x4.zip(y4) {
        lanes[0] += x[0] * y[0];
        lanes[1] += x[1] * y[1];
        lanes[2] += x[2] * y[2];
        lanes[3] += x[3] * y[3];
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (&x, &y) in xt.iter().zip(yt.iter()) {
        sum += x * y;
    }
    sum
}

/// Portable kernel: the reference four-lane emulation of [`dot2`].
pub fn dot2_scalar(x1: &[f64], y1: &[f64], x2: &[f64], y2: &[f64]) -> (f64, f64) {
    let mut a = [0.0f64; 4];
    let mut b = [0.0f64; 4];
    let x14 = x1.chunks_exact(4);
    let y14 = y1.chunks_exact(4);
    let x24 = x2.chunks_exact(4);
    let y24 = y2.chunks_exact(4);
    let (x1t, y1t) = (x14.remainder(), y14.remainder());
    let (x2t, y2t) = (x24.remainder(), y24.remainder());
    for (((x1c, y1c), x2c), y2c) in x14.zip(y14).zip(x24).zip(y24) {
        a[0] += x1c[0] * y1c[0];
        a[1] += x1c[1] * y1c[1];
        a[2] += x1c[2] * y1c[2];
        a[3] += x1c[3] * y1c[3];
        b[0] += x2c[0] * y2c[0];
        b[1] += x2c[1] * y2c[1];
        b[2] += x2c[2] * y2c[2];
        b[3] += x2c[3] * y2c[3];
    }
    let mut s1 = (a[0] + a[1]) + (a[2] + a[3]);
    let mut s2 = (b[0] + b[1]) + (b[2] + b[3]);
    for (&x, &y) in x1t.iter().zip(y1t.iter()) {
        s1 += x * y;
    }
    for (&x, &y) in x2t.iter().zip(y2t.iter()) {
        s2 += x * y;
    }
    (s1, s2)
}

/// The `x86_64` kernel: lanes 0–1 and 2–3 in two `__m128d` accumulators.
///
/// # Safety
/// Its functions are `#[target_feature(enable = "sse2")]`, so callers
/// must run on a CPU with SSE2. Every `x86_64` CPU has it.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128d, _mm_add_pd, _mm_cvtsd_f64, _mm_loadu_pd, _mm_mul_pd, _mm_setzero_pd,
        _mm_unpackhi_pd,
    };

    /// Lanes 0–1 and 2–3 of one four-element block.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn load(block: &[f64; 4]) -> (__m128d, __m128d) {
        let p = block.as_ptr();
        // SAFETY: `block` holds exactly four f64s, so the unaligned
        // 2-wide loads at `p` and `p + 2` both stay inside it.
        unsafe { (_mm_loadu_pd(p), _mm_loadu_pd(p.add(2))) } // dbclint: allow(no-unsafe) — in-bounds unaligned loads from a four-element array; SSE2 is the x86_64 baseline
    }

    /// `(l0 + l1) + (l2 + l3)` over the two accumulators.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn reduce(lo: __m128d, hi: __m128d) -> f64 {
        (_mm_cvtsd_f64(lo) + _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)))
            + (_mm_cvtsd_f64(hi) + _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)))
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) fn dot(xs: &[f64], ys: &[f64]) -> f64 {
        let (xb, xt) = xs.as_chunks::<4>();
        let (yb, yt) = ys.as_chunks::<4>();
        let mut lo = _mm_setzero_pd();
        let mut hi = _mm_setzero_pd();
        for (x, y) in xb.iter().zip(yb) {
            let (x01, x23) = load(x);
            let (y01, y23) = load(y);
            lo = _mm_add_pd(lo, _mm_mul_pd(x01, y01));
            hi = _mm_add_pd(hi, _mm_mul_pd(x23, y23));
        }
        let mut sum = reduce(lo, hi);
        for (&x, &y) in xt.iter().zip(yt) {
            sum += x * y;
        }
        sum
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) fn dot2(x1: &[f64], y1: &[f64], x2: &[f64], y2: &[f64]) -> (f64, f64) {
        let (x1b, x1t) = x1.as_chunks::<4>();
        let (y1b, y1t) = y1.as_chunks::<4>();
        let (x2b, x2t) = x2.as_chunks::<4>();
        let (y2b, y2t) = y2.as_chunks::<4>();
        let (mut a_lo, mut a_hi) = (_mm_setzero_pd(), _mm_setzero_pd());
        let (mut b_lo, mut b_hi) = (_mm_setzero_pd(), _mm_setzero_pd());
        for (((x1c, y1c), x2c), y2c) in x1b.iter().zip(y1b).zip(x2b).zip(y2b) {
            let ((x1a, x1h), (y1a, y1h)) = (load(x1c), load(y1c));
            let ((x2a, x2h), (y2a, y2h)) = (load(x2c), load(y2c));
            a_lo = _mm_add_pd(a_lo, _mm_mul_pd(x1a, y1a));
            a_hi = _mm_add_pd(a_hi, _mm_mul_pd(x1h, y1h));
            b_lo = _mm_add_pd(b_lo, _mm_mul_pd(x2a, y2a));
            b_hi = _mm_add_pd(b_hi, _mm_mul_pd(x2h, y2h));
        }
        let mut s1 = reduce(a_lo, a_hi);
        let mut s2 = reduce(b_lo, b_hi);
        for (&x, &y) in x1t.iter().zip(y1t) {
            s1 += x * y;
        }
        for (&x, &y) in x2t.iter().zip(y2t) {
            s2 += x * y;
        }
        (s1, s2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random series (xorshift-mixed LCG).
    fn series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let bits = (state >> 11) as f64 / (1u64 << 53) as f64;
                (bits - 0.5) * 200.0
            })
            .collect()
    }

    /// The documented lane scheme, written as plainly as possible.
    fn dot_reference(xs: &[f64], ys: &[f64]) -> f64 {
        let blocks = xs.len() / 4;
        let mut lanes = [0.0f64; 4];
        for b in 0..blocks {
            for j in 0..4 {
                lanes[j] += xs[4 * b + j] * ys[4 * b + j];
            }
        }
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in 4 * blocks..xs.len() {
            sum += xs[i] * ys[i];
        }
        sum
    }

    /// The oracle reproduces the documented lane scheme bit-for-bit,
    /// across block counts and all four tail lengths. The compiled
    /// kernel is pinned to the oracle by `tests/simd_differential.rs`.
    #[test]
    fn oracle_follows_the_documented_lane_scheme() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 11, 16, 29, 64, 301] {
            let xs = series(n, 7);
            let ys = series(n, 1234);
            let want = dot_reference(&xs, &ys);
            let got = dot_scalar(&xs, &ys);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}: {got} vs {want}");
            let (s1, s2) = dot2_scalar(&xs, &ys, &ys, &xs);
            assert_eq!(s1.to_bits(), want.to_bits(), "dot2 chain 1, n={n}");
            assert_eq!(
                s2.to_bits(),
                dot_reference(&ys, &xs).to_bits(),
                "dot2 chain 2, n={n}"
            );
        }
    }
}
