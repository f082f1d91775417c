//! Differential tests for the SIMD lag-scan kernels.
//!
//! `core::simd` compiles one kernel per target (SSE2 on `x86_64`, the
//! portable four-lane code elsewhere). It shares one accumulation scheme
//! with the public portable oracle and is **bit-identical to it by
//! construction**. These tests pin both layers of that contract:
//!
//! 1. `simd::dot`/`dot2` equal the oracle bit for bit at every length in
//!    `0..=300`, which covers every tail length at every block count the
//!    lag scan meets;
//! 2. the lag scan built on them agrees with the naive whole-window KCD
//!    oracle within the cross-implementation tolerance.
//!
//! The committed golden verdict streams (`tests/golden.rs`) anchor the
//! end-to-end behaviour of the one kernel.

use dbcatcher::core::kcd::kcd;
use dbcatcher::core::kcd_incremental::IncrementalCorrelator;
use dbcatcher::core::simd;
use proptest::prelude::*;

/// Longest slice the kernel property checks; every shorter length is
/// checked too.
const MAX_LEN: usize = 300;

fn series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 8..max_len)
}

fn full(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len..len + 1)
}

proptest! {
    /// The compiled `dot` and `dot2` reproduce the portable oracle bit
    /// for bit on every prefix length `0..=MAX_LEN` of random slices.
    #[test]
    fn dot_kernels_match_scalar_oracle_at_every_length(
        x1 in full(MAX_LEN),
        y1 in full(MAX_LEN),
        x2 in full(MAX_LEN),
        y2 in full(MAX_LEN),
    ) {
        for n in 0..=MAX_LEN {
            let (a1, b1, a2, b2) = (&x1[..n], &y1[..n], &x2[..n], &y2[..n]);
            let want1 = simd::dot_scalar(a1, b1);
            let got = simd::dot(a1, b1);
            prop_assert_eq!(got.to_bits(), want1.to_bits(), "dot at n={}: {} vs {}", n, got, want1);
            let (o1, o2) = simd::dot2_scalar(a1, b1, a2, b2);
            let (s1, s2) = simd::dot2(a1, b1, a2, b2);
            prop_assert_eq!(s1.to_bits(), o1.to_bits(), "dot2 chain 1 at n={}", n);
            prop_assert_eq!(s2.to_bits(), o2.to_bits(), "dot2 chain 2 at n={}", n);
            prop_assert_eq!(o1.to_bits(), want1.to_bits(), "oracle dot2 vs dot at n={}", n);
        }
    }

    /// The lag scan agrees with the naive whole-window oracle within the
    /// cross-implementation tolerance (prefix-moment algebra vs direct
    /// recomputation — not a lane-order effect).
    #[test]
    fn lag_scan_agrees_with_naive_oracle(
        x in series(48),
        max_delay in 0usize..5,
    ) {
        let y: Vec<f64> = x.iter().map(|v| (v * 0.3).sin() * 100.0 + v * 0.5).collect();
        let n = x.len();
        let mut engine = IncrementalCorrelator::new(2, 1, n.max(2));
        for t in 0..n {
            engine.push(&[vec![x[t]], vec![y[t]]]);
        }
        let score = engine.pair_score(0, 1, 0, 0, n, max_delay);
        let oracle = kcd(&x, &y, max_delay);
        prop_assert!(
            (score - oracle).abs() < 1e-9,
            "lag scan diverged from naive oracle: {} vs {}", score, oracle
        );
    }
}
