//! Oracle: the `obs::json` number writers write exactly what `core::fmt`
//! writes.
//!
//! `push_fixed(v, p)` must equal `format!("{v:.p$}")` for every `f64` and
//! every `p` in `0..=9` — random bit patterns (NaN, the infinities,
//! subnormals, `-0.0`, the magnitudes past `u64` that fall back to
//! `format!`), normal values in the fast path's range, decimals like the
//! telemetry's, and the exact ties `k·2^-j` where half-to-even decides
//! the last digit. `push_u64` / `push_i64` must equal `to_string()`, and
//! `push_f64` must equal `Display` (`null` when non-finite), including
//! the integral values up to ±2⁵³ that it writes as integers.
//! `PROPTEST_CASES=5000` soaks it.

use acm_obs::json::{push_f64, push_fixed, push_i64, push_u64};
use proptest::prelude::*;

fn fixed(v: f64, places: usize) -> String {
    let mut out = String::new();
    push_fixed(&mut out, v, places);
    out
}

fn float(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

fn display(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `v` at every place count the writer handles itself, plus one it
/// leaves to `format!`.
fn assert_fixed_matches(v: f64) {
    for places in (0..=9).chain([12]) {
        assert_eq!(
            fixed(v, places),
            format!("{v:.places$}"),
            "{v:?} (bits {:#018x}) at {places} places",
            v.to_bits()
        );
    }
}

/// A float from its sign, biased exponent and 52 fraction bits.
fn compose(sign: u64, biased: u64, fraction: u64) -> f64 {
    f64::from_bits((sign & 1) << 63 | (biased & 0x7ff) << 52 | fraction & ((1 << 52) - 1))
}

#[test]
fn fixed_matches_format_at_the_edges() {
    let edges = [
        0.0,
        -0.0,
        0.5,
        1.5,
        2.5,
        -0.5,
        0.125,
        0.375,
        -0.0001,
        1e-7,
        0.1,
        0.7,
        1.0 - f64::EPSILON,
        999.9995,
        999_999.999_999_5,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        // Where the scaled value leaves u64, at each place count.
        2f64.powi(63),
        2f64.powi(64),
        1.8446744073709552e19,
        1.8446744073709552e10,
        1.8446744073709552e9,
        18_446_744_073.709_55,
        // Where the fast path stops taking small exponents.
        2f64.powi(-20),
        2f64.powi(-21),
        2f64.powi(-22),
        2f64.powi(-73),
        2f64.powi(-74),
        // Region times and fractions the telemetry writes.
        7.5,
        3_600.0,
        0.8432770665583008,
        0.15672293344169913,
        1234.5678901234,
    ];
    for v in edges {
        assert_fixed_matches(v);
        assert_fixed_matches(-v);
    }
}

#[test]
fn fixed_rounds_exact_ties_half_to_even() {
    // k·2^-j with k odd is a tie at p = j - 1 places; the other j check
    // the digits either side of it, and the neighbours of each tie that
    // it must not be mistaken for.
    for j in 1..=12 {
        let scale = 2f64.powi(-j);
        for k in (1u64..4000)
            .step_by(2)
            .chain([(1 << 40) + 1, (1 << 52) - 1])
        {
            let v = k as f64 * scale;
            for w in [v, -v, v.next_up(), v.next_down()] {
                assert_fixed_matches(w);
            }
        }
    }
}

#[test]
fn integer_writers_match_to_string() {
    let unsigned = [
        0,
        1,
        9,
        10,
        11,
        99,
        100,
        101,
        999,
        1_000,
        12_345,
        u64::from(u32::MAX),
        1 << 53,
        10_000_000_000_000_000_000,
        u64::MAX - 1,
        u64::MAX,
    ];
    for v in unsigned {
        let mut out = String::new();
        push_u64(&mut out, v);
        assert_eq!(out, v.to_string());
    }
    let signed = [
        0,
        9,
        -9,
        10,
        -10,
        99,
        -99,
        100,
        -100,
        i64::MAX,
        i64::MIN,
        i64::MIN + 1,
    ];
    for v in signed {
        let mut out = String::new();
        push_i64(&mut out, v);
        assert_eq!(out, v.to_string());
    }
}

#[test]
fn f64_writer_matches_display_on_integral_values() {
    let limit = 2f64.powi(53);
    let integral = [
        0.0,
        -0.0,
        1.0,
        9.0,
        10.0,
        99.0,
        100.0,
        1e15,
        limit - 1.0,
        limit,
        limit + 2.0,
        1e21,
        1e300,
    ];
    for v in integral {
        for w in [v, -v] {
            assert_eq!(float(w), display(w), "{w:?}");
        }
    }
    assert_eq!(float(-0.0), "-0");
    for v in [0.5, -0.25, 0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(float(v), display(v), "{v:?}");
    }
}

proptest! {
    #[test]
    fn fixed_matches_format_on_random_bit_patterns(
        patterns in proptest::collection::vec(any::<u64>(), 64..65),
    ) {
        for bits in patterns {
            assert_fixed_matches(f64::from_bits(bits));
        }
    }

    #[test]
    fn fixed_matches_format_in_the_fast_paths_range(
        draws in proptest::collection::vec(
            (any::<u64>(), (1023 - 80u64)..(1023 + 66), any::<u64>()),
            64..65,
        ),
    ) {
        for (sign, biased, fraction) in draws {
            assert_fixed_matches(compose(sign, biased, fraction));
        }
    }

    #[test]
    fn fixed_matches_format_on_subnormals_and_decimals(
        draws in proptest::collection::vec((any::<u64>(), 0u64..10_000_000_000, 0i32..10), 64..65),
    ) {
        for (bits, n, d) in draws {
            assert_fixed_matches(compose(bits >> 63, 0, bits));
            assert_fixed_matches(n as f64 / 10f64.powi(d));
        }
    }

    #[test]
    fn integer_and_f64_writers_match_on_random_values(
        draws in proptest::collection::vec((any::<u64>(), 0u32..64), 64..65),
    ) {
        for (bits, shift) in draws {
            let u = bits >> shift;
            let i = u as i64;
            let (mut a, mut b) = (String::new(), String::new());
            push_u64(&mut a, u);
            push_i64(&mut b, i);
            prop_assert_eq!(a, u.to_string());
            prop_assert_eq!(b, i.to_string());
            // Integral floats below 2^53, arbitrary bit patterns (mostly
            // integral past it, or tiny) and binary fractions.
            let integral = (i >> 10) as f64;
            for v in [integral, -integral, f64::from_bits(bits), (u >> 11) as f64 / 4096.0] {
                prop_assert_eq!(float(v), display(v));
            }
        }
    }
}
