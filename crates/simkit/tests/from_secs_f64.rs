//! `SimDuration::from_secs_f64` rounds with a cast instead of `f64::round`;
//! these tests hold it bit-identical to the formula it replaced.

use anthill_simkit::{SimDuration, SimRng};

/// The libm formula `from_secs_f64` replaced: the oracle it must equal
/// bit for bit.
fn rounded_by_libm(s: f64) -> SimDuration {
    if !s.is_finite() || s <= 0.0 {
        return SimDuration(0);
    }
    SimDuration((s * 1e9).round() as u64)
}

fn assert_rounds_like_libm(s: f64) {
    assert_eq!(
        SimDuration::from_secs_f64(s),
        rounded_by_libm(s),
        "{s:e} s ({:#x})",
        s.to_bits()
    );
}

#[test]
fn every_half_nanosecond_tie_rounds_like_libm() {
    for k in 0..10_000_000u64 {
        let tie = k as f64 + 0.5;
        assert_rounds_like_libm(tie / 1e9);
        assert_rounds_like_libm(tie * 1e-9);
    }
}

#[test]
fn edges_round_like_libm() {
    let mut probes = vec![
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        0.0,
        -0.0,
        -1.0,
        -f64::from_bits(1),
        f64::MIN,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    // Nanosecond counts around the powers where f64 stops holding a
    // fraction (2^52, 2^53) and where u64 runs out (2^63, 2^64), and the
    // seconds values a few ulps either side of each.
    for exp in [52, 53, 63, 64] {
        for offset in [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0] {
            let ns = 2f64.powi(exp) + offset;
            let mut s = ns / 1e9;
            probes.push(s);
            for _ in 0..8 {
                s = s.next_up();
                probes.push(s);
            }
            let mut s = ns / 1e9;
            for _ in 0..8 {
                s = s.next_down();
                probes.push(s);
            }
        }
    }
    probes.into_iter().for_each(assert_rounds_like_libm);
}

#[test]
fn seeded_samples_across_exponents_round_like_libm() {
    let mut rng = SimRng::new(25);
    for _ in 0..1_000_000 {
        // Any sign and mantissa, an exponent from 2^-40 s to 2^40 s (about
        // a picosecond to 10^21 ns).
        let sign = rng.below(2) << 63;
        let exponent = (1023 - 40 + rng.below(81)) << 52;
        let mantissa = rng.next_u64() >> 12;
        assert_rounds_like_libm(f64::from_bits(sign | exponent | mantissa));
    }
}
