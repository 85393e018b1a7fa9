//! Black-Scholes European option pricing — one of the six applications used
//! to evaluate the performance estimator (paper Table 1; from the CUDA SDK).
//!
//! The closed-form price requires the standard normal CDF, implemented via
//! the Abramowitz & Stegun 7.1.26 `erf` approximation (max abs error
//! ~1.5e-7, plenty for workload purposes).

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
#[inline]
pub(crate) fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// One option contract's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Option_ {
    /// Current underlying price.
    pub spot: f64,
    /// Strike price.
    pub strike: f64,
    /// Time to expiry in years.
    pub expiry: f64,
    /// Risk-free rate.
    pub rate: f64,
    /// Volatility.
    pub volatility: f64,
}

/// Call and put prices for one contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priced {
    /// European call price.
    pub call: f64,
    /// European put price.
    pub put: f64,
}

/// Price a single European option pair under Black-Scholes.
fn price(o: Option_) -> Priced {
    assert!(o.spot > 0.0 && o.strike > 0.0 && o.expiry > 0.0 && o.volatility > 0.0);
    let sqrt_t = o.expiry.sqrt();
    let d1 = ((o.spot / o.strike).ln() + (o.rate + 0.5 * o.volatility * o.volatility) * o.expiry)
        / (o.volatility * sqrt_t);
    let d2 = d1 - o.volatility * sqrt_t;
    let discount = (-o.rate * o.expiry).exp();
    let call = o.spot * norm_cdf(d1) - o.strike * discount * norm_cdf(d2);
    let put = o.strike * discount * norm_cdf(-d2) - o.spot * norm_cdf(-d1);
    Priced { call, put }
}

/// Price a batch of options (the SDK benchmark's workload shape).
pub fn price_batch(options: &[Option_]) -> Vec<Priced> {
    options.iter().map(|&o| price(o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(spot: f64, strike: f64, expiry: f64, rate: f64, vol: f64) -> Option_ {
        Option_ {
            spot,
            strike,
            expiry,
            rate,
            volatility: vol,
        }
    }

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
    }

    #[test]
    fn textbook_call_price() {
        // Hull's classic example: S=42, K=40, r=10%, sigma=20%, T=0.5
        // => call ≈ 4.76, put ≈ 0.81.
        let p = price(opt(42.0, 40.0, 0.5, 0.10, 0.20));
        assert!((p.call - 4.76).abs() < 0.01, "call {}", p.call);
        assert!((p.put - 0.81).abs() < 0.01, "put {}", p.put);
    }

    #[test]
    fn put_call_parity_holds() {
        for (s, k, t, r, v) in [
            (100.0, 100.0, 1.0, 0.05, 0.2),
            (80.0, 120.0, 2.0, 0.01, 0.5),
            (150.0, 50.0, 0.25, 0.03, 0.35),
        ] {
            let p = price(opt(s, k, t, r, v));
            let parity = p.call - p.put - (s - k * (-r * t).exp());
            assert!(parity.abs() < 1e-9, "parity violation {parity}");
        }
    }

    #[test]
    fn deep_in_and_out_of_the_money_limits() {
        let deep_itm = price(opt(1000.0, 1.0, 0.1, 0.0, 0.2));
        assert!((deep_itm.call - 999.0).abs() < 0.5);
        let deep_otm = price(opt(1.0, 1000.0, 0.1, 0.0, 0.2));
        assert!(deep_otm.call < 1e-6);
    }

    #[test]
    fn batch_matches_single() {
        let os = vec![opt(100.0, 90.0, 1.0, 0.02, 0.3); 4];
        let batch = price_batch(&os);
        assert_eq!(batch.len(), 4);
        for p in batch {
            assert_eq!(p, price(os[0]));
        }
    }
}
