//! Order statistics over small samples.

/// Sort a sample in place (NaN-free by construction: every value is a
/// measured duration or a count).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Quantile `q` in `[0, 1]` of an ascending sample, linearly interpolated
/// between the two closest ranks. An empty sample reads 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range as a percentage of the median (0 for a sample whose
/// median is 0).
pub fn iqr_pct(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    let m = quantile_sorted(&v, 0.5);
    if m == 0.0 {
        return 0.0;
    }
    100.0 * (quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        // Quartiles 3 and 7 around a median of 5.
        assert!((iqr_pct(&xs) - 80.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[0.0, 0.0]), 0.0);
    }
}
