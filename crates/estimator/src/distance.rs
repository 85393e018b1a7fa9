//! The mixed-type distance metric of Section 4.
//!
//! Numeric dimensions are first normalized by dividing each value by the
//! highest absolute value observed for that dimension in the profile, then
//! compared with Euclidean distance. Categorical dimensions contribute 0 on
//! an exact match and 1 otherwise.

use crate::param::{ParamValue, TaskParams};
use crate::profile::ProfileStore;

/// Per-dimension normalization factors learned from a profile.
#[derive(Debug, Clone)]
pub struct Normalizer {
    /// `Some(max_abs)` for numeric dimensions, `None` for categorical ones.
    scales: Vec<Option<f64>>,
}

impl Normalizer {
    /// Learn scales from the samples in a profile. Panics on an empty
    /// profile (there is nothing to normalize against).
    pub fn fit(store: &ProfileStore) -> Normalizer {
        assert!(
            !store.is_empty(),
            "cannot fit a normalizer to an empty profile"
        );
        let arity = store.samples()[0].params.len();
        let mut scales: Vec<Option<f64>> = vec![None; arity];
        for s in store.samples() {
            for (d, v) in s.params.iter().enumerate() {
                if let ParamValue::Num(x) = v {
                    let e = scales[d].get_or_insert(0.0);
                    *e = e.max(x.abs());
                }
            }
        }
        // Dimensions whose max is 0 (all zeros) keep scale 1 so the
        // normalized value stays 0 rather than dividing by zero.
        for s in scales.iter_mut().flatten() {
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Normalizer { scales }
    }

    /// Number of dimensions this normalizer expects.
    pub(crate) fn arity(&self) -> usize {
        self.scales.len()
    }

    /// Distance between two parameter vectors under this normalization.
    ///
    /// Numeric dimensions: normalized Euclidean. Categorical dimensions add
    /// 0 on match, 1 on mismatch (inside the same sum of squares, per the
    /// paper's description). A numeric/categorical kind mismatch counts as
    /// maximal disagreement (1).
    pub fn distance(&self, a: &TaskParams, b: &TaskParams) -> f64 {
        assert_eq!(a.len(), self.arity(), "query arity mismatch");
        assert_eq!(b.len(), self.arity(), "sample arity mismatch");
        let mut sum = 0.0;
        for (d, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
            let term = match (va, vb) {
                (ParamValue::Num(x), ParamValue::Num(y)) => {
                    let s = self.scales[d].unwrap_or(1.0);
                    let diff = (x - y) / s;
                    diff * diff
                }
                (ParamValue::Cat(x), ParamValue::Cat(y)) if x == y => 0.0,
                (ParamValue::Cat(_), ParamValue::Cat(_)) => 1.0,
                // Kind mismatch: treat as fully different.
                _ => 1.0,
            };
            sum += term;
        }
        sum.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;

    fn store_with(rows: &[&[f64]]) -> ProfileStore {
        let mut st = ProfileStore::new("t");
        for r in rows {
            st.add_cpu_gpu(TaskParams::nums(r), 1.0, 1.0);
        }
        st
    }

    #[test]
    fn normalized_euclidean() {
        // Max per dim: [10, 100]
        let st = store_with(&[&[10.0, 50.0], &[5.0, 100.0]]);
        let n = Normalizer::fit(&st);
        let d = n.distance(&params![10.0, 0.0], &params![0.0, 100.0]);
        // normalized diffs: (1.0, -1.0) => sqrt(2)
        assert!((d - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn categorical_contributes_binary() {
        let mut st = ProfileStore::new("t");
        st.add_cpu_gpu(params![1.0, "a"], 1.0, 1.0);
        st.add_cpu_gpu(params![2.0, "b"], 1.0, 1.0);
        let n = Normalizer::fit(&st);
        assert_eq!(n.distance(&params![2.0, "a"], &params![2.0, "a"]), 0.0);
        assert_eq!(n.distance(&params![2.0, "a"], &params![2.0, "b"]), 1.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let st = store_with(&[&[3.0, 4.0], &[1.0, 2.0]]);
        let n = Normalizer::fit(&st);
        let a = params![3.0, 2.0];
        let b = params![1.0, 4.0];
        assert_eq!(n.distance(&a, &a), 0.0);
        assert!((n.distance(&a, &b) - n.distance(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn all_zero_dimension_does_not_blow_up() {
        let st = store_with(&[&[0.0], &[0.0]]);
        let n = Normalizer::fit(&st);
        assert_eq!(n.distance(&params![0.0], &params![0.0]), 0.0);
    }

    #[test]
    fn kind_mismatch_is_maximal() {
        let mut st = ProfileStore::new("t");
        st.add_cpu_gpu(params![1.0, "a"], 1.0, 1.0);
        let n = Normalizer::fit(&st);
        let d = n.distance(&params![1.0, "a"], &params![1.0, 2.0]);
        assert_eq!(d, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty profile")]
    fn empty_profile_rejected() {
        let _ = Normalizer::fit(&ProfileStore::new("t"));
    }
}
