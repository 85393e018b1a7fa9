//! Task input parameters: the feature space the estimator predicts from.
//!
//! The paper's estimator works on "application input parameters", which mix
//! numeric values (tile size, vector length, iteration counts) with
//! non-numeric attributes (algorithm variant, data layout). Numeric
//! dimensions are normalized by the per-dimension maximum before a Euclidean
//! distance; categorical dimensions contribute 0 on an exact match and 1
//! otherwise (Section 4).

use crate::online::{fnv1a64_fold, ShapeKey, FNV_OFFSET};
use std::fmt;
use std::sync::Arc;

/// One task parameter: numeric or categorical.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A numeric parameter (sizes, counts, rates).
    Num(f64),
    /// A categorical parameter (variant names, flags).
    Cat(String),
}

impl ParamValue {
    /// The numeric value, if this parameter is numeric.
    pub(crate) fn as_num(&self) -> Option<f64> {
        match self {
            ParamValue::Num(x) => Some(*x),
            ParamValue::Cat(_) => None,
        }
    }
}

impl From<f64> for ParamValue {
    fn from(x: f64) -> Self {
        ParamValue::Num(x)
    }
}

impl From<u64> for ParamValue {
    fn from(x: u64) -> Self {
        ParamValue::Num(x as f64)
    }
}

impl From<usize> for ParamValue {
    fn from(x: usize) -> Self {
        ParamValue::Num(x as f64)
    }
}

impl From<&str> for ParamValue {
    fn from(s: &str) -> Self {
        ParamValue::Cat(s.to_owned())
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Num(x) => write!(f, "{x}"),
            ParamValue::Cat(s) => write!(f, "{s}"),
        }
    }
}

/// An ordered vector of task parameters. All tasks of one application share
/// the same arity and per-position kind (numeric vs categorical).
///
/// The values are immutable after construction and shared behind an `Arc`,
/// so cloning a `TaskParams` (and therefore a `DataBuffer` carrying one)
/// is a reference-count bump, never a deep copy — retries, fault
/// re-enqueues, inter-stage hops and the TCP coordinator's in-flight table
/// share one allocation, and so do the consecutive equal lists a TCP
/// frame decoder reads. Collecting from an iterator of known length
/// allocates once.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskParams(Arc<[ParamValue]>);

impl Default for TaskParams {
    fn default() -> TaskParams {
        TaskParams::new(Vec::new())
    }
}

impl TaskParams {
    /// Build from anything convertible to parameter values.
    pub fn new(values: Vec<ParamValue>) -> TaskParams {
        TaskParams(values.into())
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over dimensions.
    pub fn iter(&self) -> std::slice::Iter<'_, ParamValue> {
        self.0.iter()
    }

    /// Convenience: build an all-numeric parameter vector.
    pub fn nums(values: &[f64]) -> TaskParams {
        values.iter().map(|&x| ParamValue::Num(x)).collect()
    }

    /// Stable key of this task shape: one FNV-1a fold over a prefix-free
    /// encoding of the parameters — `0 ‖ f64 bits` for a numeric one,
    /// `1 ‖ length ‖ bytes` for a categorical one, integers little-endian.
    /// Equal parameters give equal keys whatever allocation holds them;
    /// it allocates nothing. It is the cell key of [`crate::OnlineProfile`]
    /// and of the schedulers' weight memo, which confirms a hit by
    /// comparing parameters since distinct shapes may share a key.
    pub fn shape_key(&self) -> ShapeKey {
        self.iter().fold(FNV_OFFSET, |h, v| match v {
            ParamValue::Num(x) => fnv1a64_fold(fnv1a64_fold(h, &[0]), &x.to_bits().to_le_bytes()),
            ParamValue::Cat(s) => {
                let h = fnv1a64_fold(fnv1a64_fold(h, &[1]), &(s.len() as u64).to_le_bytes());
                fnv1a64_fold(h, s.as_bytes())
            }
        })
    }

    /// True when two parameter vectors share the same backing allocation
    /// (a clone is a reference-count bump, not a copy).
    pub fn shares_storage(&self, other: &TaskParams) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl FromIterator<ParamValue> for TaskParams {
    fn from_iter<I: IntoIterator<Item = ParamValue>>(values: I) -> TaskParams {
        TaskParams(values.into_iter().collect())
    }
}

impl std::ops::Index<usize> for TaskParams {
    type Output = ParamValue;
    fn index(&self, i: usize) -> &ParamValue {
        &self.0[i]
    }
}

/// Builds `TaskParams` ergonomically: `params![64.0, "gpu-variant", 3.0]`.
#[macro_export]
macro_rules! params {
    ($($v:expr),* $(,)?) => {
        $crate::TaskParams::new(vec![$($crate::ParamValue::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ParamValue {
        /// True if this parameter is categorical.
        fn is_cat(&self) -> bool {
            matches!(self, ParamValue::Cat(_))
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(ParamValue::from(2.5).as_num(), Some(2.5));
        assert_eq!(ParamValue::from(7u64).as_num(), Some(7.0));
        assert!(ParamValue::from("abc").is_cat());
        assert_eq!(ParamValue::from("abc").as_num(), None);
    }

    #[test]
    fn macro_builds_mixed_params() {
        let p = params![64.0, "variant-a", 3usize];
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].as_num(), Some(64.0));
        assert!(p[1].is_cat());
        assert_eq!(p[2].as_num(), Some(3.0));
    }

    #[test]
    fn nums_helper() {
        let p = TaskParams::nums(&[1.0, 2.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.iter().filter_map(|v| v.as_num()).sum::<f64>(), 3.0);
    }

    #[test]
    fn collects_from_values() {
        let p: TaskParams = [64.0, 3.0].into_iter().map(ParamValue::Num).collect();
        assert_eq!(p, params![64.0, 3.0]);
        assert_eq!(std::iter::empty().collect::<TaskParams>(), params![]);
    }

    #[test]
    fn clones_share_storage() {
        let p = params![64.0, "variant-a"];
        let q = p.clone();
        assert!(p.shares_storage(&q), "clone must be a refcount bump");
        assert_eq!(p, q);
        assert!(!p.shares_storage(&params![64.0, "variant-a"]));
    }

    /// Equality across allocations and kind / order / string-boundary
    /// sensitivity are pinned in the facade's `tests/dispatch_exactness.rs`.
    #[test]
    fn shape_key_follows_the_documented_encoding() {
        assert_ne!(params![0.0].shape_key(), params![-0.0].shape_key());
        assert_ne!(params![].shape_key(), params![0.0].shape_key());
        let mut bytes = vec![0u8];
        bytes.extend(512f64.to_bits().to_le_bytes());
        bytes.push(1);
        bytes.extend(2u64.to_le_bytes());
        bytes.extend(b"ab");
        assert_eq!(params![512.0, "ab"].shape_key(), crate::fnv1a64(&bytes));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", ParamValue::from(1.5)), "1.5");
        assert_eq!(format!("{}", ParamValue::from("x")), "x");
    }
}
