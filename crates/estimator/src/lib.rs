//! # anthill-estimator — relative-performance estimation (paper Section 4)
//!
//! The paper's central observation is that GPU speedup is *data dependent*:
//! where a task should run can only be decided at run time, from its input
//! parameters. Predicting absolute execution times is hard; predicting the
//! *relative fitness* (speedup) of the same task across devices is much
//! easier and is all the schedulers need (they only require a correct
//! *ordering* of tasks per device).
//!
//! Two-phase strategy (paper Figure 3):
//! 1. benchmark a representative workload, storing input parameters and
//!    per-device execution times in a [`ProfileStore`];
//! 2. at run time, a [`KnnEstimator`] retrieves the `k` nearest profiled
//!    executions under a mixed-type normalized distance ([`Normalizer`])
//!    and averages their times per device to derive the task's speedup.
//!
//! [`cross_validate`] reproduces Table 1's evaluation methodology (10-fold
//! CV of speedup error vs direct CPU-time error).
//!
//! ```
//! use anthill_estimator::{params, DeviceClass, KnnEstimator, ProfileStore};
//!
//! let mut profile = ProfileStore::new("demo");
//! for i in 1..=30u32 {
//!     let size = f64::from(i) * 32.0;
//!     let cpu = size * size * 1e-6;          // CPU time grows with area
//!     let gpu = 1e-3 + size * size * 3e-8;   // GPU pays a fixed overhead
//!     profile.add_cpu_gpu(params![size], cpu, gpu);
//! }
//! let est = KnnEstimator::fit_default(profile);
//! let small = est.predict_speedup(DeviceClass::GPU, DeviceClass::CPU, &params![32.0]).unwrap();
//! let large = est.predict_speedup(DeviceClass::GPU, DeviceClass::CPU, &params![960.0]).unwrap();
//! assert!(small < 4.0 && large > 10.0); // data-dependent speedup
//! ```

#![warn(missing_docs)]

mod crossval;
mod distance;
mod knn;
pub mod models;
pub mod online;
mod param;
pub mod persist;
mod profile;

pub use crossval::{cross_validate, sweep_k, CrossValReport};
pub use distance::Normalizer;
pub use knn::KnnEstimator;
pub use online::{fnv1a64, OnlineCell, OnlineProfile, ShapeKey};
pub use param::{ParamValue, TaskParams};
pub use profile::{DeviceClass, ProfileSample, ProfileStore};
