//! Benchmark profiles: the training data of the performance estimator.
//!
//! Phase one of the paper's two-phase strategy benchmarks a new application
//! on a representative workload and stores, per job: the input parameters,
//! the targeted devices, and the measured execution times (Figure 3).

use crate::param::TaskParams;

/// A class of processing device, as seen by the estimator. The estimator is
/// agnostic about what the classes mean; the runtime maps its device kinds
/// onto them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceClass(pub u16);

impl DeviceClass {
    /// Conventional class for a CPU core (the paper's baseline device).
    pub const CPU: DeviceClass = DeviceClass(0);
    /// Conventional class for a GPU.
    pub const GPU: DeviceClass = DeviceClass(1);
}

/// One profiled job: its input parameters and the measured execution time on
/// each benchmarked device class, in seconds.
#[derive(Debug, Clone)]
pub struct ProfileSample {
    /// The job's input parameters.
    pub params: TaskParams,
    /// `(device, seconds)` pairs; one entry per benchmarked device.
    pub times: Vec<(DeviceClass, f64)>,
}

impl ProfileSample {
    /// Execution time on `device`, if it was benchmarked.
    pub fn time_on(&self, device: DeviceClass) -> Option<f64> {
        self.times
            .iter()
            .find(|(d, _)| *d == device)
            .map(|&(_, t)| t)
    }

    /// Measured speedup of `fast` relative to `slow` (slow time / fast
    /// time), if both were benchmarked and the fast time is positive.
    pub fn speedup(&self, fast: DeviceClass, slow: DeviceClass) -> Option<f64> {
        let tf = self.time_on(fast)?;
        let ts = self.time_on(slow)?;
        if tf > 0.0 {
            Some(ts / tf)
        } else {
            None
        }
    }
}

/// The stored profile of one application: a bag of benchmarked jobs.
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    /// Application name (for reporting).
    pub app: String,
    samples: Vec<ProfileSample>,
}

impl ProfileStore {
    /// Empty profile for an application.
    pub fn new(app: impl Into<String>) -> ProfileStore {
        ProfileStore {
            app: app.into(),
            samples: Vec::new(),
        }
    }

    /// Add one benchmarked job. Samples with differing arity are rejected
    /// because distances would be meaningless.
    pub fn add(&mut self, sample: ProfileSample) {
        if let Some(first) = self.samples.first() {
            assert_eq!(
                first.params.len(),
                sample.params.len(),
                "all samples of a profile must share parameter arity"
            );
        }
        self.samples.push(sample);
    }

    /// Convenience: add a job benchmarked on CPU and GPU.
    pub fn add_cpu_gpu(&mut self, params: TaskParams, cpu_secs: f64, gpu_secs: f64) {
        self.add(ProfileSample {
            params,
            times: vec![(DeviceClass::CPU, cpu_secs), (DeviceClass::GPU, gpu_secs)],
        });
    }

    /// All samples.
    pub fn samples(&self) -> &[ProfileSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the profile has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Split into `k` folds for cross-validation: fold `i` contains samples
    /// whose index `% k == i`. Returns `(train, test)` stores for fold `i`.
    pub fn fold(&self, k: usize, i: usize) -> (ProfileStore, ProfileStore) {
        assert!(k >= 2 && i < k, "invalid fold spec");
        let mut train = ProfileStore::new(self.app.clone());
        let mut test = ProfileStore::new(self.app.clone());
        for (idx, s) in self.samples.iter().enumerate() {
            if idx % k == i {
                test.samples.push(s.clone());
            } else {
                train.samples.push(s.clone());
            }
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;

    #[test]
    fn sample_lookups() {
        let s = ProfileSample {
            params: params![10.0],
            times: vec![(DeviceClass::CPU, 2.0), (DeviceClass::GPU, 0.5)],
        };
        assert_eq!(s.time_on(DeviceClass::CPU), Some(2.0));
        assert_eq!(s.time_on(DeviceClass(9)), None);
        assert_eq!(s.speedup(DeviceClass::GPU, DeviceClass::CPU), Some(4.0));
        assert_eq!(s.speedup(DeviceClass(9), DeviceClass::CPU), None);
    }

    #[test]
    fn zero_fast_time_yields_none() {
        let s = ProfileSample {
            params: params![1.0],
            times: vec![(DeviceClass::CPU, 2.0), (DeviceClass::GPU, 0.0)],
        };
        assert_eq!(s.speedup(DeviceClass::GPU, DeviceClass::CPU), None);
    }

    #[test]
    fn store_folds_partition_the_samples() {
        let mut st = ProfileStore::new("app");
        for i in 0..10 {
            st.add_cpu_gpu(params![i as f64], 1.0, 0.5);
        }
        let mut total_test = 0;
        for i in 0..5 {
            let (train, test) = st.fold(5, i);
            assert_eq!(train.len() + test.len(), 10);
            assert_eq!(test.len(), 2);
            total_test += test.len();
        }
        assert_eq!(total_test, 10);
    }

    #[test]
    #[should_panic(expected = "parameter arity")]
    fn mismatched_arity_rejected() {
        let mut st = ProfileStore::new("app");
        st.add_cpu_gpu(params![1.0], 1.0, 1.0);
        st.add_cpu_gpu(params![1.0, 2.0], 1.0, 1.0);
    }
}
