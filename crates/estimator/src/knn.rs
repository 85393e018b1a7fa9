//! The kNN model-learning algorithm of Section 4.
//!
//! When a new task is created, the `k` nearest profiled executions are
//! retrieved by the mixed-type distance on input parameters; their
//! execution times are averaged per device, and the averages are used to
//! compute the task's relative speedup across devices. The paper uses
//! `k = 2` as it "achieved near-best estimations for all configurations".

use crate::distance::Normalizer;
use crate::param::TaskParams;
use crate::profile::{DeviceClass, ProfileStore};

/// Default number of neighbours, per the paper.
pub(crate) const DEFAULT_K: usize = 2;

/// A fitted kNN performance estimator for one application.
#[derive(Debug, Clone)]
pub struct KnnEstimator {
    store: ProfileStore,
    normalizer: Normalizer,
    k: usize,
}

impl KnnEstimator {
    /// Fit an estimator over a profile with the given `k` (>= 1).
    pub fn fit(store: ProfileStore, k: usize) -> KnnEstimator {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            !store.is_empty(),
            "cannot fit an estimator on an empty profile"
        );
        let normalizer = Normalizer::fit(&store);
        KnnEstimator {
            store,
            normalizer,
            k,
        }
    }

    /// Fit with the paper's default `k = 2`.
    pub fn fit_default(store: ProfileStore) -> KnnEstimator {
        Self::fit(store, DEFAULT_K)
    }

    /// The `k` in use.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Indices of the `k` nearest training samples to `query`, closest
    /// first. Ties are broken by sample order (deterministic).
    fn neighbours(&self, query: &TaskParams) -> Vec<usize> {
        let mut dists: Vec<(f64, usize)> = self
            .store
            .samples()
            .iter()
            .enumerate()
            .map(|(i, s)| (self.normalizer.distance(query, &s.params), i))
            .collect();
        dists.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        dists.truncate(self.k);
        dists.into_iter().map(|(_, i)| i).collect()
    }

    /// Predicted execution time (seconds) on `device`: the mean of the k
    /// nearest neighbours' measured times on that device. `None` if no
    /// neighbour was benchmarked on that device.
    pub fn predict_time(&self, device: DeviceClass, query: &TaskParams) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in self.neighbours(query) {
            if let Some(t) = self.store.samples()[i].time_on(device) {
                sum += t;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Predicted relative speedup of `fast` over `slow` for the query task:
    /// mean neighbour time on `slow` divided by mean neighbour time on
    /// `fast`. `None` if either device has no neighbour data or the fast
    /// mean is zero.
    pub fn predict_speedup(
        &self,
        fast: DeviceClass,
        slow: DeviceClass,
        query: &TaskParams,
    ) -> Option<f64> {
        let tf = self.predict_time(fast, query)?;
        let ts = self.predict_time(slow, query)?;
        if tf > 0.0 {
            Some(ts / tf)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;

    fn linear_profile(n: usize) -> ProfileStore {
        // cpu = x, gpu = x / 4 (speedup 4 everywhere)
        let mut st = ProfileStore::new("lin");
        for i in 1..=n {
            let x = i as f64;
            st.add_cpu_gpu(params![x], x, x / 4.0);
        }
        st
    }

    #[test]
    fn k1_on_training_point_is_exact() {
        let est = KnnEstimator::fit(linear_profile(10), 1);
        let t = est.predict_time(DeviceClass::CPU, &params![7.0]).unwrap();
        assert_eq!(t, 7.0);
        let s = est
            .predict_speedup(DeviceClass::GPU, DeviceClass::CPU, &params![7.0])
            .unwrap();
        assert!((s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn k2_averages_the_two_nearest() {
        let est = KnnEstimator::fit(linear_profile(10), 2);
        // Query 6.4: nearest are 6 and 7 -> mean cpu 6.5
        let t = est.predict_time(DeviceClass::CPU, &params![6.4]).unwrap();
        assert!((t - 6.5).abs() < 1e-12);
    }

    #[test]
    fn constant_speedup_predicted_even_between_samples() {
        let est = KnnEstimator::fit_default(linear_profile(30));
        for q in [1.5, 10.2, 29.9, 35.0] {
            let s = est
                .predict_speedup(DeviceClass::GPU, DeviceClass::CPU, &params![q])
                .unwrap();
            assert!((s - 4.0).abs() < 1e-9, "q={q} s={s}");
        }
    }

    #[test]
    fn missing_device_yields_none() {
        let mut st = ProfileStore::new("one-device");
        st.add(crate::ProfileSample {
            params: params![1.0],
            times: vec![(DeviceClass::CPU, 1.0)],
        });
        let est = KnnEstimator::fit(st, 1);
        assert!(est.predict_time(DeviceClass::GPU, &params![1.0]).is_none());
        assert!(est
            .predict_speedup(DeviceClass::GPU, DeviceClass::CPU, &params![1.0])
            .is_none());
    }

    #[test]
    fn k_larger_than_store_uses_all_samples() {
        let est = KnnEstimator::fit(linear_profile(3), 10);
        let t = est.predict_time(DeviceClass::CPU, &params![2.0]).unwrap();
        assert!((t - 2.0).abs() < 1e-12); // mean of 1,2,3
    }

    #[test]
    fn categorical_dimension_steers_neighbours() {
        let mut st = ProfileStore::new("cat");
        // variant "a" is slow on GPU, "b" is fast.
        for i in 1..=5 {
            let x = i as f64;
            st.add_cpu_gpu(params![x, "a"], x, x); // speedup 1
            st.add_cpu_gpu(params![x, "b"], x, x / 10.0); // speedup 10
        }
        let est = KnnEstimator::fit(st, 2);
        let sa = est
            .predict_speedup(DeviceClass::GPU, DeviceClass::CPU, &params![3.0, "a"])
            .unwrap();
        let sb = est
            .predict_speedup(DeviceClass::GPU, DeviceClass::CPU, &params![3.0, "b"])
            .unwrap();
        assert!((sa - 1.0).abs() < 1e-9, "sa={sa}");
        assert!((sb - 10.0).abs() < 1e-9, "sb={sb}");
    }
}
