//! Online (run-time) service-time profiles.
//!
//! The benchmark-time [`crate::ProfileStore`] is static: it never learns
//! from what the cluster actually observes. This module closes the loop.
//! An [`OnlineProfile`] ingests observed service-time spans — the
//! `remote_start`/`remote_finish` pairs flowing back from workers — keyed
//! by `(device class, task shape)` and maintains, per cell, an observation
//! count, an **EWMA mean** and an EWMA of squared deviations (a variance
//! estimate), so recent observations dominate stale ones. A cell keeps no
//! raw spans: the mean, the variance and the count are all its readers
//! use.
//!
//! The structure is deterministic: given the same sequence of
//! `observe` calls it reaches bit-identical state — there is no internal
//! randomness and iteration order is fixed (`BTreeMap`). That is the
//! property the learned schedulers in `anthill::policy::learned` build
//! their cross-backend determinism contract on.

use crate::profile::DeviceClass;
use std::collections::BTreeMap;

/// Stable 64-bit key identifying a task shape (a hash of its parameters).
pub type ShapeKey = u64;

/// FNV-1a over `bytes`: a small, endian-stable, dependency-free hash used
/// to derive [`ShapeKey`]s (and the learned schedulers' decision noise).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

/// FNV-1a offset basis: the state [`fnv1a64_fold`] starts from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a state, so a key over several pieces
/// needs no buffer to concatenate them in.
pub(crate) fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Default EWMA smoothing factor: recent spans get 20% of the mass.
pub(crate) const DEFAULT_ALPHA: f64 = 0.2;

/// One `(device class, task shape)` cell of an [`OnlineProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineCell {
    count: u64,
    ewma: f64,
    ewvar: f64,
}

impl OnlineCell {
    fn new() -> OnlineCell {
        OnlineCell {
            count: 0,
            ewma: 0.0,
            ewvar: 0.0,
        }
    }

    fn observe(&mut self, alpha: f64, secs: f64) {
        if self.count == 0 {
            self.ewma = secs;
            self.ewvar = 0.0;
        } else {
            let dev = secs - self.ewma;
            self.ewma += alpha * dev;
            self.ewvar = (1.0 - alpha) * (self.ewvar + alpha * dev * dev);
        }
        self.count += 1;
    }

    /// Observations ingested so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// EWMA service-time mean, seconds.
    pub fn mean(&self) -> f64 {
        self.ewma
    }

    /// EWMA variance of the service time.
    pub fn variance(&self) -> f64 {
        self.ewvar
    }
}

/// A deterministic online service-time profile: per-`(device class,
/// task shape)` EWMA statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineProfile {
    alpha: f64,
    cells: BTreeMap<(u16, ShapeKey), OnlineCell>,
}

impl Default for OnlineProfile {
    fn default() -> OnlineProfile {
        OnlineProfile::new(DEFAULT_ALPHA)
    }
}

impl OnlineProfile {
    /// Profile with the given EWMA factor.
    pub fn new(alpha: f64) -> OnlineProfile {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        OnlineProfile {
            alpha,
            cells: BTreeMap::new(),
        }
    }

    /// Ingest one observed span of `secs` for `(dev, key)`; returns the
    /// cell's updated observation count.
    pub fn observe(&mut self, dev: DeviceClass, key: ShapeKey, secs: f64) -> u64 {
        let cell = self
            .cells
            .entry((dev.0, key))
            .or_insert_with(OnlineCell::new);
        cell.observe(self.alpha, secs);
        cell.count
    }

    /// The cell for `(dev, key)`, if any span has been observed for it.
    pub fn cell(&self, dev: DeviceClass, key: ShapeKey) -> Option<&OnlineCell> {
        self.cells.get(&(dev.0, key))
    }

    /// EWMA mean for `(dev, key)`, if observed.
    pub fn mean(&self, dev: DeviceClass, key: ShapeKey) -> Option<f64> {
        self.cell(dev, key).map(OnlineCell::mean)
    }

    /// Observation count for `(dev, key)` (0 if never observed).
    pub fn count(&self, dev: DeviceClass, key: ShapeKey) -> u64 {
        self.cell(dev, key).map_or(0, OnlineCell::count)
    }

    /// Number of populated `(device, shape)` cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no span has ever been observed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OnlineProfile {
        /// Total observations across all cells.
        fn total_observations(&self) -> u64 {
            self.cells.values().map(OnlineCell::count).sum()
        }
    }

    const K: ShapeKey = 0xfeed;

    #[test]
    fn ewma_tracks_a_shifted_mean() {
        let mut p = OnlineProfile::default();
        for _ in 0..50 {
            p.observe(DeviceClass::CPU, K, 1.0);
        }
        assert!((p.mean(DeviceClass::CPU, K).unwrap() - 1.0).abs() < 1e-9);
        for _ in 0..50 {
            p.observe(DeviceClass::CPU, K, 3.0);
        }
        // Recent mass dominates: the EWMA has moved almost all the way.
        assert!(p.mean(DeviceClass::CPU, K).unwrap() > 2.9);
    }

    #[test]
    fn cells_are_independent_per_device_and_shape() {
        let mut p = OnlineProfile::default();
        p.observe(DeviceClass::CPU, 1, 5.0);
        p.observe(DeviceClass::GPU, 1, 0.5);
        p.observe(DeviceClass::CPU, 2, 7.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.mean(DeviceClass::CPU, 1), Some(5.0));
        assert_eq!(p.mean(DeviceClass::GPU, 1), Some(0.5));
        assert_eq!(p.mean(DeviceClass::CPU, 2), Some(7.0));
        assert_eq!(p.mean(DeviceClass::GPU, 2), None);
        assert_eq!(p.total_observations(), 3);
    }

    #[test]
    fn identical_observation_sequences_reach_identical_state() {
        let feed = |p: &mut OnlineProfile| {
            for i in 0..40u32 {
                let dev = if i % 3 == 0 {
                    DeviceClass::GPU
                } else {
                    DeviceClass::CPU
                };
                p.observe(dev, u64::from(i % 5), f64::from(i) * 0.01 + 0.001);
            }
        };
        let mut a = OnlineProfile::default();
        let mut b = OnlineProfile::default();
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"tile:512"), fnv1a64(b"tile:512"));
    }
}
