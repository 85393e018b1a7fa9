//! Online (run-time) service-time profiles.
//!
//! The benchmark-time [`crate::ProfileStore`] is static: it never learns
//! from what the cluster actually observes. This module closes the loop.
//! An [`OnlineProfile`] ingests observed service-time spans — the
//! `remote_start`/`remote_finish` pairs flowing back from workers — keyed
//! by `(device class, task shape)` and maintains, per cell:
//!
//! * an **EWMA mean** (and EWMA of squared deviations for a variance
//!   estimate), so recent observations dominate stale ones;
//! * a **bounded-history quantile sketch**: the last `history_cap` raw
//!   samples in a ring, from which any quantile is answered exactly over
//!   that window.
//!
//! The structure is deterministic: given the same sequence of
//! `observe` calls it reaches bit-identical state — there is no internal
//! randomness and iteration order is fixed (`BTreeMap`). That is the
//! property the learned schedulers in `anthill::policy::learned` build
//! their cross-backend determinism contract on.
//!
//! Profiles round-trip through a self-describing text format
//! ([`OnlineProfile::to_text`] / [`OnlineProfile::from_text`]) so a run's
//! learned state can be persisted and used to warm-start the next run.

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
pub const DEFAULT_ALPHA: f64 = 0.2;
/// Default bounded-history window per cell.
pub const DEFAULT_HISTORY: usize = 64;

/// One `(device class, task shape)` cell of an [`OnlineProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineCell {
    count: u64,
    ewma: f64,
    ewvar: f64,
    history: Vec<f64>,
    cursor: usize,
}

impl OnlineCell {
    fn new() -> OnlineCell {
        OnlineCell {
            count: 0,
            ewma: 0.0,
            ewvar: 0.0,
            history: Vec::new(),
            cursor: 0,
        }
    }

    fn observe(&mut self, alpha: f64, cap: usize, secs: f64) {
        if self.count == 0 {
            self.ewma = secs;
            self.ewvar = 0.0;
        } else {
            let dev = secs - self.ewma;
            self.ewma += alpha * dev;
            self.ewvar = (1.0 - alpha) * (self.ewvar + alpha * dev * dev);
        }
        if self.history.len() < cap {
            self.history.push(secs);
        } else if cap > 0 {
            self.history[self.cursor] = secs;
            self.cursor = (self.cursor + 1) % cap;
        }
        self.count += 1;
    }

    /// Observations ingested so far (including ones evicted from history).
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

    /// Exact quantile `q in [0,1]` over the bounded history window.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.history.is_empty() {
            return None;
        }
        let mut sorted = self.history.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("service times are finite"));
        let q = q.clamp(0.0, 1.0);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }
}

/// A deterministic online service-time profile: per-`(device class,
/// task shape)` EWMA statistics plus a bounded-history quantile sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineProfile {
    alpha: f64,
    history_cap: usize,
    cells: BTreeMap<(u16, ShapeKey), OnlineCell>,
}

impl Default for OnlineProfile {
    fn default() -> OnlineProfile {
        OnlineProfile::new(DEFAULT_ALPHA, DEFAULT_HISTORY)
    }
}

impl OnlineProfile {
    /// Profile with the given EWMA factor and per-cell history window.
    pub fn new(alpha: f64, history_cap: usize) -> OnlineProfile {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        OnlineProfile {
            alpha,
            history_cap,
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
        cell.observe(self.alpha, self.history_cap, secs);
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

    /// Total observations across all cells.
    pub fn total_observations(&self) -> u64 {
        self.cells.values().map(OnlineCell::count).sum()
    }

    /// Serialize to the self-describing `# anthill-online-profile v1`
    /// text format (deterministic: cells in key order).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# anthill-online-profile v1\n");
        out.push_str(&format!(
            "alpha: {}\nhistory: {}\n",
            self.alpha, self.history_cap
        ));
        for (&(dev, key), cell) in &self.cells {
            let hist: Vec<String> = cell.history.iter().map(|t| format!("{t}")).collect();
            out.push_str(&format!(
                "cell: {dev} {key} ; {} {} {} {} ; {}\n",
                cell.count,
                cell.ewma,
                cell.ewvar,
                cell.cursor,
                hist.join(",")
            ));
        }
        out
    }

    /// Parse the text format produced by [`to_text`](Self::to_text).
    pub fn from_text(text: &str) -> Result<OnlineProfile, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == "# anthill-online-profile v1" => {}
            _ => return Err("missing '# anthill-online-profile v1' header".into()),
        }
        let mut profile = OnlineProfile::default();
        for (no, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("line {}: {m}", no + 1);
            if let Some(v) = line.strip_prefix("alpha:") {
                profile.alpha = v.trim().parse().map_err(|_| err("bad alpha"))?;
                if !(profile.alpha > 0.0 && profile.alpha <= 1.0) {
                    return Err(err("alpha must be in (0, 1]"));
                }
            } else if let Some(v) = line.strip_prefix("history:") {
                profile.history_cap = v.trim().parse().map_err(|_| err("bad history"))?;
            } else if let Some(v) = line.strip_prefix("cell:") {
                let mut parts = v.splitn(3, ';');
                let head = parts.next().ok_or_else(|| err("missing cell head"))?;
                let stats = parts.next().ok_or_else(|| err("missing cell stats"))?;
                let hist = parts.next().ok_or_else(|| err("missing cell history"))?;
                let head: Vec<&str> = head.split_whitespace().collect();
                let stats: Vec<&str> = stats.split_whitespace().collect();
                if head.len() != 2 || stats.len() != 4 {
                    return Err(err("malformed cell"));
                }
                let dev: u16 = head[0].parse().map_err(|_| err("bad device class"))?;
                let key: u64 = head[1].parse().map_err(|_| err("bad shape key"))?;
                let mut cell = OnlineCell::new();
                cell.count = stats[0].parse().map_err(|_| err("bad count"))?;
                cell.ewma = stats[1].parse().map_err(|_| err("bad ewma"))?;
                cell.ewvar = stats[2].parse().map_err(|_| err("bad ewvar"))?;
                cell.cursor = stats[3].parse().map_err(|_| err("bad cursor"))?;
                for t in hist.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    cell.history
                        .push(t.parse().map_err(|_| err("bad history sample"))?);
                }
                if cell.history.len() > profile.history_cap
                    || (cell.cursor > 0 && cell.cursor >= profile.history_cap)
                {
                    return Err(err("history exceeds declared window"));
                }
                profile.cells.insert((dev, key), cell);
            } else {
                return Err(err("unknown directive"));
            }
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn history_is_bounded_and_quantiles_follow_the_window() {
        let mut p = OnlineProfile::new(0.3, 8);
        for i in 0..100u32 {
            p.observe(DeviceClass::GPU, K, f64::from(i));
        }
        let cell = p.cell(DeviceClass::GPU, K).unwrap();
        assert_eq!(cell.count(), 100);
        // Only the last 8 samples (92..=99) remain in the sketch.
        assert_eq!(cell.quantile(0.0), Some(92.0));
        assert_eq!(cell.quantile(1.0), Some(99.0));
        assert_eq!(cell.quantile(0.5), Some(96.0));
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
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let mut p = OnlineProfile::new(0.25, 4);
        for i in 0..10u32 {
            p.observe(DeviceClass::CPU, 7, f64::from(i) * 0.125);
            p.observe(DeviceClass::GPU, 7, f64::from(i) * 0.0625);
        }
        let text = p.to_text();
        let back = OnlineProfile::from_text(&text).unwrap();
        assert_eq!(p, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(OnlineProfile::from_text("").is_err());
        assert!(OnlineProfile::from_text("# wrong header").is_err());
        let bad_cell = "# anthill-online-profile v1\ncell: 0 ; 1 2 3 4 ;\n";
        assert!(OnlineProfile::from_text(bad_cell).is_err());
        let bad_alpha = "# anthill-online-profile v1\nalpha: 2.0\n";
        assert!(OnlineProfile::from_text(bad_alpha).is_err());
        let overflow = "# anthill-online-profile v1\nhistory: 1\ncell: 0 1 ; 3 1 0 0 ; 1,2,3\n";
        assert!(OnlineProfile::from_text(overflow).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"tile:512"), fnv1a64(b"tile:512"));
    }
}
