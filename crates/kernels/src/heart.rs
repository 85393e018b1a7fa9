//! Cardiac electrical activity simulation — estimator benchmark application
//! (paper Table 1, "Heart Simulation", after Rocha et al.). We implement
//! the Barkley model — the standard reduced FitzHugh–Nagumo-type model of
//! excitable cardiac tissue — on a 2-D grid with explicit Euler time
//! stepping and a 5-point Laplacian (no-flux boundaries).
//!
//! Kinetics: `dv/dt = D∇²v + v(1−v)(v−(w+b)/a)/ε`, `dw/dt = v − w`.

/// Barkley model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FhnParams {
    /// Excitation gain (larger => more excitable).
    pub a: f64,
    /// Threshold offset: the rest-state excitation threshold is `b/a`.
    pub b: f64,
    /// Time-scale separation (small => fast activation front).
    pub epsilon: f64,
    /// Diffusion coefficient.
    pub diffusion: f64,
}

impl Default for FhnParams {
    fn default() -> Self {
        // The classic Barkley parameter set for sustained waves.
        FhnParams {
            a: 0.75,
            b: 0.06,
            epsilon: 0.02,
            diffusion: 1.0,
        }
    }
}

/// A 2-D excitable-tissue grid.
#[derive(Debug, Clone)]
pub struct HeartGrid {
    /// Grid width (columns).
    pub width: usize,
    /// Grid height (rows).
    pub height: usize,
    /// Activation variable (membrane potential surrogate), row-major.
    pub v: Vec<f64>,
    /// Recovery variable, row-major.
    pub w: Vec<f64>,
    /// Model parameters.
    pub params: FhnParams,
    scratch: Vec<f64>,
}

impl HeartGrid {
    /// A resting grid (`v = w = 0`).
    pub fn new(width: usize, height: usize, params: FhnParams) -> HeartGrid {
        assert!(width >= 3 && height >= 3, "grid too small for a Laplacian");
        HeartGrid {
            width,
            height,
            v: vec![0.0; width * height],
            w: vec![0.0; width * height],
            params,
            scratch: vec![0.0; width * height],
        }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// Apply a square stimulus of amplitude `amp` with corner `(x, y)` and
    /// side `side` (clipped to the grid).
    pub fn stimulate(&mut self, x: usize, y: usize, side: usize, amp: f64) {
        for yy in y..(y + side).min(self.height) {
            for xx in x..(x + side).min(self.width) {
                let i = self.idx(xx, yy);
                self.v[i] += amp;
            }
        }
    }

    /// Advance one explicit Euler step of size `dt` on a unit-spaced grid.
    pub fn step(&mut self, dt: f64) {
        let (w_, h_) = (self.width, self.height);
        let p = self.params;
        // Laplacian with no-flux (mirror) boundaries into scratch.
        for y in 0..h_ {
            for x in 0..w_ {
                let i = y * w_ + x;
                let left = self.v[y * w_ + x.saturating_sub(1)];
                let right = self.v[y * w_ + (x + 1).min(w_ - 1)];
                let up = self.v[y.saturating_sub(1) * w_ + x];
                let down = self.v[(y + 1).min(h_ - 1) * w_ + x];
                self.scratch[i] = left + right + up + down - 4.0 * self.v[i];
            }
        }
        for i in 0..w_ * h_ {
            let v = self.v[i];
            let w = self.w[i];
            // Barkley kinetics: fast activation, O(1) linear recovery.
            let threshold = (w + p.b) / p.a;
            let dv = p.diffusion * self.scratch[i] + v * (1.0 - v) * (v - threshold) / p.epsilon;
            let dw = v - w;
            self.v[i] = v + dt * dv;
            self.w[i] = w + dt * dw;
        }
    }

    /// Run `steps` steps of size `dt`.
    pub fn run(&mut self, steps: usize, dt: f64) {
        for _ in 0..steps {
            self.step(dt);
        }
    }

    /// Mean activation over the grid.
    pub fn mean_activation(&self) -> f64 {
        self.v.iter().sum::<f64>() / self.v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HeartGrid {
        /// Fraction of cells whose activation exceeds `threshold`.
        fn excited_fraction(&self, threshold: f64) -> f64 {
            self.v.iter().filter(|&&v| v > threshold).count() as f64 / self.v.len() as f64
        }
    }

    #[test]
    fn resting_tissue_stays_at_rest() {
        let mut g = HeartGrid::new(16, 16, FhnParams::default());
        g.run(100, 0.005);
        assert!(g.mean_activation().abs() < 1e-12);
    }

    #[test]
    fn stimulus_propagates_as_a_wave() {
        let mut g = HeartGrid::new(40, 40, FhnParams::default());
        g.stimulate(0, 0, 5, 1.0);
        let seed_area = g.excited_fraction(0.5);
        let (mut far_peak, mut area_peak) = (0.0f64, 0.0f64);
        for _ in 0..40 {
            g.run(100, 0.005); // t = 0..20
            far_peak = far_peak.max(g.v[g.idx(20, 20)]);
            area_peak = area_peak.max(g.excited_fraction(0.5));
        }
        assert!(
            area_peak > 2.0 * seed_area,
            "wave must spread: {seed_area} -> {area_peak}"
        );
        assert!(far_peak > 0.5, "far cell peak activation {far_peak}");
    }

    #[test]
    fn subthreshold_stimulus_decays() {
        let mut g = HeartGrid::new(20, 20, FhnParams::default());
        g.stimulate(8, 8, 3, 0.02); // below the threshold b/a = 0.08
        g.run(2000, 0.005);
        assert!(g.excited_fraction(0.5) == 0.0);
        assert!(g.mean_activation().abs() < 0.01);
    }

    #[test]
    fn values_stay_bounded() {
        let mut g = HeartGrid::new(30, 30, FhnParams::default());
        g.stimulate(10, 10, 6, 1.0);
        g.run(4000, 0.005);
        assert!(g.v.iter().all(|v| v.is_finite() && v.abs() < 10.0));
        assert!(g.w.iter().all(|w| w.is_finite() && w.abs() < 10.0));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_grid_rejected() {
        let _ = HeartGrid::new(2, 2, FhnParams::default());
    }
}
