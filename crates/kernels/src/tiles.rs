//! Synthetic whole-slide tiles: the NBIA workload substitute.
//!
//! The paper processes digitized neuroblastoma slides decomposed into tiles
//! and classified as stroma-rich, stroma-poor, or background. The runtime
//! behaviour depends on tile geometry and classification confidence, not on
//! medical content, so we generate textured RGB tiles with class-typical
//! statistics (documented substitution; `DESIGN.md` §1) and classify them
//! with a nearest-centroid rule over the real GLCM/LBP features, accepting
//! a tile's label only when the decision margin passes a hypothesis-test
//! style confidence threshold — otherwise the tile is recomputed at the
//! next resolution, exactly the control flow of Figure 1.
//!
//! [`tile_features`] is the one feature path every backend runs: the
//! quantized L channel straight from the pixels
//! ([`crate::color::quantize_tile_l`]), then the texture block
//! ([`crate::texture::feature_vector`]). Its output bits are pinned in the
//! workspace's `tests/paper_shapes.rs`; the generator's RNG stream is part
//! of that pin, and so is every byte it emits.
//!
//! The generator pays per pixel only for what varies per pixel. A
//! stroma-rich tile's coordinates depend on the row and the column alone,
//! so `x = c / side` is computed once per column and `y = r / side` once
//! per row — the same divisions on the same operands as a per-pixel
//! `i % side` and `i / side`, hence the same bits. The columns' `x` values
//! are one vector per tile: that allocation is cheaper than a float divide
//! per pixel, which read 2–3 ns/px slower. A stroma-poor pixel's
//! coin flip indexes a table instead of taking a branch. The bodies they
//! replaced are the oracles of `crates/kernels/tests/generator_oracle.rs`.

use crate::color::{quantize_tile_l, Rgb8};
use crate::texture::feature_vector;
use anthill_simkit::SimRng;

/// Tissue classes assigned by NBIA's stromal-development classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileClass {
    /// Stroma-rich tissue (smooth collagen, favorable histology indicator).
    StromaRich,
    /// Stroma-poor tissue (dense nuclei speckle).
    StromaPoor,
    /// Background (no tissue).
    Background,
}

impl TileClass {
    /// All classes.
    pub const ALL: [TileClass; 3] = [
        TileClass::StromaRich,
        TileClass::StromaPoor,
        TileClass::Background,
    ];
}

/// Quantization levels used by the NBIA feature computation.
pub const QUANT_LEVELS: u8 = 8;

/// A stroma-poor pixel's lightness range and channel multipliers, indexed
/// by its coin flip so the pixel takes no branch to mispredict: eosin
/// background (`false`), then nucleus (`true`).
/// A multiplier of 1 is exact, so `(l * 1.0) as u8` is `l as u8`.
const SPECKLE: [(f64, f64, [f64; 3]); 2] = [
    (170.0, 230.0, [1.0, 0.75, 0.85]),
    (40.0, 110.0, [0.55, 0.40, 1.0]),
];

/// Generates synthetic tiles with class-typical texture statistics.
#[derive(Debug, Clone)]
pub struct TileGenerator {
    rng: SimRng,
}

impl TileGenerator {
    /// Deterministic generator from a seed.
    pub fn new(seed: u64) -> TileGenerator {
        TileGenerator {
            rng: SimRng::new(seed),
        }
    }

    /// Generate a `side × side` RGB tile of the given class.
    pub fn generate(&mut self, class: TileClass, side: u32) -> Vec<Rgb8> {
        let n = (side * side) as usize;
        let mut out = Vec::with_capacity(n);
        match class {
            TileClass::Background => {
                // Near-white glass with faint sensor noise.
                for _ in 0..n {
                    let v = 245.0 + self.rng.normal(0.0, 2.0);
                    let v = v.clamp(0.0, 255.0) as u8;
                    out.push(Rgb8 { r: v, g: v, b: v });
                }
            }
            TileClass::StromaRich => {
                // Smooth pink collagen: low-frequency sinusoidal lightness
                // field plus mild noise.
                let phase = self.rng.uniform_range(0.0, std::f64::consts::TAU);
                let freq = self.rng.uniform_range(0.5, 1.5);
                let xs: Vec<f64> = (0..side).map(|c| f64::from(c) / f64::from(side)).collect();
                for row in 0..side {
                    let y = f64::from(row) / f64::from(side);
                    for &x in &xs {
                        let field =
                            ((x * freq + y * 0.7 * freq) * std::f64::consts::TAU + phase).sin();
                        let l = 190.0 + 25.0 * field + self.rng.normal(0.0, 4.0);
                        let l = l.clamp(0.0, 255.0);
                        out.push(Rgb8 {
                            r: l as u8,
                            g: (l * 0.72) as u8,
                            b: (l * 0.80) as u8,
                        });
                    }
                }
            }
            TileClass::StromaPoor => {
                // Dense nuclei: high-frequency dark-purple speckle on a
                // lighter eosin background.
                for _ in 0..n {
                    let (lo, hi, [mr, mg, mb]) = SPECKLE[usize::from(self.rng.chance(0.45))];
                    let l = self.rng.uniform_range(lo, hi);
                    out.push(Rgb8 {
                        r: (l * mr) as u8,
                        g: (l * mg) as u8,
                        b: (l * mb) as u8,
                    });
                }
            }
        }
        out
    }
}

/// Compute the NBIA feature vector of an RGB tile (color conversion,
/// quantization, GLCM + LBP) — the work of the pipeline's two heavy
/// filters, fused. Only the L channel feeds the texture features, so the
/// conversion computes nothing else.
pub fn tile_features(pixels: &[Rgb8], side: u32) -> Vec<f64> {
    let q = quantize_tile_l(pixels, QUANT_LEVELS);
    feature_vector(&q, side as usize, side as usize, QUANT_LEVELS)
}

/// A nearest-centroid tile classifier with a confidence margin.
#[derive(Debug, Clone)]
pub struct TileClassifier {
    centroids: Vec<(TileClass, Vec<f64>)>,
    scale: Vec<f64>,
}

/// A classification decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The winning class.
    pub class: TileClass,
    /// Margin-based confidence in `[0, 1]`: 0 = ambiguous, 1 = decisive.
    pub confidence: f64,
}

impl TileClassifier {
    /// Train centroids from `samples_per_class` generated tiles of side
    /// `side` per class.
    pub fn train(seed: u64, samples_per_class: usize, side: u32) -> TileClassifier {
        assert!(samples_per_class >= 1);
        let mut gen = TileGenerator::new(seed);
        let mut centroids = Vec::new();
        let mut all: Vec<Vec<f64>> = Vec::new();
        for class in TileClass::ALL {
            let mut sum: Vec<f64> = Vec::new();
            for _ in 0..samples_per_class {
                let f = tile_features(&gen.generate(class, side), side);
                if sum.is_empty() {
                    sum = vec![0.0; f.len()];
                }
                for (s, x) in sum.iter_mut().zip(&f) {
                    *s += x;
                }
                all.push(f);
            }
            for s in &mut sum {
                *s /= samples_per_class as f64;
            }
            centroids.push((class, sum));
        }
        // Per-dimension scale (max abs over training) for a balanced metric.
        let dims = centroids[0].1.len();
        let mut scale = vec![0.0f64; dims];
        for f in &all {
            for (s, x) in scale.iter_mut().zip(f) {
                *s = s.max(x.abs());
            }
        }
        for s in &mut scale {
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        TileClassifier { centroids, scale }
    }

    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .zip(&self.scale)
            .map(|((x, y), s)| {
                let d = (x - y) / s;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Classify a feature vector, returning the class and a margin-based
    /// confidence (`1 − d_best / d_second`).
    pub fn classify(&self, features: &[f64]) -> Decision {
        // The two smallest distances; the earlier centroid wins a tie.
        let mut best = (f64::INFINITY, self.centroids[0].0);
        let mut second = f64::INFINITY;
        for (class, centroid) in &self.centroids {
            let d = self.dist(features, centroid);
            if d < best.0 {
                second = best.0;
                best = (d, *class);
            } else if d < second {
                second = d;
            }
        }
        let confidence = if second <= 1e-12 {
            0.0
        } else {
            (1.0 - best.0 / second).clamp(0.0, 1.0)
        };
        Decision {
            class: best.1,
            confidence,
        }
    }

    /// The hypothesis test of the Classifier filter: accept the decision at
    /// this resolution iff its confidence reaches `threshold`.
    pub fn accept(&self, features: &[f64], threshold: f64) -> (Decision, bool) {
        let d = self.classify(features);
        let ok = d.confidence >= threshold;
        (d, ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let mut a = TileGenerator::new(5);
        let mut b = TileGenerator::new(5);
        assert_eq!(
            a.generate(TileClass::StromaPoor, 16),
            b.generate(TileClass::StromaPoor, 16)
        );
    }

    #[test]
    fn classes_have_distinct_statistics() {
        let mut gen = TileGenerator::new(7);
        let bg = tile_features(&gen.generate(TileClass::Background, 32), 32);
        let rich = tile_features(&gen.generate(TileClass::StromaRich, 32), 32);
        let poor = tile_features(&gen.generate(TileClass::StromaPoor, 32), 32);
        // Contrast (feature 0): background ≈ 0, poor > rich.
        assert!(bg[0] < 0.2, "background contrast {}", bg[0]);
        assert!(poor[0] > rich[0], "poor {} !> rich {}", poor[0], rich[0]);
    }

    #[test]
    fn classifier_separates_the_classes() {
        let clf = TileClassifier::train(11, 6, 32);
        let mut gen = TileGenerator::new(99);
        let mut correct = 0;
        let trials = 10;
        for class in TileClass::ALL {
            for _ in 0..trials {
                let f = tile_features(&gen.generate(class, 32), 32);
                if clf.classify(&f).class == class {
                    correct += 1;
                }
            }
        }
        assert!(correct >= 28, "accuracy too low: {correct}/{}", 3 * trials);
    }

    #[test]
    fn higher_resolution_does_not_hurt_confidence_on_clean_classes() {
        let clf = TileClassifier::train(13, 6, 32);
        let mut gen = TileGenerator::new(42);
        let f = tile_features(&gen.generate(TileClass::Background, 32), 32);
        let d = clf.classify(&f);
        assert_eq!(d.class, TileClass::Background);
        assert!(d.confidence > 0.3, "confidence {}", d.confidence);
    }

    #[test]
    fn classify_breaks_ties_toward_the_earlier_centroid() {
        // What a stable sort by distance gave: of two equidistant
        // centroids the first listed wins, and the other is the runner-up.
        let clf = TileClassifier {
            centroids: vec![
                (TileClass::StromaPoor, vec![3.0, 0.0]),
                (TileClass::StromaRich, vec![1.0, 0.0]),
                (TileClass::Background, vec![-1.0, 0.0]),
            ],
            scale: vec![1.0, 1.0],
        };
        let tied = clf.classify(&[0.0, 0.0]);
        assert_eq!(tied.class, TileClass::StromaRich);
        assert_eq!(tied.confidence, 0.0);
        let clear = clf.classify(&[2.5, 0.0]);
        assert_eq!(clear.class, TileClass::StromaPoor);
        assert_eq!(clear.confidence, 1.0 - 0.5 / 1.5);
    }

    #[test]
    fn accept_thresholds_the_margin() {
        let clf = TileClassifier::train(17, 6, 32);
        let mut gen = TileGenerator::new(23);
        let f = tile_features(&gen.generate(TileClass::StromaPoor, 32), 32);
        let (_, always) = clf.accept(&f, 0.0);
        let (_, never) = clf.accept(&f, 1.1);
        assert!(always);
        assert!(!never);
    }
}
