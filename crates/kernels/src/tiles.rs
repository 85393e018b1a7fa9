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
//! (`crate::texture::feature_vector`). Its output bits are pinned in the
//! workspace's `tests/paper_shapes.rs`; the generator's RNG stream is part
//! of that pin, and so is every byte it emits.
//!
//! **Approximate, then exact where it matters.** A pixel's bytes are `as u8`
//! truncations of a lightness `l`, `l·0.72` and `l·0.80` (stroma-rich),
//! or of `245 + 2z` (background). The generator computes those values
//! without a libm call per pixel, within `PIXEL_ERROR` of the exact
//! expressions, and truncates them. Such a value gives the exact byte
//! unless it lies within `GUARD` of an integer; then, and only then, the
//! pixel recomputes the exact expression (Shewchuk's filter-then-exact
//! rule for adaptive predicates, 1997). So every byte is the exact one,
//! and about one pixel in 10⁶ pays for libm.
//! - The noise `z` is an approximation from a [`NormalRow`] that
//!   [`SimRng::gaussian_row`] fills: a table-driven Box-Muller value within
//!   [`DEVIATE_ERROR`] of the one `SimRng::normal` returns for the same
//!   draw, read as one `f64` slice.
//! - The stroma field `sin(a_c + b_r)` is separable: `a_c` depends on the
//!   column, `b_r` on the row, so `sin a_c · cos b_r + cos a_c · sin b_r`
//!   takes two libm calls per column and two per row, not one per pixel.
//! - A row is made in slice-wise passes, each a loop that carries no state
//!   from one pixel to the next: the row's deviates; for stroma-rich, the
//!   lightness row from the deviates and the column angles (two slices,
//!   sines and cosines); then the bytes and their guard flags from the
//!   value row. A value is truncated with no float-to-integer conversion:
//!   adding and subtracting `2⁵² + 2⁵¹` gives its nearest integer `n`, the
//!   byte is `n`, less one where the value is below it, and the guard
//!   measures from `n`. Last, only in a row where some flag is set, the
//!   flagged pixels take the exact expression.
//!
//! A stroma-poor pixel's coin flip indexes a table instead of taking a
//! branch; its draws and bytes stay one loop, which read faster than two
//! passes. The per-pixel bodies this replaced are the oracles of
//! `crates/kernels/tests/generator_oracle.rs`.
//!
//! **The bound.** With `u` = 2⁻⁵³ the unit roundoff and libm within 1 ulp:
//! - The exact angle `(x·freq + y·0.7·freq)·τ + phase` (below 22.3) rounds
//!   to within 54.3`u` of its real value, and `a_c + b_r` to within
//!   31.7`u`. With the four libm values, the angle-addition roundings and
//!   the exact side's `sin` (15`u`), the separable field is within 101`u`
//!   of the exact one: `FIELD_ERROR` is 110`u`.
//! - A stroma-rich `l` is then within `25·FIELD_ERROR + 4·DEVIATE_ERROR`
//!   plus each side's three roundings below 256 (990`u`) ≈ 6.2·10⁻¹³ of
//!   the exact `l`. `l·0.72` and `l·0.80` are within 0.8 times that plus
//!   two roundings, and a background `245 + 2z` within
//!   `2·DEVIATE_ERROR + 526u` ≈ 1.6·10⁻¹³.
//! - `PIXEL_ERROR` = 10⁻¹² bounds them all, and `GUARD` = 10⁻⁷ is 10⁵
//!   times it. Over 10⁸ pixels, at the sides a job runs and at odd ones,
//!   the largest distance read 1.7·10⁻¹³ and 41 pixels fell back (the
//!   ignored `sweep_of_approximate_values_against_the_per_pixel_bodies`).

use crate::color::{quantize_tile_l, Rgb8};
use crate::texture::feature_vector;
use anthill_simkit::{NormalRow, SimRng, DEVIATE_ERROR, ROUND};
use std::f64::consts::TAU;

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

/// How far the separable stroma field may lie from the exact one (module
/// docs): 101`u`, rounded up.
const FIELD_ERROR: f64 = 110.0 * f64::EPSILON / 2.0;

/// How far a truncated value may lie from the exact expression's (module
/// docs): the stroma-rich lightness bound, rounded up.
const PIXEL_ERROR: f64 = 1e-12;
const _: () =
    assert!(25.0 * FIELD_ERROR + 4.0 * DEVIATE_ERROR + 1_000.0 * f64::EPSILON / 2.0 <= PIXEL_ERROR);

/// A truncated value at least this far from every integer gives the exact
/// expression's byte.
const GUARD: f64 = 1e-7;
const _: () = assert!(GUARD >= 1e4 * PIXEL_ERROR);

/// `v` (in `0..=255`) truncated to a byte, and whether `v` lies within
/// `GUARD` of an integer, where its truncation could differ from the exact
/// value's. Both come from `v`'s nearest integer `n`, with no conversion:
/// the byte is `n`, less one where `v < n`.
#[inline]
fn truncate(v: f64) -> (u8, bool) {
    let sum = v + ROUND;
    let n = sum - ROUND;
    let t = (sum.to_bits() as u8).wrapping_sub(u8::from(v < n));
    (t, (v - n).abs() < GUARD)
}

/// A background pixel: near-white glass with faint sensor noise. Exact
/// for the exact `z`: `SimRng::normal(0.0, 2.0)` is `0 + 2z`, which adds
/// to 245 as `2z` does.
#[inline]
fn glass(z: f64) -> Rgb8 {
    let v = (245.0 + 2.0 * z).clamp(0.0, 255.0) as u8;
    Rgb8 { r: v, g: v, b: v }
}

/// A stroma-rich pixel of lightness `l`: smooth pink collagen.
#[inline]
fn collagen(l: f64) -> Rgb8 {
    let l = l.clamp(0.0, 255.0);
    Rgb8 {
        r: l as u8,
        g: (l * 0.72) as u8,
        b: (l * 0.80) as u8,
    }
}

/// A row's scratch, allocated once per tile: each pixel's approximate
/// value, the one its bytes truncate (`245 + 2z`, or the lightness `l`),
/// clamped to `0..=255`; and its guard flag, whether that value (or
/// `l·0.72` or `l·0.80`) lies within `GUARD` of an integer.
struct RowValues {
    values: Vec<f64>,
    near: Vec<bool>,
}

impl RowValues {
    fn new(width: usize) -> RowValues {
        RowValues {
            values: vec![0.0; width],
            near: vec![false; width],
        }
    }

    /// Set every flagged pixel of `px` to `exact(c)`; a row without a flag
    /// costs one scan of the flags.
    #[inline]
    fn fall_back(&self, px: &mut [Rgb8], exact: impl Fn(usize) -> Rgb8) {
        if self.near.contains(&true) {
            for c in (0..px.len()).filter(|&c| self.near[c]) {
                px[c] = exact(c);
            }
        }
    }
}

/// One background row from its deviates' approximations `zs`: the
/// approximate values, bytes and guard flags, then the exact pixel, from
/// deviate `c`'s exact value `exact(c)`, wherever a flag is set.
fn glass_row(px: &mut [Rgb8], zs: &[f64], exact: impl Fn(usize) -> f64, row: &mut RowValues) {
    let cells = px
        .iter_mut()
        .zip(zs)
        .zip(&mut row.values)
        .zip(&mut row.near);
    for (((p, &z), value), near) in cells {
        *value = (245.0 + 2.0 * z).clamp(0.0, 255.0);
        let v;
        (v, *near) = truncate(*value);
        *p = Rgb8 { r: v, g: v, b: v };
    }
    row.fall_back(px, |c| glass(exact(c)));
}

/// A stroma-rich tile's lightness field, `sin(a_c + b_r)`: the sine and
/// cosine of each column's `a_c`, and what each row's `b_r` needs.
struct StromaField {
    side: u32,
    freq: f64,
    phase: f64,
    /// `sin a_c` per column, `a_c = x·freq·τ + phase`.
    sin_a: Vec<f64>,
    /// `cos a_c` per column.
    cos_a: Vec<f64>,
}

impl StromaField {
    fn new(side: u32, freq: f64, phase: f64) -> StromaField {
        let (sin_a, cos_a) = (0..side)
            .map(|c| (f64::from(c) / f64::from(side) * freq * TAU + phase).sin_cos())
            .unzip();
        StromaField {
            side,
            freq,
            phase,
            sin_a,
            cos_a,
        }
    }

    /// The exact pixel at column `c` of the row at `y` for the exact `z`:
    /// `SimRng::normal(0.0, 4.0)` is `0 + 4z`, which adds as `4z` does.
    fn exact(&self, c: usize, y: f64, z: f64) -> Rgb8 {
        let x = c as f64 / f64::from(self.side);
        let field = ((x * self.freq + y * 0.7 * self.freq) * TAU + self.phase).sin();
        collagen(190.0 + 25.0 * field + 4.0 * z)
    }

    /// `y` and `(sin b_r, cos b_r)` of row `row`, `b_r = y·0.7·freq·τ`.
    fn row_angle(&self, row: u32) -> (f64, (f64, f64)) {
        let y = f64::from(row) / f64::from(self.side);
        (y, (y * 0.7 * self.freq * TAU).sin_cos())
    }

    /// The approximate lightness where the column's `sin a_c` and
    /// `cos a_c` meet the row's `(sin b_r, cos b_r)`, for the approximate
    /// `z`.
    #[inline]
    fn lightness(sin_a: f64, cos_a: f64, (sin_b, cos_b): (f64, f64), z: f64) -> f64 {
        let field = sin_a * cos_b + cos_a * sin_b;
        (190.0 + 25.0 * field + 4.0 * z).clamp(0.0, 255.0)
    }

    /// Row `row` from its deviates' approximations `zs`: the lightness
    /// row first, then the bytes and guard flags, each channel truncated
    /// once for both; then the exact pixel, from `exact(c)`, wherever `l`,
    /// `l·0.72` or `l·0.80` is near an integer.
    fn row(
        &self,
        row: u32,
        px: &mut [Rgb8],
        zs: &[f64],
        exact: impl Fn(usize) -> f64,
        values: &mut RowValues,
    ) {
        let (y, b_r) = self.row_angle(row);
        let columns = self.sin_a.iter().zip(&self.cos_a);
        for ((l, &z), (&sin_a, &cos_a)) in values.values.iter_mut().zip(zs).zip(columns) {
            *l = StromaField::lightness(sin_a, cos_a, b_r, z);
        }
        let cells = px.iter_mut().zip(&values.values).zip(&mut values.near);
        for ((p, &l), near) in cells {
            let (r, near_r) = truncate(l);
            let (g, near_g) = truncate(l * 0.72);
            let (b, near_b) = truncate(l * 0.80);
            *p = Rgb8 { r, g, b };
            *near = near_r | near_g | near_b;
        }
        values.fall_back(px, |c| self.exact(c, y, exact(c)));
    }
}

/// The pixel count of a `side × side` tile, computed in `usize` (in `u32`
/// a side of 2¹⁶ or more wraps).
pub(crate) fn tile_pixels(side: u32) -> usize {
    let side = side as usize;
    side.checked_mul(side)
        .expect("a side × side pixel count fits in usize")
}

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
        let n = tile_pixels(side);
        // A 0-side tile has no rows (and `chunks_exact_mut(0)` panics).
        let width = side.max(1) as usize;
        let mut out = vec![Rgb8 { r: 0, g: 0, b: 0 }; n];
        let rows = out.chunks_exact_mut(width);
        // The noisy classes' scratch rows, once per tile.
        let scratch = || (NormalRow::new(width), RowValues::new(width));
        match class {
            TileClass::Background => {
                let (mut zs, mut values) = scratch();
                for px in rows {
                    self.rng.gaussian_row(&mut zs);
                    glass_row(px, zs.approx(), |c| zs.deviate(c).exact(), &mut values);
                }
            }
            TileClass::StromaRich => {
                // Smooth pink collagen: low-frequency sinusoidal lightness
                // field plus mild noise.
                let phase = self.rng.uniform_range(0.0, TAU);
                let freq = self.rng.uniform_range(0.5, 1.5);
                let field = StromaField::new(side, freq, phase);
                let (mut zs, mut values) = scratch();
                for (row, px) in (0..).zip(rows) {
                    self.rng.gaussian_row(&mut zs);
                    let exact = |c| zs.deviate(c).exact();
                    field.row(row, px, zs.approx(), exact, &mut values);
                }
            }
            TileClass::StromaPoor => {
                // Dense nuclei: high-frequency dark-purple speckle on a
                // lighter eosin background.
                for p in &mut out {
                    let (lo, hi, [mr, mg, mb]) = SPECKLE[usize::from(self.rng.chance(0.45))];
                    let l = self.rng.uniform_range(lo, hi);
                    *p = Rgb8 {
                        r: (l * mr) as u8,
                        g: (l * mg) as u8,
                        b: (l * mb) as u8,
                    };
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
    use anthill_simkit::Deviate;
    use std::cell::Cell;

    /// Whether `v` (≥ 0) lies within `GUARD` of an integer, measured from
    /// its cast: the guard `truncate` computes without one.
    fn near_integer(v: f64) -> bool {
        (v - f64::from(v as i32) - 0.5).abs() > 0.5 - GUARD
    }

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
    fn tile_pixels_does_not_wrap() {
        assert_eq!(tile_pixels(0), 0);
        assert_eq!(tile_pixels(128), 16_384);
        assert_eq!(tile_pixels(65_535), 4_294_836_225);
        assert_eq!(tile_pixels(65_536), 4_294_967_296);
        assert_eq!(tile_pixels(u32::MAX), 18_446_744_065_119_617_025);
    }

    #[test]
    fn near_integer_is_the_guard() {
        for k in [0.0, 1.0, 130.0, 254.0] {
            assert!(near_integer(k));
            assert!(near_integer(k + GUARD / 2.0));
            assert!(!near_integer(k + 2.0 * GUARD));
            assert!(!near_integer(k + 0.5));
        }
        for k in [1.0, 130.0, 255.0] {
            assert!(near_integer(k - GUARD / 2.0));
            assert!(!near_integer(k - 2.0 * GUARD));
        }
    }

    #[test]
    fn truncate_is_the_cast_and_the_guard() {
        let edges = [
            0.0,
            GUARD / 2.0,
            2.0 * GUARD,
            0.5,
            1.0 - GUARD / 2.0,
            254.999_999_99,
        ];
        let steps = (0..=255 * 64).map(|i| f64::from(i) / 64.0 + 1e-9 * f64::from(i % 7));
        for v in edges.into_iter().chain(steps).map(|v| v.min(255.0)) {
            assert_eq!(truncate(v), (v as u8, near_integer(v)), "{v}");
        }
    }

    /// A cos-half deviate whose exact value puts `value(z)` at the integer
    /// `k` (to ~10⁻¹³), and an approximation of it that puts `value` 10⁻⁸
    /// past `k` on the other side: truncating the approximation misses by
    /// one.
    fn straddling(value: impl Fn(f64) -> f64, slope: f64, k: f64, z0: f64) -> (Deviate, f64) {
        let d = Deviate {
            u1: (-z0 * z0 / 2.0).exp(),
            u2: 0.0,
            spare: false,
        };
        let z = d.exact();
        let exact = value(z);
        assert!((exact - k).abs() < 1e-9, "{exact} is not at {k}");
        let target = if exact < k { k + 1e-8 } else { k - 1e-8 };
        let approx_z = z + (target - exact) / slope;
        let approx = value(approx_z);
        assert!(near_integer(approx), "{approx} is not within the guard");
        assert_ne!(approx as u8, exact as u8, "{approx} and {exact}");
        (d, approx_z)
    }

    #[test]
    fn a_value_within_the_guard_takes_the_exact_expression() {
        // Background, `245 + 2z` at 250.
        let (d, approx) = straddling(|z| 245.0 + 2.0 * z, 2.0, 250.0, 2.5);
        let mut px = [Rgb8 { r: 0, g: 0, b: 0 }];
        glass_row(&mut px, &[approx], |_| d.exact(), &mut RowValues::new(1));
        // The per-pixel body, as `generator_oracle.rs` has it.
        let v = (245.0 + 2.0 * d.exact()).clamp(0.0, 255.0) as u8;
        assert_eq!(px[0], Rgb8 { r: v, g: v, b: v });

        // Stroma-rich on a 1 × 1 tile: the field is sin(phase) on both
        // paths, so each case straddles through `z` alone.
        let (freq, phase) = (1.0, 1.0);
        let field = StromaField::new(1, freq, phase);
        let exact_field = ((0.0 * freq + 0.0 * 0.7 * freq) * TAU + phase).sin();
        let l = |z: f64| 190.0 + 25.0 * exact_field + 4.0 * z;
        let z_at = |l: f64| (l - 190.0 - 25.0 * exact_field) / 4.0;
        for (what, (d, approx)) in [
            ("l", straddling(l, 4.0, 213.0, z_at(213.0))),
            (
                "l·0.72",
                straddling(|z| l(z) * 0.72, 2.88, 160.0, z_at(160.0 / 0.72)),
            ),
            (
                "l·0.80",
                straddling(|z| l(z) * 0.80, 3.2, 177.0, z_at(177.0 / 0.80)),
            ),
        ] {
            let mut px = [Rgb8 { r: 0, g: 0, b: 0 }];
            field.row(0, &mut px, &[approx], |_| d.exact(), &mut RowValues::new(1));
            let l = l(d.exact()).clamp(0.0, 255.0);
            let want = Rgb8 {
                r: l as u8,
                g: (l * 0.72) as u8,
                b: (l * 0.80) as u8,
            };
            assert_eq!(px[0], want, "{what}");
        }
    }

    /// `generator_oracle.rs`'s per-pixel body, keeping each noisy pixel's
    /// exact truncated value (`245 + 2z`, or `l`, clamped) beside its bytes.
    fn oracle_values(rng: &mut SimRng, class: TileClass, side: u32) -> Vec<(Rgb8, f64)> {
        let mut out = Vec::new();
        let (phase, freq) = match class {
            TileClass::StromaRich => (rng.uniform_range(0.0, TAU), rng.uniform_range(0.5, 1.5)),
            _ => (0.0, 0.0),
        };
        for row in 0..side {
            let y = f64::from(row) / f64::from(side);
            for c in 0..side {
                let x = f64::from(c) / f64::from(side);
                if class == TileClass::Background {
                    let v = (245.0 + rng.normal(0.0, 2.0)).clamp(0.0, 255.0);
                    let b = v as u8;
                    out.push((Rgb8 { r: b, g: b, b }, v));
                } else if class == TileClass::StromaPoor {
                    let px = if rng.chance(0.45) {
                        let l = rng.uniform_range(40.0, 110.0);
                        Rgb8 {
                            r: (l * 0.55) as u8,
                            g: (l * 0.40) as u8,
                            b: l as u8,
                        }
                    } else {
                        let l = rng.uniform_range(170.0, 230.0);
                        Rgb8 {
                            r: l as u8,
                            g: (l * 0.75) as u8,
                            b: (l * 0.85) as u8,
                        }
                    };
                    out.push((px, f64::NAN));
                } else {
                    let field = ((x * freq + y * 0.7 * freq) * TAU + phase).sin();
                    let l = 190.0 + 25.0 * field + rng.normal(0.0, 4.0);
                    let l = l.clamp(0.0, 255.0);
                    let px = Rgb8 {
                        r: l as u8,
                        g: (l * 0.72) as u8,
                        b: (l * 0.80) as u8,
                    };
                    out.push((px, l));
                }
            }
        }
        out
    }

    /// The approximate values and guard flags that `generate`'s row passes
    /// leave for the tile it draws next from `rng`, with the number of
    /// exact values the passes asked for.
    fn approximate_values(
        rng: &mut SimRng,
        class: TileClass,
        side: u32,
    ) -> (Vec<(f64, bool)>, u64) {
        let mut zs = NormalRow::new(side as usize);
        let mut row = RowValues::new(side as usize);
        let mut px = vec![Rgb8 { r: 0, g: 0, b: 0 }; side as usize];
        let (mut out, exact_calls) = (Vec::new(), Cell::new(0));
        let exact = |zs: &NormalRow, c| {
            exact_calls.set(exact_calls.get() + 1);
            zs.deviate(c).exact()
        };
        let field = (class == TileClass::StromaRich).then(|| {
            let phase = rng.uniform_range(0.0, TAU);
            let freq = rng.uniform_range(0.5, 1.5);
            StromaField::new(side, freq, phase)
        });
        if class != TileClass::StromaPoor {
            for r in 0..side {
                rng.gaussian_row(&mut zs);
                match &field {
                    Some(field) => field.row(r, &mut px, zs.approx(), |c| exact(&zs, c), &mut row),
                    None => glass_row(&mut px, zs.approx(), |c| exact(&zs, c), &mut row),
                }
                out.extend(row.values.iter().copied().zip(row.near.iter().copied()));
            }
        }
        (out, exact_calls.get())
    }

    /// At least 10⁸ pixels of every class, at the sides a job runs (32, 64,
    /// 128) and at odd ones, each against the per-pixel body: every byte
    /// equal, every approximate value the row passes computed within
    /// `PIXEL_ERROR` of the exact one, and an exact value taken for every
    /// flagged pixel. Prints the fallback count and the largest
    /// |approximate − exact|.
    #[test]
    #[ignore = "10^8 pixels: cargo test --release -p anthill-kernels -- --ignored sweep"]
    fn sweep_of_approximate_values_against_the_per_pixel_bodies() {
        let (mut pixels, mut fallbacks, mut worst, mut seeds) = (0u64, 0u64, 0.0f64, 0);
        while pixels < 100_000_000 {
            let mut gen = TileGenerator::new(seeds);
            let mut oracle = SimRng::new(seeds);
            for side in [1, 3, 17, 32, 64, 65, 127, 128, 129] {
                for class in TileClass::ALL {
                    let mut probe = gen.rng.clone();
                    let tile = gen.generate(class, side);
                    let want = oracle_values(&mut oracle, class, side);
                    for (i, (p, (want, _))) in tile.iter().zip(&want).enumerate() {
                        assert_eq!(p, want, "seed {seeds}, {class:?}, side {side}, pixel {i}");
                    }
                    let (fast, exact_calls) = approximate_values(&mut probe, class, side);
                    let flagged = fast.iter().filter(|(_, near)| *near).count() as u64;
                    assert_eq!(exact_calls, flagged, "seed {seeds}, {class:?}, side {side}");
                    fallbacks += flagged;
                    for ((_, exact), (approx, _)) in want.iter().zip(&fast) {
                        worst = worst.max((approx - exact).abs());
                    }
                    pixels += tile.len() as u64;
                }
            }
            seeds += 1;
        }
        eprintln!(
            "sweep: {pixels} pixels over {seeds} seeds, {fallbacks} fallbacks, \
             max |approximate - exact| {worst:e}"
        );
        assert!(worst <= PIXEL_ERROR, "{worst:e}");
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
