//! RGB → CIE La\*b\* color conversion — the NBIA pipeline's first
//! computational filter (paper Section 2). La\*b\* separates intensity from
//! color and makes pixel differences perceptually uniform, enabling
//! Euclidean distances in the feature computation.
//!
//! An 8-bit channel has 256 possible values, so the sRGB transfer function
//! is a 256-entry table filled once by its own formula; and the texture
//! features read only the quantized L channel, so [`quantize_tile_l`]
//! produces it straight from the pixels — no a\*/b\*, no intermediate
//! `Lab` tile. A generated tile has a few hundred colours at most, so a
//! per-call direct-mapped memo keyed by the 24-bit colour answers the
//! other pixels; a colour evicted by a slot collision is computed again.
//! Both are bit-identical to the per-pixel formulas (`rgb_to_lab`, then
//! `quantize_l`), which the tests keep as the definition.
//!
//! **Thresholds, then exact where it matters.** The level is a step
//! function of the luminance `Y`: level `k` starts where the real L\* is
//! `L_k` = 100·(k − ½)/(levels − 1). A memo miss compares the pixel's `Y`
//! with the `levels − 1` thresholds, precomputed per call as the `Y` of
//! `L_k ± L_GUARD`, and returns how many lie below it; only a `Y` inside
//! a band `L_k ± L_GUARD` runs the exact chain (`cbrt`, `f32` rounding,
//! `quantize`) — the filter-then-exact rule of `tiles.rs`. Both paths
//! start from the same `f64` `Y`, and the exact chain's L\* is within
//! `L_ERROR` of the real one:
//! - `cbrt` (or the linear branch) and `116·f − 16` in `f64` err by
//!   under 10⁻¹³;
//! - L\* rounded to `f32`, then `/ 100` and `· (levels − 1)` in `f32`, are
//!   three roundings of relative size 2⁻²⁴ each, so the value `round`
//!   compares with `k − ½` is, in L\* units, within 3·2⁻²⁴·100 ≈
//!   1.8·10⁻⁵ of the real L\*.
//!
//! So a `Y` whose real L\* is more than `L_ERROR` (2·10⁻⁵) from every
//! `L_k` gets the threshold count from the exact chain too. `L_GUARD` is
//! 100 times `L_ERROR` (2·10⁻³), and the thresholds' own `f64` error is
//! ~10⁻¹⁵ in `Y`. At 8 levels 4 519 of the 2²⁴ colours (~1 in 3 700) lie
//! inside a band; the ignored `every_colour_quantizes_as_convert_then_quantize`
//! checks all of them at 2, 3, 8, 16 and 255 levels.

use std::sync::OnceLock;

/// An 8-bit RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rgb8 {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

/// A CIE La\*b\* pixel (D65 white point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lab {
    /// Lightness, 0..100.
    pub l: f32,
    /// Green–red axis.
    pub a: f32,
    /// Blue–yellow axis.
    pub b: f32,
}

/// The sRGB transfer function: an encoded channel in `0..=1` to linear
/// light.
fn srgb_to_linear(c: f64) -> f64 {
    if c <= 0.04045 {
        c / 12.92
    } else {
        ((c + 0.055) / 1.055).powf(2.4)
    }
}

/// [`srgb_to_linear`] of every 8-bit channel value, indexed by the value.
fn linear_table() -> &'static [f64; 256] {
    static TABLE: OnceLock<[f64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|i| srgb_to_linear(i as f64 / 255.0)))
}

/// Where [`lab_f`] turns from its linear segment to the cube root, in `f`.
const DELTA: f64 = 6.0 / 29.0;

#[inline]
fn lab_f(t: f64) -> f64 {
    if t > DELTA * DELTA * DELTA {
        t.cbrt()
    } else {
        t / (3.0 * DELTA * DELTA) + 4.0 / 29.0
    }
}

/// A pixel's three channels in linear light.
#[inline]
fn linear_rgb(lin: &[f64; 256], p: Rgb8) -> (f64, f64, f64) {
    (
        lin[usize::from(p.r)],
        lin[usize::from(p.g)],
        lin[usize::from(p.b)],
    )
}

/// The luminance `Y/Yn` of a linear-light pixel: the Y row of the sRGB
/// D65 matrix (the reference white's Yn is 1).
#[inline]
fn luminance(r: f64, g: f64, b: f64) -> f64 {
    0.212_672_9 * r + 0.715_152_2 * g + 0.072_175_0 * b
}

/// L\* (0..100) from `f(Y/Yn)`.
#[inline]
fn lightness(fy: f64) -> f32 {
    (116.0 * fy - 16.0) as f32
}

/// L\* to one of `top + 1` gray levels.
#[inline]
fn quantize(l: f32, top: f32) -> u8 {
    ((l / 100.0).clamp(0.0, 1.0) * top).round() as u8
}

/// How far the L\* that [`quantize`] effectively compares may lie from
/// the real L\* of the same `Y` (module docs): 1.8·10⁻⁵, rounded up.
const L_ERROR: f64 = 2e-5;
const _: () = assert!(100.0 * 3.0 * (f32::EPSILON as f64 / 2.0) * 1.001 + 1e-12 <= L_ERROR);

/// Half the width, in L\*, of the band around a level boundary where
/// [`quantize_tile_l`] runs the exact chain.
const L_GUARD: f64 = 2e-3;
const _: () = assert!(L_GUARD >= 100.0 * L_ERROR);

/// The `Y` whose real L\* is `l`: L\* = 116·f − 16 solved for `f`, then
/// [`lab_f`] inverted.
fn luminance_at(l: f64) -> f64 {
    let f = (l + 16.0) / 116.0;
    if f > DELTA {
        f * f * f
    } else {
        3.0 * DELTA * DELTA * (f - 4.0 / 29.0)
    }
}

/// The `Y` bands around the boundaries between `levels` gray levels.
/// Level `k` starts where L\* = 100·(k − ½)/(levels − 1); band `k − 1` holds
/// the `Y` whose real L\* lies within `L_GUARD` of that.
struct LevelBands {
    /// `(lowest, highest)` `Y` of each band, in ascending order.
    bands: Vec<(f64, f64)>,
}

impl LevelBands {
    fn new(levels: u8) -> LevelBands {
        let top = f64::from(levels - 1);
        let bands = (1..levels)
            .map(|k| {
                let l = 100.0 * (f64::from(k) - 0.5) / top;
                (luminance_at(l - L_GUARD), luminance_at(l + L_GUARD))
            })
            .collect();
        LevelBands { bands }
    }

    /// The level of luminance `y`: how many bands lie below it, or `None`
    /// if `y` lies inside one.
    #[inline]
    fn level(&self, y: f64) -> Option<u8> {
        let k = self.bands.partition_point(|&(_, hi)| hi <= y);
        match self.bands.get(k) {
            Some(&(lo, _)) if y > lo => None,
            _ => Some(k as u8),
        }
    }

    /// The level of pixel `p` among `top + 1`, by [`LevelBands::level`] or,
    /// inside a band, by the exact chain. Kept out of line: the memo's
    /// hit loop stays small, which timed faster on every tile class.
    #[inline(never)]
    fn quantize(&self, lin: &[f64; 256], p: Rgb8, top: f32) -> u8 {
        let (r, g, b) = linear_rgb(lin, p);
        let y = luminance(r, g, b);
        self.level(y)
            .unwrap_or_else(|| quantize(lightness(lab_f(y)), top))
    }
}

/// Convert one sRGB pixel to La\*b\* (D65).
pub(crate) fn rgb_to_lab(p: Rgb8) -> Lab {
    let (r, g, b) = linear_rgb(linear_table(), p);
    // The X and Z rows of the sRGB D65 matrix, over the reference white.
    let x = 0.412_456_4 * r + 0.357_576_1 * g + 0.180_437_5 * b;
    let z = 0.019_333_9 * r + 0.119_192_0 * g + 0.950_304_1 * b;
    let (fx, fy, fz) = (
        lab_f(x / 0.950_47),
        lab_f(luminance(r, g, b)),
        lab_f(z / 1.088_83),
    );
    Lab {
        l: lightness(fy),
        a: (500.0 * (fx - fy)) as f32,
        b: (200.0 * (fy - fz)) as f32,
    }
}

/// Convert a whole tile of pixels.
pub fn convert_tile(pixels: &[Rgb8]) -> Vec<Lab> {
    pixels.iter().map(|&p| rgb_to_lab(p)).collect()
}

/// Quantize the L channel of a converted tile to `levels` gray levels
/// (input to the co-occurrence computation).
pub fn quantize_l(lab: &[Lab], levels: u8) -> Vec<u8> {
    assert!(levels >= 2, "need at least 2 levels");
    let top = f32::from(levels - 1);
    lab.iter().map(|p| quantize(p.l, top)).collect()
}

/// Slots of [`quantize_tile_l`]'s memo: 16 KiB of keys and 4 KiB of
/// levels on the stack.
const MEMO_SLOTS: usize = 1 << 12;

/// A pixel's 24-bit colour, the memo's key. It is below `1 << 24`, so it
/// never equals the empty slot's `u32::MAX`.
#[inline]
fn colour_key(p: Rgb8) -> u32 {
    u32::from(p.r) << 16 | u32::from(p.g) << 8 | u32::from(p.b)
}

/// The memo slot of a colour key: a Fibonacci hash, its top 12 bits.
#[inline]
fn memo_slot(key: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B1) >> 20) as usize
}

/// The quantized L channel of an RGB tile: `quantize_l(&convert_tile(pixels),
/// levels)` bit for bit, without computing a\*/b\* or storing the `Lab`
/// tile. This is what the NBIA feature computation consumes.
///
/// The per-colour map is memoised for the call in a direct-mapped cache,
/// so `levels` is fixed for every entry it holds.
pub fn quantize_tile_l(pixels: &[Rgb8], levels: u8) -> Vec<u8> {
    assert!(levels >= 2, "need at least 2 levels");
    let lin = linear_table();
    let top = f32::from(levels - 1);
    let bands = LevelBands::new(levels);
    let mut keys = [u32::MAX; MEMO_SLOTS];
    let mut quantized = [0u8; MEMO_SLOTS];
    pixels
        .iter()
        .map(|&p| {
            let key = colour_key(p);
            let slot = memo_slot(key);
            if keys[slot] != key {
                keys[slot] = key;
                quantized[slot] = bands.quantize(lin, p, top);
            }
            quantized[slot]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(r: u8, g: u8, b: u8) -> Rgb8 {
        Rgb8 { r, g, b }
    }

    #[test]
    fn black_and_white_anchors() {
        let black = rgb_to_lab(px(0, 0, 0));
        assert!(black.l.abs() < 0.01);
        assert!(black.a.abs() < 0.01 && black.b.abs() < 0.01);
        let white = rgb_to_lab(px(255, 255, 255));
        assert!((white.l - 100.0).abs() < 0.01, "L {}", white.l);
        assert!(white.a.abs() < 0.1 && white.b.abs() < 0.1);
    }

    #[test]
    fn primary_colors_have_expected_signs() {
        let red = rgb_to_lab(px(255, 0, 0));
        assert!(red.a > 50.0, "red a* {}", red.a);
        let green = rgb_to_lab(px(0, 255, 0));
        assert!(green.a < -50.0, "green a* {}", green.a);
        let blue = rgb_to_lab(px(0, 0, 255));
        assert!(blue.b < -50.0, "blue b* {}", blue.b);
        let yellow = rgb_to_lab(px(255, 255, 0));
        assert!(yellow.b > 50.0, "yellow b* {}", yellow.b);
    }

    #[test]
    fn known_reference_value() {
        // sRGB (128,128,128) => L* ≈ 53.59, a* = b* = 0.
        let gray = rgb_to_lab(px(128, 128, 128));
        assert!((gray.l - 53.59).abs() < 0.05, "L {}", gray.l);
        assert!(gray.a.abs() < 0.01 && gray.b.abs() < 0.01);
    }

    #[test]
    fn lightness_is_monotonic_in_gray_level() {
        let mut last = -1.0f32;
        for v in (0..=255).step_by(5) {
            let l = rgb_to_lab(px(v, v, v)).l;
            assert!(l > last, "L must increase: {last} -> {l}");
            last = l;
        }
    }

    #[test]
    fn quantization_spans_the_range() {
        let lab = vec![
            rgb_to_lab(px(0, 0, 0)),
            rgb_to_lab(px(128, 128, 128)),
            rgb_to_lab(px(255, 255, 255)),
        ];
        let q = quantize_l(&lab, 8);
        assert_eq!(q[0], 0);
        assert_eq!(q[2], 7);
        assert!(q[1] > 0 && q[1] < 7);
    }

    #[test]
    fn convert_tile_is_elementwise() {
        let tile = vec![px(10, 20, 30), px(200, 100, 50)];
        let out = convert_tile(&tile);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], rgb_to_lab(tile[0]));
        assert_eq!(out[1], rgb_to_lab(tile[1]));
    }

    /// The conversion as first written: the transfer function called per
    /// channel, all three rows of the matrix, the white point by name.
    fn rgb_to_lab_oracle(p: Rgb8) -> Lab {
        let r = srgb_to_linear(f64::from(p.r) / 255.0);
        let g = srgb_to_linear(f64::from(p.g) / 255.0);
        let b = srgb_to_linear(f64::from(p.b) / 255.0);
        let x = 0.412_456_4 * r + 0.357_576_1 * g + 0.180_437_5 * b;
        let y = 0.212_672_9 * r + 0.715_152_2 * g + 0.072_175_0 * b;
        let z = 0.019_333_9 * r + 0.119_192_0 * g + 0.950_304_1 * b;
        let (xn, yn, zn) = (0.950_47, 1.0, 1.088_83);
        let (fx, fy, fz) = (lab_f(x / xn), lab_f(y / yn), lab_f(z / zn));
        Lab {
            l: (116.0 * fy - 16.0) as f32,
            a: (500.0 * (fx - fy)) as f32,
            b: (200.0 * (fy - fz)) as f32,
        }
    }

    /// A strided sweep of the RGB cube (steps 3, 5, 7), then all 256 grays.
    fn cube_sweep() -> Vec<Rgb8> {
        let mut out = Vec::new();
        for r in (0..=255).step_by(3) {
            for g in (0..=255).step_by(5) {
                for b in (0..=255).step_by(7) {
                    out.push(px(r, g, b));
                }
            }
        }
        out.extend((0..=255).map(|v| px(v, v, v)));
        out
    }

    #[test]
    fn table_is_the_transfer_function_bitwise() {
        for (i, &v) in linear_table().iter().enumerate() {
            let want = srgb_to_linear(i as f64 / 255.0);
            assert_eq!(v.to_bits(), want.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn table_driven_conversion_matches_the_formula_bitwise() {
        for p in cube_sweep() {
            let (got, want) = (rgb_to_lab(p), rgb_to_lab_oracle(p));
            assert_eq!(
                [got.l.to_bits(), got.a.to_bits(), got.b.to_bits()],
                [want.l.to_bits(), want.a.to_bits(), want.b.to_bits()],
                "{p:?}"
            );
        }
    }

    fn from_key(key: u32) -> Rgb8 {
        let [_, r, g, b] = key.to_be_bytes();
        px(r, g, b)
    }

    /// The luminance of `p`, as both paths compute it.
    fn y_of(p: Rgb8) -> f64 {
        let (r, g, b) = linear_rgb(linear_table(), p);
        luminance(r, g, b)
    }

    /// Up to `per_band` colours inside each band of `bands`: for each
    /// band, (red, green) pairs in a scrambled order, each with the least
    /// blue whose `Y` passes the band's low end.
    fn in_band_colours(bands: &LevelBands, per_band: usize) -> Vec<Rgb8> {
        let blue: [u8; 256] = std::array::from_fn(|b| b as u8);
        let mut out = Vec::new();
        for &(lo, hi) in &bands.bands {
            let hits = (0..1u32 << 16)
                .map(|i| i.wrapping_mul(40_503) & 0xffff)
                .filter_map(|rg| {
                    let (r, g) = ((rg >> 8) as u8, rg as u8);
                    let b = blue.partition_point(|&b| y_of(px(r, g, b)) <= lo);
                    let p = px(r, g, *blue.get(b)?);
                    (y_of(p) < hi).then_some(p)
                });
            out.extend(hits.take(per_band));
        }
        out
    }

    #[test]
    fn colours_inside_a_guard_band_take_the_exact_chain() {
        for levels in [2, 3, 8, 16, 255] {
            let bands = LevelBands::new(levels);
            let colours = in_band_colours(&bands, 3);
            assert!(colours.len() >= 3 * bands.bands.len(), "levels {levels}");
            let want = quantize_l(&convert_tile(&colours), levels);
            assert_eq!(quantize_tile_l(&colours, levels), want, "levels {levels}");
            // Without the exact chain, a colour would get the count of
            // bands below its `Y`. That is one short wherever the real
            // boundary lies below `Y`: the test must hold such colours.
            let below = |p: &Rgb8| {
                bands
                    .bands
                    .iter()
                    .filter(|&&(_, hi)| hi <= y_of(*p))
                    .count()
            };
            let short = colours
                .iter()
                .zip(&want)
                .filter(|&(p, &w)| usize::from(w) == below(p) + 1)
                .count();
            assert!(
                short > 0 && short < colours.len(),
                "levels {levels}: {short} short"
            );
        }
    }

    /// Every colour of the cube at every level count the NBIA code and the
    /// tests use, in 2^16-colour tiles. Prints how many colours lie inside
    /// a band (and so run the exact chain).
    #[test]
    #[ignore = "2^24 colours: cargo test --release -p anthill-kernels -- --ignored every_colour"]
    fn every_colour_quantizes_as_convert_then_quantize() {
        const LEVELS: [u8; 5] = [2, 3, 8, 16, 255];
        let bands = LEVELS.map(LevelBands::new);
        let mut inside = [0u64; 5];
        for start in (0..1u32 << 24).step_by(1 << 16) {
            let tile: Vec<Rgb8> = (start..start + (1 << 16)).map(from_key).collect();
            let lab = convert_tile(&tile);
            for ((levels, bands), inside) in LEVELS.iter().zip(&bands).zip(&mut inside) {
                let got = quantize_tile_l(&tile, *levels);
                let want = quantize_l(&lab, *levels);
                if let Some(i) = (0..tile.len()).find(|&i| got[i] != want[i]) {
                    panic!(
                        "levels {levels}: {:?} gives {} not {}",
                        tile[i], got[i], want[i]
                    );
                }
                *inside += tile
                    .iter()
                    .filter(|&&p| bands.level(y_of(p)).is_none())
                    .count() as u64;
            }
        }
        for (levels, inside) in LEVELS.iter().zip(inside) {
            eprintln!("levels {levels}: {inside} of 2^24 colours inside a band");
        }
    }

    #[test]
    fn fused_l_quantization_matches_convert_then_quantize() {
        use crate::tiles::{TileClass, TileGenerator};
        let mut inputs = vec![cube_sweep()];
        let mut gen = TileGenerator::new(7);
        inputs.extend(TileClass::ALL.map(|class| gen.generate(class, 64)));
        // Every 97th colour of the cube (an odd stride, so every value of
        // every channel occurs), then the same colours backwards: the first
        // pass evicts on memo collisions, the second hits what is resident.
        let forward: Vec<Rgb8> = (0..1u32 << 24).step_by(97).map(from_key).collect();
        let backward = forward.iter().rev().copied();
        inputs.push(forward.iter().copied().chain(backward).collect());
        // Black alternating with the brightest colour in black's memo slot:
        // every lookup misses, and a stale hit would return the other level.
        let black = colour_key(px(0, 0, 0));
        let bright = (0..1u32 << 24)
            .rev()
            .find(|&key| key != black && memo_slot(key) == memo_slot(black))
            .expect("4096 slots share 2^24 colours");
        let pair = [from_key(black), from_key(bright)];
        assert_ne!(quantize_l(&convert_tile(&pair), 255)[..], [0, 0]);
        inputs.push(pair.iter().copied().cycle().take(64).collect());
        inputs.push(Vec::new());
        inputs.extend([0, 0x0080_8080, 0x00ff_ffff].map(|key| vec![from_key(key)]));
        for pixels in &inputs {
            let lab: Vec<Lab> = pixels.iter().map(|&p| rgb_to_lab_oracle(p)).collect();
            for levels in [2, 8, 16, 255] {
                assert_eq!(
                    quantize_tile_l(pixels, levels),
                    quantize_l(&lab, levels),
                    "levels {levels}"
                );
            }
        }
    }
}
