//! RGB → CIE La\*b\* color conversion — the NBIA pipeline's first
//! computational filter (paper Section 2). La\*b\* separates intensity from
//! color and makes pixel differences perceptually uniform, enabling
//! Euclidean distances in the feature computation.
//!
//! An 8-bit channel has 256 possible values, so the sRGB transfer function
//! is a 256-entry table filled once by its own formula; and the texture
//! features read only the quantized L channel, so [`quantize_tile_l`]
//! produces it straight from the pixels — one `cbrt` per distinct colour
//! of the tile, no a\*/b\*, no intermediate `Lab` tile. A generated tile
//! has a few hundred colours at most, so a per-call direct-mapped memo
//! keyed by the 24-bit colour answers the other pixels; a colour evicted
//! by a slot collision pays its `cbrt` again. Both are bit-identical to the
//! per-pixel formulas (`rgb_to_lab`, then `quantize_l`), which the tests
//! keep as the definition.

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

#[inline]
fn lab_f(t: f64) -> f64 {
    const DELTA: f64 = 6.0 / 29.0;
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

/// `f(Y/Yn)` of a linear-light pixel: the Y row of the sRGB D65 matrix
/// (the reference white's Yn is 1), then [`lab_f`].
#[inline]
fn lab_fy(r: f64, g: f64, b: f64) -> f64 {
    lab_f(0.212_672_9 * r + 0.715_152_2 * g + 0.072_175_0 * b)
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

/// Convert one sRGB pixel to La\*b\* (D65).
pub(crate) fn rgb_to_lab(p: Rgb8) -> Lab {
    let (r, g, b) = linear_rgb(linear_table(), p);
    // The X and Z rows of the sRGB D65 matrix, over the reference white.
    let x = 0.412_456_4 * r + 0.357_576_1 * g + 0.180_437_5 * b;
    let z = 0.019_333_9 * r + 0.119_192_0 * g + 0.950_304_1 * b;
    let (fx, fy, fz) = (lab_f(x / 0.950_47), lab_fy(r, g, b), lab_f(z / 1.088_83));
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
    let mut keys = [u32::MAX; MEMO_SLOTS];
    let mut quantized = [0u8; MEMO_SLOTS];
    pixels
        .iter()
        .map(|&p| {
            let key = colour_key(p);
            let slot = memo_slot(key);
            if keys[slot] != key {
                let (r, g, b) = linear_rgb(lin, p);
                keys[slot] = key;
                quantized[slot] = quantize(lightness(lab_fy(r, g, b)), top);
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
