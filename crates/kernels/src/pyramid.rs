//! Multi-resolution pyramid construction (paper Section 2: "a pyramid
//! representation, with multiple copies of the image tiles from the
//! decomposition step, each one with a different resolution").
//!
//! The analysis starts at the lowest resolution and climbs only when the
//! classification is not confident; each level is a 2× box-filter
//! downsample of the one above, so the levels are *consistent views of
//! the same tissue* — which is what makes reprocessing at a higher
//! resolution informative.

use crate::color::Rgb8;
use crate::tiles::tile_pixels;

/// One tile at every resolution level, highest resolution first.
#[derive(Debug, Clone)]
pub struct TilePyramid {
    levels: Vec<(u32, Vec<Rgb8>)>,
}

/// 2× box-filter downsample of a square RGB tile. Panics unless `side` is
/// even and matches the pixel count.
pub fn downsample(pixels: &[Rgb8], side: u32) -> Vec<Rgb8> {
    assert_eq!(pixels.len(), tile_pixels(side), "size mismatch");
    assert!(
        side >= 2 && side.is_multiple_of(2),
        "side must be even, got {side}"
    );
    let side = side as usize;
    let mut out = Vec::with_capacity(side * side / 4);
    for rows in pixels.chunks_exact(2 * side) {
        let (top, bottom) = rows.split_at(side);
        for (t, b) in top.chunks_exact(2).zip(bottom.chunks_exact(2)) {
            let mean = |channel: fn(&Rgb8) -> u8| {
                let sum = [t[0], t[1], b[0], b[1]]
                    .iter()
                    .map(|p| u32::from(channel(p)))
                    .sum::<u32>();
                (sum / 4) as u8
            };
            out.push(Rgb8 {
                r: mean(|p| p.r),
                g: mean(|p| p.g),
                b: mean(|p| p.b),
            });
        }
    }
    out
}

impl TilePyramid {
    /// Build a pyramid from the full-resolution tile down to `min_side`
    /// (inclusive). `side` must be a power-of-two multiple of `min_side`.
    pub fn build(full: Vec<Rgb8>, side: u32, min_side: u32) -> TilePyramid {
        assert!(min_side >= 1 && side >= min_side);
        assert!(
            side.is_multiple_of(min_side) && (side / min_side).is_power_of_two(),
            "side {side} must be a power-of-two multiple of min_side {min_side}"
        );
        let mut levels = vec![(side, full)];
        let mut cur_side = side;
        while cur_side > min_side {
            let (s, px) = levels.last().expect("non-empty");
            let down = downsample(px, *s);
            cur_side = s / 2;
            levels.push((cur_side, down));
        }
        TilePyramid { levels }
    }

    /// Number of levels (level 0 = coarsest).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Pixels and side at analysis level `level` (0 = coarsest, as NBIA's
    /// processing order counts).
    pub fn level(&self, level: usize) -> (u32, &[Rgb8]) {
        assert!(level < self.depth(), "level {level} of {}", self.depth());
        let (side, px) = &self.levels[self.depth() - 1 - level];
        (*side, px)
    }

    /// Side length at analysis level `level`.
    pub fn side(&self, level: usize) -> u32 {
        self.level(level).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::{TileClass, TileGenerator};

    fn solid(side: u32, v: u8) -> Vec<Rgb8> {
        vec![Rgb8 { r: v, g: v, b: v }; tile_pixels(side)]
    }

    #[test]
    fn downsample_averages_quads() {
        // 2x2 tile of distinct values -> single averaged pixel.
        let px = vec![
            Rgb8 { r: 0, g: 0, b: 0 },
            Rgb8 {
                r: 100,
                g: 100,
                b: 100,
            },
            Rgb8 {
                r: 100,
                g: 100,
                b: 100,
            },
            Rgb8 {
                r: 200,
                g: 200,
                b: 200,
            },
        ];
        let out = downsample(&px, 2);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0],
            Rgb8 {
                r: 100,
                g: 100,
                b: 100
            }
        );
    }

    #[test]
    fn downsample_preserves_solid_color() {
        let out = downsample(&solid(64, 137), 64);
        assert_eq!(out.len(), 32 * 32);
        assert!(out.iter().all(|p| p.r == 137 && p.g == 137 && p.b == 137));
    }

    #[test]
    fn pyramid_levels_have_expected_sides() {
        let p = TilePyramid::build(solid(128, 5), 128, 32);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.side(0), 32);
        assert_eq!(p.side(1), 64);
        assert_eq!(p.side(2), 128);
        assert_eq!(p.level(0).1.len(), 32 * 32);
    }

    #[test]
    fn pyramid_of_real_texture_keeps_class_statistics() {
        // The coarse level of a stroma-poor tile is still stroma-poor-ish:
        // darker and busier than a background tile's coarse level.
        let mut gen = TileGenerator::new(3);
        let poor = TilePyramid::build(gen.generate(TileClass::StromaPoor, 128), 128, 32);
        let bg = TilePyramid::build(gen.generate(TileClass::Background, 128), 128, 32);
        let mean = |px: &[Rgb8]| {
            px.iter()
                .map(|p| u32::from(p.r) + u32::from(p.g) + u32::from(p.b))
                .sum::<u32>() as f64
                / px.len() as f64
        };
        let (_, poor_lo) = poor.level(0);
        let (_, bg_lo) = bg.level(0);
        assert!(mean(poor_lo) < mean(bg_lo) - 100.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two multiple")]
    fn non_power_of_two_ratio_rejected() {
        let _ = TilePyramid::build(solid(96, 1), 96, 32);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn a_side_whose_square_wraps_in_u32_is_a_size_mismatch() {
        // 65 536² is 2³², which wraps to 0 in `u32`: an empty tile used to
        // pass the check.
        let _ = downsample(&[], 65_536);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_side_rejected() {
        let _ = downsample(&solid(3, 1), 3);
    }
}
