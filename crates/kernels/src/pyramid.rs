//! Multi-resolution pyramid construction (paper Section 2: "a pyramid
//! representation, with multiple copies of the image tiles from the
//! decomposition step, each one with a different resolution").
//!
//! The analysis starts at the lowest resolution and climbs only when the
//! classification is not confident; each level is a 2× box-filter
//! downsample of the one above, so the levels are *consistent views of
//! the same tissue* — which is what makes reprocessing at a higher
//! resolution informative.
//!
//! [`downsample`] works a pair of rows at a time, in two slice-wise
//! passes: the rows' per-channel column sums into three `u16` rows, then
//! each pair of columns' sums into one output pixel. Every byte is the
//! four pixels' integer mean, as the per-quad formula (kept in the tests
//! as the oracle) gives it.

use crate::color::Rgb8;
use crate::tiles::tile_pixels;

/// One tile at every resolution level, highest resolution first.
#[derive(Debug, Clone)]
pub struct TilePyramid {
    levels: Vec<(u32, Vec<Rgb8>)>,
}

/// 2× box-filter downsample of a square RGB tile. Panics unless `side` is
/// even and matches the pixel count.
///
/// Each pair of rows is summed first, per column, into one `u16` row per
/// channel (at most 2·255); then each pair of columns' sums is added and
/// divided by 4: `(a + b) + (c + d)` is the four pixels' sum, so every byte
/// is their mean as `(a + b + c + d) / 4` gives it.
pub fn downsample(pixels: &[Rgb8], side: u32) -> Vec<Rgb8> {
    assert_eq!(pixels.len(), tile_pixels(side), "size mismatch");
    assert!(
        side >= 2 && side.is_multiple_of(2),
        "side must be even, got {side}"
    );
    let side = side as usize;
    let mut out = vec![Rgb8 { r: 0, g: 0, b: 0 }; side * side / 4];
    // Per channel, each column's sum over a pair of rows.
    let mut sums = [vec![0u16; side], vec![0u16; side], vec![0u16; side]];
    for (rows, out) in pixels
        .chunks_exact(2 * side)
        .zip(out.chunks_exact_mut(side / 2))
    {
        let (top, bottom) = rows.split_at(side);
        let [r, g, b] = &mut sums;
        for ((((r, g), b), t), d) in r
            .iter_mut()
            .zip(g.iter_mut())
            .zip(b.iter_mut())
            .zip(top)
            .zip(bottom)
        {
            *r = u16::from(t.r) + u16::from(d.r);
            *g = u16::from(t.g) + u16::from(d.g);
            *b = u16::from(t.b) + u16::from(d.b);
        }
        let [r, g, b] = sums.each_ref().map(|s| s.chunks_exact(2));
        for (((p, r), g), b) in out.iter_mut().zip(r).zip(g).zip(b) {
            *p = Rgb8 {
                r: ((r[0] + r[1]) / 4) as u8,
                g: ((g[0] + g[1]) / 4) as u8,
                b: ((b[0] + b[1]) / 4) as u8,
            };
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
    fn downsample_is_the_mean_of_each_quad() {
        // The per-quad body as first written, against tiles of every class
        // and a tile of bytes at both ends of the range.
        let oracle = |pixels: &[Rgb8], side: usize| -> Vec<Rgb8> {
            let mut out = Vec::new();
            for y in (0..side).step_by(2) {
                for x in (0..side).step_by(2) {
                    let quad = [(0, 0), (1, 0), (0, 1), (1, 1)]
                        .map(|(dx, dy)| pixels[(y + dy) * side + x + dx]);
                    let mean = |c: fn(&Rgb8) -> u8| {
                        (quad.iter().map(|p| u32::from(c(p))).sum::<u32>() / 4) as u8
                    };
                    out.push(Rgb8 {
                        r: mean(|p| p.r),
                        g: mean(|p| p.g),
                        b: mean(|p| p.b),
                    });
                }
            }
            out
        };
        let mut gen = TileGenerator::new(19);
        for side in [2u32, 4, 6, 32, 128] {
            let mut tiles: Vec<Vec<Rgb8>> = TileClass::ALL
                .iter()
                .map(|&c| gen.generate(c, side))
                .collect();
            tiles.push(
                (0..tile_pixels(side))
                    .map(|i| {
                        let v = [0, 255, 254, 1][i % 4];
                        Rgb8 {
                            r: v,
                            g: 255 - v,
                            b: v ^ 0x55,
                        }
                    })
                    .collect(),
            );
            for tile in &tiles {
                assert_eq!(
                    downsample(tile, side),
                    oracle(tile, side as usize),
                    "side {side}"
                );
            }
        }
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
