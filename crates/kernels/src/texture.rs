//! Texture features — the NBIA pipeline's "Statistical features" filter
//! (paper Section 2): gray-level co-occurrence (GLCM) statistics and local
//! binary patterns (LBP), which together characterize the color/intensity
//! variation of tissue structure.
//!
//! Both counting loops work in integers over row slices clipped once per
//! row to the pixels whose neighbours exist, so the inner loops test no
//! bounds; the counts become `f64` at the end, which is exact (they are
//! far below 2^53) and leaves every statistic bit-identical to counting
//! in `f64` one pixel at a time.

use std::ops::Range;

/// A gray-level co-occurrence matrix over `levels × levels` quantized
/// intensities, for one pixel offset.
#[derive(Debug, Clone)]
pub struct Glcm {
    levels: usize,
    counts: Vec<f64>,
    total: f64,
}

/// The positions `i` in `0..n` whose neighbour `i + d` is also in `0..n`.
fn anchors(n: usize, d: isize) -> Range<usize> {
    d.min(0).unsigned_abs().min(n)..n.saturating_sub(d.max(0).unsigned_abs())
}

impl Glcm {
    /// Compute the symmetric GLCM of a row-major `width × height` quantized
    /// image for offset `(dx, dy)`.
    pub fn compute(
        img: &[u8],
        width: usize,
        height: usize,
        levels: u8,
        dx: isize,
        dy: isize,
    ) -> Glcm {
        assert_eq!(img.len(), width * height, "image size mismatch");
        assert!(levels >= 2);
        let l = levels as usize;
        // Ordered pairs (anchor level, neighbour level), counted once.
        let mut ordered = vec![0u64; l * l];
        let (xs, ys) = (anchors(width, dx), anchors(height, dy));
        let pairs = xs.len() * ys.len();
        if pairs > 0 {
            for y in ys {
                let row = y * width + xs.start;
                let neighbour_row = row.wrapping_add_signed(dy * width as isize + dx);
                let a_row = &img[row..][..xs.len()];
                let b_row = &img[neighbour_row..][..xs.len()];
                for (&a, &b) in a_row.iter().zip(b_row) {
                    debug_assert!(a < levels && b < levels, "pixel exceeds levels");
                    ordered[a as usize * l + b as usize] += 1;
                }
            }
        }
        // Symmetric: each pair counts as both (a,b) and (b,a).
        let mut counts = vec![0.0f64; l * l];
        for i in 0..l {
            for j in 0..l {
                counts[i * l + j] = (ordered[i * l + j] + ordered[j * l + i]) as f64;
            }
        }
        Glcm {
            levels: l,
            counts,
            total: (2 * pairs).max(1) as f64,
        }
    }

    #[inline]
    fn p(&self, i: usize, j: usize) -> f64 {
        self.counts[i * self.levels + j] / self.total
    }

    /// Haralick contrast: Σ p(i,j)·(i−j)².
    pub fn contrast(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                let d = i as f64 - j as f64;
                s += self.p(i, j) * d * d;
            }
        }
        s
    }

    /// Energy (angular second moment): Σ p(i,j)².
    pub fn energy(&self) -> f64 {
        (0..self.levels)
            .flat_map(|i| (0..self.levels).map(move |j| (i, j)))
            .map(|(i, j)| self.p(i, j) * self.p(i, j))
            .sum()
    }

    /// Homogeneity (inverse difference moment): Σ p(i,j)/(1+(i−j)²).
    pub fn homogeneity(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                let d = i as f64 - j as f64;
                s += self.p(i, j) / (1.0 + d * d);
            }
        }
        s
    }

    /// Entropy: −Σ p(i,j)·ln p(i,j).
    pub fn entropy(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                let p = self.p(i, j);
                if p > 0.0 {
                    s -= p * p.ln();
                }
            }
        }
        s
    }

    /// Variance: Σ p(i,j)·(i−µ)² (Haralick f4).
    pub fn variance(&self) -> f64 {
        let mu = self.mean_level();
        let mut s = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                s += (i as f64 - mu) * (i as f64 - mu) * self.p(i, j);
            }
        }
        s
    }

    /// Sum average: Σ k·p_{x+y}(k) (Haralick f6).
    pub fn sum_average(&self) -> f64 {
        self.sum_distribution()
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum()
    }

    /// Sum entropy: −Σ p_{x+y}(k)·ln p_{x+y}(k) (Haralick f8).
    pub fn sum_entropy(&self) -> f64 {
        -self
            .sum_distribution()
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Difference entropy: −Σ p_{x−y}(k)·ln p_{x−y}(k) (Haralick f11).
    pub fn difference_entropy(&self) -> f64 {
        -self
            .diff_distribution()
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Mean gray level under the (symmetric) marginal.
    fn mean_level(&self) -> f64 {
        let mut mu = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                mu += i as f64 * self.p(i, j);
            }
        }
        mu
    }

    /// Distribution of i+j (2·levels − 1 entries).
    fn sum_distribution(&self) -> Vec<f64> {
        let mut d = vec![0.0; 2 * self.levels - 1];
        for i in 0..self.levels {
            for j in 0..self.levels {
                d[i + j] += self.p(i, j);
            }
        }
        d
    }

    /// Distribution of |i−j| (levels entries).
    fn diff_distribution(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.levels];
        for i in 0..self.levels {
            for j in 0..self.levels {
                d[i.abs_diff(j)] += self.p(i, j);
            }
        }
        d
    }

    /// Correlation: Σ p(i,j)·(i−µ)(j−µ)/σ² (symmetric GLCM, so the row and
    /// column marginals coincide). Returns 0 for constant images (σ = 0).
    pub fn correlation(&self) -> f64 {
        let mut mu = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                mu += i as f64 * self.p(i, j);
            }
        }
        let mut var = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                var += (i as f64 - mu) * (i as f64 - mu) * self.p(i, j);
            }
        }
        if var <= 1e-12 {
            return 0.0;
        }
        let mut s = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                s += self.p(i, j) * (i as f64 - mu) * (j as f64 - mu);
            }
        }
        s / var
    }
}

/// The 8-neighbour local binary pattern code of the pixel at `(x, y)`.
/// Border pixels clamp to the edge (replicated border).
pub fn lbp_code(img: &[u8], width: usize, height: usize, x: usize, y: usize) -> u8 {
    let center = img[y * width + x];
    // Clockwise from top-left.
    const OFFS: [(isize, isize); 8] = [
        (-1, -1),
        (0, -1),
        (1, -1),
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 1),
        (-1, 0),
    ];
    let mut code = 0u8;
    for (bit, (dx, dy)) in OFFS.iter().enumerate() {
        let nx = (x as isize + dx).clamp(0, width as isize - 1) as usize;
        let ny = (y as isize + dy).clamp(0, height as isize - 1) as usize;
        if img[ny * width + nx] >= center {
            code |= 1 << bit;
        }
    }
    code
}

/// Normalized 256-bin LBP histogram of a quantized image (all zeros for
/// an empty one). Bin `c` is the share of pixels whose [`lbp_code`] is `c`.
pub fn lbp_histogram(img: &[u8], width: usize, height: usize) -> Vec<f64> {
    assert_eq!(img.len(), width * height);
    let mut counts = [0u64; 256];
    for y in 0..height {
        if y == 0 || y + 1 == height || width < 3 {
            // Border rows (and images with no interior column): the
            // replicated border, by definition.
            for x in 0..width {
                counts[lbp_code(img, width, height, x, y) as usize] += 1;
            }
            continue;
        }
        counts[lbp_code(img, width, height, 0, y) as usize] += 1;
        counts[lbp_code(img, width, height, width - 1, y) as usize] += 1;
        // Interior pixels: all eight neighbours exist, so the code reads
        // three 3-pixel windows, in `lbp_code`'s bit order.
        let [up, mid, down] = [y - 1, y, y + 1].map(|r| &img[r * width..][..width]);
        for ((u, m), d) in up.windows(3).zip(mid.windows(3)).zip(down.windows(3)) {
            let c = m[1];
            let ring = [u[0], u[1], u[2], m[2], d[2], d[1], d[0], m[0]];
            let mut code = 0usize;
            for (bit, &v) in ring.iter().enumerate() {
                code |= usize::from(v >= c) << bit;
            }
            counts[code] += 1;
        }
    }
    let n = (width * height).max(1) as f64;
    counts.iter().map(|&c| c as f64 / n).collect()
}

/// The four pixel offsets of the NBIA GLCM feature block.
const GLCM_OFFSETS: [(isize, isize); 4] = [(1, 0), (0, 1), (1, 1), (1, -1)];

/// The NBIA per-tile feature vector: GLCM statistics at 4 offsets plus a
/// compacted LBP histogram.
pub fn feature_vector(img: &[u8], width: usize, height: usize, levels: u8) -> Vec<f64> {
    let mut out = Vec::with_capacity(4 * 5 + 16);
    for (dx, dy) in GLCM_OFFSETS {
        let g = Glcm::compute(img, width, height, levels, dx, dy);
        out.extend([
            g.contrast(),
            g.energy(),
            g.homogeneity(),
            g.entropy(),
            g.correlation(),
        ]);
    }
    let hist = lbp_histogram(img, width, height);
    for chunk in hist.chunks(16) {
        out.push(chunk.iter().sum());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant(width: usize, height: usize, v: u8) -> Vec<u8> {
        vec![v; width * height]
    }

    fn checkerboard(width: usize, height: usize, lo: u8, hi: u8) -> Vec<u8> {
        (0..height)
            .flat_map(|y| (0..width).map(move |x| if (x + y) % 2 == 0 { lo } else { hi }))
            .collect()
    }

    #[test]
    fn constant_image_has_zero_contrast_and_max_energy() {
        let img = constant(8, 8, 3);
        let g = Glcm::compute(&img, 8, 8, 8, 1, 0);
        assert_eq!(g.contrast(), 0.0);
        assert!((g.energy() - 1.0).abs() < 1e-12);
        assert!((g.homogeneity() - 1.0).abs() < 1e-12);
        assert!(g.entropy().abs() < 1e-12);
    }

    #[test]
    fn checkerboard_has_maximal_horizontal_contrast() {
        let img = checkerboard(8, 8, 0, 7);
        let g = Glcm::compute(&img, 8, 8, 8, 1, 0);
        // Every horizontal pair differs by 7.
        assert!(
            (g.contrast() - 49.0).abs() < 1e-9,
            "contrast {}",
            g.contrast()
        );
        // Diagonal pairs are always equal.
        let gd = Glcm::compute(&img, 8, 8, 8, 1, 1);
        assert_eq!(gd.contrast(), 0.0);
        assert!((gd.correlation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let img = checkerboard(6, 4, 1, 5);
        let g = Glcm::compute(&img, 6, 4, 8, 0, 1);
        let sum: f64 = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| g.p(i, j))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn haralick_extensions_on_known_textures() {
        let flat = Glcm::compute(&constant(8, 8, 3), 8, 8, 8, 1, 0);
        // Constant image: variance 0; sum average 2·level; entropies 0.
        assert!(flat.variance().abs() < 1e-12);
        assert!((flat.sum_average() - 6.0).abs() < 1e-12);
        assert!(flat.sum_entropy().abs() < 1e-12);
        assert!(flat.difference_entropy().abs() < 1e-12);

        let busy = Glcm::compute(&checkerboard(8, 8, 0, 7), 8, 8, 8, 1, 0);
        // Checkerboard: all pairs are (0,7)/(7,0): sum is always 7,
        // difference always 7 -> entropies still 0, but variance maximal.
        assert!((busy.sum_average() - 7.0).abs() < 1e-9);
        assert!(busy.variance() > 10.0);
        // A noisy gradient has positive sum and difference entropy.
        let grad: Vec<u8> = (0..64).map(|i| ((i * 7) % 8) as u8).collect();
        let g = Glcm::compute(&grad, 8, 8, 8, 1, 0);
        assert!(g.sum_entropy() > 0.5);
        assert!(g.difference_entropy() > 0.2);
    }

    #[test]
    fn marginal_distributions_sum_to_one() {
        let img = checkerboard(6, 6, 1, 5);
        let g = Glcm::compute(&img, 6, 6, 8, 1, 1);
        let s: f64 = g.sum_distribution().iter().sum();
        let d: f64 = g.diff_distribution().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lbp_of_constant_image_is_all_ones_code() {
        // All neighbours equal the center => all bits set (>= comparison).
        let img = constant(5, 5, 9);
        let h = lbp_histogram(&img, 5, 5);
        assert!((h[255] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lbp_detects_a_bright_center() {
        // A single bright pixel in the middle gets code 0 (no neighbour >=).
        let mut img = constant(3, 3, 10);
        img[4] = 200;
        assert_eq!(lbp_code(&img, 3, 3, 1, 1), 0);
    }

    #[test]
    fn lbp_histogram_is_normalized() {
        let img = checkerboard(7, 5, 2, 6);
        let h = lbp_histogram(&img, 7, 5);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    /// The co-occurrence count as first written: every pixel an anchor, the
    /// neighbour bounds-tested, `f64` counts bumped once per direction.
    fn glcm_oracle(
        img: &[u8],
        width: usize,
        height: usize,
        l: usize,
        dx: isize,
        dy: isize,
    ) -> (Vec<f64>, f64) {
        let mut counts = vec![0.0f64; l * l];
        let mut total = 0.0f64;
        for y in 0..height as isize {
            for x in 0..width as isize {
                let (nx, ny) = (x + dx, y + dy);
                if nx < 0 || ny < 0 || nx >= width as isize || ny >= height as isize {
                    continue;
                }
                let a = img[y as usize * width + x as usize] as usize;
                let b = img[ny as usize * width + nx as usize] as usize;
                counts[a * l + b] += 1.0;
                counts[b * l + a] += 1.0;
                total += 2.0;
            }
        }
        (counts, total.max(1.0))
    }

    /// Widths and heights below 3, a single row, a single column, and
    /// sizes that are no multiple of anything.
    const ODD_SHAPES: [(usize, usize); 8] = [
        (0, 0),
        (1, 1),
        (1, 5),
        (5, 1),
        (2, 3),
        (3, 2),
        (7, 5),
        (33, 17),
    ];

    fn textured(width: usize, height: usize) -> Vec<u8> {
        (0..width * height)
            .map(|i| ((i * 13 + i / 7) % 8) as u8)
            .collect()
    }

    #[test]
    fn clipped_glcm_matches_the_bounds_checked_loop() {
        // Offsets include negative ones and ones at least as large as the
        // image, which leave no pair at all.
        const OFFSETS: [(isize, isize); 10] = [
            (1, 0),
            (0, 1),
            (1, 1),
            (1, -1),
            (-1, 0),
            (-2, 3),
            (9, 0),
            (0, 9),
            (-33, 0),
            (0, 0),
        ];
        for (width, height) in ODD_SHAPES {
            let img = textured(width, height);
            for (dx, dy) in OFFSETS {
                let g = Glcm::compute(&img, width, height, 8, dx, dy);
                let (counts, total) = glcm_oracle(&img, width, height, 8, dx, dy);
                assert_eq!(g.counts, counts, "{width}x{height} ({dx},{dy})");
                assert_eq!(g.total, total, "{width}x{height} ({dx},{dy})");
            }
        }
    }

    #[test]
    fn windowed_lbp_matches_the_per_pixel_code() {
        for (width, height) in ODD_SHAPES {
            let img = textured(width, height);
            let mut want = vec![0.0f64; 256];
            for y in 0..height {
                for x in 0..width {
                    want[lbp_code(&img, width, height, x, y) as usize] += 1.0;
                }
            }
            if width * height > 0 {
                for h in &mut want {
                    *h /= (width * height) as f64;
                }
            }
            assert_eq!(lbp_histogram(&img, width, height), want, "{width}x{height}");
        }
    }

    #[test]
    fn lbp_of_an_empty_image_is_all_zero() {
        for (width, height) in [(0, 0), (0, 4), (4, 0)] {
            assert_eq!(lbp_histogram(&[], width, height), vec![0.0; 256]);
        }
    }

    #[test]
    fn feature_vector_shape_and_discrimination() {
        let flat = feature_vector(&constant(16, 16, 4), 16, 16, 8);
        let busy = feature_vector(&checkerboard(16, 16, 0, 7), 16, 16, 8);
        assert_eq!(flat.len(), 36);
        assert_eq!(busy.len(), 36);
        // Contrast (index 0) separates the two textures decisively.
        assert!(busy[0] > flat[0] + 10.0);
    }
}
