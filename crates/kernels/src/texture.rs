//! Texture features — the NBIA pipeline's "Statistical features" filter
//! (paper Section 2): gray-level co-occurrence (GLCM) statistics and local
//! binary patterns (LBP), which together characterize the color/intensity
//! variation of tissue structure.
//!
//! Both counters work in two passes. The first computes bins without a
//! branch: a GLCM cell `a·levels + b` per pixel pair, over row slices
//! clipped once per row to the pixels whose neighbours exist, and an LBP
//! code per pixel, over a copy of the image with its replicated border
//! made explicit, so every pixel is interior. The second counts the bins
//! into `LANES` interleaved `u32` sub-histograms, consecutive bins into
//! consecutive lanes, so neighbouring pixels that hit one bin (every pixel
//! of a flat tile) add to different words and do not wait on each other's
//! stores. An image with fewer pixels than `LANES` lanes have counters (a
//! 32² LBP histogram's) takes `FEW_LANES`. The lanes are summed once at
//! the end, and into `u64` totals whenever 2³² − 1 pixels have been
//! counted since the last sum, so no lane wraps. The counts become `f64`
//! at the end, which is exact (they are far below 2^53) and leaves every
//! statistic bit-identical to counting in `f64` one pixel at a time.
//!
//! A GLCM checks its image once, before counting, in every build: a pixel
//! at or past `levels` panics ("pixel exceeds levels") instead of being
//! counted as another cell. A feature vector checks its image once for
//! all four offsets.

use std::ops::Range;

/// Cells a GLCM computes before counting them: a whole 32² tile, or 16
/// rows of a 128² one, in 4 KiB that stay in the L1 cache.
const CELL_BLOCK: usize = 2048;

/// The sub-histograms a counter takes.
const LANES: usize = 8;

/// The sub-histograms a counter takes for fewer pixels than `LANES` lanes
/// have counters: a 32² LBP histogram, which zeroes and sums 1 024
/// counters instead of 2 048.
const FEW_LANES: usize = 4;

/// The most pixels the lanes take between two sums into `u64`: the lanes'
/// sum is at most this, so it fits in a `u32`, and so does every lane.
const LANE_ROOM: usize = u32::MAX as usize;

/// A histogram counted in `LANES` or `FEW_LANES` `u32` sub-histograms,
/// stored one after the other, that take consecutive bins in turn (module
/// docs).
struct LaneCounts {
    bins: usize,
    /// How many sub-histograms `lanes` holds: `LANES` or `FEW_LANES`.
    ways: usize,
    /// `ways` sub-histograms.
    lanes: Vec<u32>,
    /// What the lanes held at earlier flushes (empty before the first).
    sums: Vec<u64>,
    /// Pixels counted since the lanes were last added to `sums`: at most
    /// `LANE_ROOM`, so neither a lane nor the lanes' sum can wrap.
    pending: usize,
}

impl LaneCounts {
    /// A histogram of `bins` bins for `pixels` pixels: `LANES` lanes if
    /// the pixels fill their counters, else `FEW_LANES`.
    fn new(bins: usize, pixels: usize) -> LaneCounts {
        let ways = if pixels >= LANES * bins {
            LANES
        } else {
            FEW_LANES
        };
        LaneCounts {
            bins,
            ways,
            lanes: vec![0; ways * bins],
            sums: Vec::new(),
            pending: 0,
        }
    }

    /// Count `bins`, the `k`-th into lane `k % lanes`. A bin past the
    /// histogram panics.
    fn count<B: Copy + Into<usize>>(&mut self, bins: &[B]) {
        for run in bins.chunks(LANE_ROOM) {
            if self.pending + run.len() > LANE_ROOM {
                self.flush();
            }
            self.pending += run.len();
            let (lanes, width) = (&mut self.lanes[..], self.bins);
            if self.ways == LANES {
                count_into::<LANES, B>(lanes, width, run);
            } else {
                count_into::<FEW_LANES, B>(lanes, width, run);
            }
        }
    }

    /// Add the lanes to `sums` and clear them.
    fn flush(&mut self) {
        self.sums.resize(self.bins, 0);
        let (first, rest) = self.lanes.split_at_mut(self.bins);
        for lane in rest.chunks_exact_mut(self.bins) {
            for (a, b) in first.iter_mut().zip(lane) {
                *a += std::mem::take(b);
            }
        }
        for (sum, a) in self.sums.iter_mut().zip(first) {
            *sum += u64::from(std::mem::take(a));
        }
        self.pending = 0;
    }

    /// Every bin's count, in bin order.
    fn finish(mut self) -> Vec<u64> {
        self.flush();
        self.sums
    }
}

/// Count `run` into `N` lanes of `bins` counters each, stored one after
/// the other: the `k`-th bin into lane `k % N`.
fn count_into<const N: usize, B: Copy + Into<usize>>(lanes: &mut [u32], bins: usize, run: &[B]) {
    let mut lanes = lanes.chunks_exact_mut(bins);
    let mut lanes: [&mut [u32]; N] = std::array::from_fn(|_| lanes.next().expect("N lanes"));
    let mut groups = run.chunks_exact(N);
    for group in &mut groups {
        for (lane, &bin) in lanes.iter_mut().zip(group) {
            lane[bin.into()] += 1;
        }
    }
    for (lane, &bin) in lanes.iter_mut().zip(groups.remainder()) {
        lane[bin.into()] += 1;
    }
}

/// A gray-level co-occurrence matrix over `levels × levels` quantized
/// intensities, for one pixel offset.
#[derive(Debug, Clone)]
pub struct Glcm {
    levels: usize,
    /// `p(i, j)` at `i·levels + j`: each cell's count over the total,
    /// divided once, when the matrix is built.
    p: Vec<f64>,
}

/// Panics unless every pixel of `img` lies below `levels`: one pass over
/// the image, not a test per cell.
fn check_levels(img: &[u8], levels: u8) {
    assert!(
        img.iter().fold(0, |top, &p| top.max(p)) < levels,
        "pixel exceeds levels"
    );
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
        check_levels(img, levels);
        Glcm::counted(img, width, height, levels, dx, dy)
    }

    /// `compute` for an image whose pixels are known to lie below `levels`:
    /// a pixel past them would count as another cell.
    fn counted(img: &[u8], width: usize, height: usize, levels: u8, dx: isize, dy: isize) -> Glcm {
        assert!(levels >= 2);
        let l = levels as usize;
        // Ordered pairs (anchor level, neighbour level), counted once.
        let (xs, ys) = (anchors(width, dx), anchors(height, dy));
        let pairs = xs.len() * ys.len();
        let mut ordered = LaneCounts::new(l * l, pairs);
        if pairs > 0 {
            // `l·l` ≤ 255² cells, so a cell index fits in a `u16`. A block
            // of rows computes its cells, then counts them.
            let rows = (CELL_BLOCK / xs.len()).clamp(1, ys.len());
            let mut cells = vec![0u16; rows * xs.len()];
            for block in ys.clone().step_by(rows) {
                let block = block..(block + rows).min(ys.end);
                let cells = &mut cells[..block.len() * xs.len()];
                for (y, cells) in block.zip(cells.chunks_exact_mut(xs.len())) {
                    let row = y * width + xs.start;
                    let neighbour_row = row.wrapping_add_signed(dy * width as isize + dx);
                    let a_row = &img[row..][..xs.len()];
                    let b_row = &img[neighbour_row..][..xs.len()];
                    for ((cell, &a), &b) in cells.iter_mut().zip(a_row).zip(b_row) {
                        *cell = u16::from(a) * l as u16 + u16::from(b);
                    }
                }
                ordered.count(cells);
            }
        }
        let ordered = ordered.finish();
        // Symmetric: each pair counts as both (a,b) and (b,a).
        let total = (2 * pairs).max(1) as f64;
        let mut p = Vec::with_capacity(l * l);
        for i in 0..l {
            for j in 0..l {
                p.push((ordered[i * l + j] + ordered[j * l + i]) as f64 / total);
            }
        }
        Glcm { levels: l, p }
    }

    #[inline]
    fn p(&self, i: usize, j: usize) -> f64 {
        self.p[i * self.levels + j]
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

/// Normalized 256-bin LBP histogram of a quantized image (all zeros for
/// an empty one). Bin `c` is the share of pixels whose 8-neighbour code
/// is `c`: bit `k` is set iff the `k`-th neighbour, clockwise from the
/// top-left, is at least the centre, with the border replicated.
pub fn lbp_histogram(img: &[u8], width: usize, height: usize) -> Vec<f64> {
    assert_eq!(img.len(), width * height);
    let mut counts = LaneCounts::new(256, width * height);
    if width * height > 0 {
        // The replicated border, made explicit: one more pixel at each end
        // of every row, one more row above and below. Every pixel of `img`
        // is then interior.
        let stride = width + 2;
        let mut padded = Vec::with_capacity(stride * (height + 2));
        for y in [0].into_iter().chain(0..height).chain([height - 1]) {
            let row = &img[y * width..][..width];
            padded.push(row[0]);
            padded.extend_from_slice(row);
            padded.push(row[width - 1]);
        }
        let mut codes = vec![0u8; width];
        for y in 0..height {
            interior_codes(
                [y, y + 1, y + 2].map(|r| &padded[r * stride..][..stride]),
                &mut codes,
            );
            counts.count(&codes);
        }
    }
    let n = (width * height).max(1) as f64;
    counts.finish().into_iter().map(|c| c as f64 / n).collect()
}

/// The codes of a row's interior pixels, from the rows above, at and
/// below it: all eight neighbours exist, so pixel `x` reads three 3-pixel
/// windows, in the code's bit order, without a branch.
fn interior_codes([up, mid, down]: [&[u8]; 3], codes: &mut [u8]) {
    let n = codes.len();
    // Clockwise from top-left, each neighbour as a slice aligned with the
    // centres `mid[1..]`.
    let ring = [
        &up[..n],
        &up[1..][..n],
        &up[2..][..n],
        &mid[2..][..n],
        &down[2..][..n],
        &down[1..][..n],
        &down[..n],
        &mid[..n],
    ];
    let centres = &mid[1..][..n];
    for (x, code) in codes.iter_mut().enumerate() {
        let c = centres[x];
        *code = ring
            .iter()
            .enumerate()
            .fold(0, |code, (bit, row)| code | u8::from(row[x] >= c) << bit);
    }
}

/// The four pixel offsets of the NBIA GLCM feature block.
const GLCM_OFFSETS: [(isize, isize); 4] = [(1, 0), (0, 1), (1, 1), (1, -1)];

/// The NBIA per-tile feature vector: GLCM statistics at 4 offsets plus a
/// compacted LBP histogram. The image is checked against `levels` once.
pub(crate) fn feature_vector(img: &[u8], width: usize, height: usize, levels: u8) -> Vec<f64> {
    assert_eq!(img.len(), width * height, "image size mismatch");
    check_levels(img, levels);
    let mut out = Vec::with_capacity(4 * 5 + 16);
    for (dx, dy) in GLCM_OFFSETS {
        let g = Glcm::counted(img, width, height, levels, dx, dy);
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
    use anthill_simkit::SimRng;

    /// The 8-neighbour local binary pattern code of the pixel at `(x, y)`,
    /// one pixel at a time: the definition `lbp_histogram` counts. Border
    /// pixels clamp to the edge (replicated border).
    fn lbp_code(img: &[u8], width: usize, height: usize, x: usize, y: usize) -> u8 {
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

    /// Widths and heights: empty, below 3 (no interior), and either side
    /// of 32 and 64, the lane count's and the GLCM block's multiples.
    const SIDES: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65];

    /// Every `SIDES × SIDES` shape at 2 and at 8 levels, twice: seeded
    /// random pixels, and one random level everywhere (a flat image,
    /// where every pixel hits one bin). Each as `(width, height, levels,
    /// image)`.
    fn oracle_images() -> Vec<(usize, usize, u8, Vec<u8>)> {
        let mut rng = SimRng::new(44);
        let mut out = Vec::new();
        for (width, height) in SIDES.into_iter().flat_map(|w| SIDES.map(|h| (w, h))) {
            for levels in [2u8, 8] {
                let n = width * height;
                let level = |rng: &mut SimRng| rng.below(u64::from(levels)) as u8;
                let random = (0..n).map(|_| level(&mut rng)).collect();
                let flat = vec![level(&mut rng); n];
                out.push((width, height, levels, random));
                out.push((width, height, levels, flat));
            }
        }
        out
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
        for (width, height, levels, img) in oracle_images() {
            let l = usize::from(levels);
            for (dx, dy) in OFFSETS {
                let g = Glcm::compute(&img, width, height, levels, dx, dy);
                let (counts, total) = glcm_oracle(&img, width, height, l, dx, dy);
                let p: Vec<f64> = counts.iter().map(|c| c / total).collect();
                assert_eq!(g.p, p, "{width}x{height}, {levels} levels, ({dx},{dy})");
            }
        }
    }

    #[test]
    fn windowed_lbp_matches_the_per_pixel_code() {
        for (width, height, levels, img) in oracle_images() {
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
            let got = lbp_histogram(&img, width, height);
            assert_eq!(got, want, "{width}x{height}, {levels} levels");
        }
    }

    #[test]
    fn lane_counts_survive_a_flush_between_rows() {
        // What the lanes hold moves into the `u64` totals and the lanes
        // start again from zero; a run of any length lands in the same bins.
        let row: Vec<u8> = (0..37u8).map(|i| i % 5).collect();
        let mut counts = LaneCounts::new(5, 2 * row.len() + 3);
        counts.count(&row);
        counts.flush();
        counts.count(&row[..3]);
        counts.flush();
        counts.flush();
        counts.count(&row);
        assert_eq!(counts.pending, row.len());
        let want: Vec<u64> = (0..5u8)
            .map(|b| 2 * row.iter().filter(|&&v| v == b).count() as u64 + u64::from(b < 3))
            .collect();
        assert_eq!(counts.finish(), want);
    }

    #[test]
    #[should_panic(expected = "pixel exceeds levels")]
    fn a_pixel_past_the_levels_panics_in_every_build() {
        // Cell 0·8 + 8 is cell (1, 0) of the 8 × 8 matrix: without the
        // check a release build counted the pair as (1, 0).
        let _ = Glcm::compute(&[0, 8], 2, 1, 8, 1, 0);
    }

    #[test]
    #[should_panic(expected = "pixel exceeds levels")]
    fn a_feature_vector_checks_its_pixels_against_the_levels() {
        let _ = feature_vector(&[0, 8], 2, 1, 8);
    }

    #[test]
    #[should_panic]
    fn a_pixel_past_the_levels_panics() {
        // Cell 7·8 + 8 lies past the 8 × 8 matrix: it must not land in
        // another lane's counts.
        let _ = Glcm::compute(&[7, 8], 2, 1, 8, 1, 0);
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
