//! Input generation. Everything a workload feeds the library is made here
//! from `--seed` with the benchmark's own generator; the library only ever
//! receives the generated inputs.
//!
//! Seeds vary *which* inputs a run sees, never *how much* work they are:
//! shape mixes are exact 3:1 shuffles and schedules have a fixed length, so
//! a metric's spread across seeds is measurement noise, not input luck.

use anthill::buffer::{BufferId, DataBuffer};
use anthill_estimator::TaskParams;
use anthill_hetsim::NbiaCostModel;

/// splitmix64: tiny, seedable, and good enough to shuffle and to draw
/// exponential gaps. Owned by the benchmark so library RNG changes cannot
/// move the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of a seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A Poisson arrival schedule: `n` ascending nanosecond offsets with
/// exponential gaps of mean `1 / rate_per_s`.
pub fn poisson_schedule(rng: &mut Rng, n: usize, rate_per_s: f64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.next_f64().ln() * mean_gap_ns;
            t as u64
        })
        .collect()
}

/// Low- and high-resolution tile sides of the two task shapes. At 32 px the
/// modelled GPU is about as fast as a CPU core, at 512 px ~33x faster, so a
/// weighted policy has a real ordering decision on every pop.
const SMALL_SIDE: u32 = 32;
const LARGE_SIDE: u32 = 512;

/// `n` scheduling buffers with ids `first_id..`, three small to one large,
/// the large ones at seed-shuffled positions.
pub fn mixed_buffers(rng: &mut Rng, first_id: u64, n: usize) -> Vec<DataBuffer> {
    let cost = NbiaCostModel::paper_calibrated();
    let mut large: Vec<bool> = (0..n).map(|i| i % 4 == 3).collect();
    rng.shuffle(&mut large);
    large
        .into_iter()
        .enumerate()
        .map(|(i, is_large)| {
            let side = if is_large { LARGE_SIDE } else { SMALL_SIDE };
            let id = first_id + i as u64;
            DataBuffer {
                id: BufferId(id),
                params: TaskParams::nums(&[f64::from(side)]),
                shape: cost.tile(side),
                level: u8::from(is_large),
                task: id,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_bytes(seed: u64) -> Vec<u8> {
        poisson_schedule(&mut Rng::fork(seed, 1), 500, 5_000.0)
            .iter()
            .flat_map(|t| t.to_le_bytes())
            .collect()
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        assert_eq!(schedule_bytes(7), schedule_bytes(7));
        assert_ne!(schedule_bytes(7), schedule_bytes(8));
    }

    #[test]
    fn poisson_schedule_ascends_at_the_requested_rate() {
        let s = poisson_schedule(&mut Rng::fork(3, 0), 20_000, 5_000.0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let rate = s.len() as f64 / (*s.last().unwrap() as f64 / 1e9);
        assert!((rate - 5_000.0).abs() < 150.0, "rate {rate}");
    }

    #[test]
    fn shape_mix_is_exactly_three_to_one_for_every_seed() {
        for seed in 0..5 {
            let bufs = mixed_buffers(&mut Rng::fork(seed, 0), 100, 400);
            assert_eq!(bufs.iter().filter(|b| b.level == 1).count(), 100);
            assert_eq!(bufs[0].id.0, 100);
            assert_eq!(bufs[399].id.0, 499);
        }
        let levels = |seed| -> Vec<u8> {
            mixed_buffers(&mut Rng::fork(seed, 0), 0, 64)
                .iter()
                .map(|b| b.level)
                .collect()
        };
        assert_ne!(levels(1), levels(2), "positions follow the seed");
    }
}
