//! Seeded input generation.
//!
//! Every workload draws its inputs from a [`Rng`] seeded with `--seed`, so
//! one seed always yields the same inputs. Categorical dimensions are
//! drawn with [`Rng::balanced`]: each level appears equally often in a
//! round and the seed only decides the order, so rounds from different
//! seeds carry the same mix and their costs differ only through how the
//! dimensions combine.

/// SplitMix64: tiny, fast, and good enough to pick design points.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two workloads
    /// (or two dimensions) fed the same seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffle in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// `n` level indices of a dimension with `levels` levels, each level
    /// appearing `n / levels` times (the first `n % levels` levels once
    /// more), in seeded order.
    pub fn balanced(&mut self, n: usize, levels: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|i| i % levels).collect();
        self.shuffle(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(7, 1).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn balanced_levels_appear_equally() {
        let v = Rng::new(3, 0).balanced(12, 3);
        for level in 0..3 {
            assert_eq!(v.iter().filter(|&&x| x == level).count(), 4);
        }
    }
}
