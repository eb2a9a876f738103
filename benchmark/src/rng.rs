//! The benchmark's own seeded generator (splitmix64): the same `--seed`
//! yields the same pod mix and op order; the program under test only ever
//! sees the generated inputs.

/// splitmix64 (Steele, Lea & Flood): tiny, well mixed, and good enough to
/// pick a pod shape or shuffle ten ops.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` (generator
    /// thread, tenant, probe) so streams of one seed do not repeat each
    /// other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant at the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats() {
        let draw = |seed, stream| {
            let mut rng = SplitMix64::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }
}
