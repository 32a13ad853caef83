//! Seeded randomness for inputs and request sequences.
//!
//! The benchmark owns its generator instead of borrowing one from the
//! program under test, so a change to the program's RNG cannot change
//! the traffic it is measured with.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-high.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to return");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An independent stream seed for `(seed, stream)`: client threads,
/// warm-up, and the traced replay each draw from their own stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf(`alpha`) over ranks `0..n`: rank `i` has weight `(i+1)^-alpha`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let mut running = 0.0;
        let cum = (0..n)
            .map(|i| {
                running += 1.0 / ((i + 1) as f64).powf(alpha);
                running
            })
            .collect();
        Zipf { cum }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let x = rng.unit() * self.cum[self.cum.len() - 1];
        self.cum
            .partition_point(|&c| c <= x)
            .min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut c = SplitMix64::new(8);
        assert_ne!(a[0], c.next_u64());
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = Zipf::new(24, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let (a, b) = (draw(3), draw(3));
        assert_eq!(a, b, "same seed, same draws");
        assert_ne!(a, draw(4), "another seed, other draws");
        let mut counts = [0usize; 24];
        for &i in &a {
            counts[i] += 1;
        }
        // Rank 0 carries 1/H_24 ≈ 26 % of the mass, rank 1 half that.
        assert!(counts[0] > 4_500 && counts[0] < 6_000, "{counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[23]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn below_and_shuffle_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        assert!((0..1000).all(|_| rng.below(5) < 5));
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
