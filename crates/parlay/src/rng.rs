//! Deterministic pseudo-random hashing and a small PRNG.
//!
//! The RC-tree contraction rule needs a priority `h(seed, vertex, level)`
//! that is (a) fast, (b) a pure function of its arguments, and (c) of high
//! enough quality that local-maxima independent sets contract a constant
//! fraction of each chain per round. We use the splitmix64 finalizer, the
//! standard choice for this purpose.

/// The splitmix64 mixing function (Steele, Lea, Flood 2014 finalizer).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash three words into one.
#[inline]
pub(crate) fn hash3(a: u64, b: u64, c: u64) -> u64 {
    mix64(a ^ mix64(b ^ mix64(c)))
}

/// Priority of vertex `v` at contraction `level` under `seed`.
///
/// Ties are broken by the vertex id so priorities are a strict total order
/// within a level (collisions of the 64-bit hash are resolved, making the
/// contraction decision a *pure function* — required by change propagation).
#[inline]
pub fn priority(seed: u64, v: u32, level: u32) -> (u64, u32) {
    (hash3(seed, v as u64, level as u64), v)
}

/// A tiny PRNG (splitmix64). Deterministic and `Copy`;
/// used by the forest generator and tests instead of the `rand` crate.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: mix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (bound > 0), via Lemire's method.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        // Low-bit avalanche sanity: flipping one input bit flips ~half the output.
        let a = mix64(0x1234_5678);
        let b = mix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "poor avalanche: {flipped}");
    }

    #[test]
    fn priorities_are_total_order() {
        let p1 = priority(7, 1, 3);
        let p2 = priority(7, 2, 3);
        assert_ne!(p1, p2);
        assert_eq!(p1, priority(7, 1, 3));
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(999);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn coin_balance() {
        // Heads fraction of priority coin flips should be near 1/2.
        let heads = (0..100_000u32)
            .filter(|&v| priority(3, v, 0).0 & 1 == 1)
            .count();
        assert!((48_000..52_000).contains(&heads), "biased coin: {heads}");
    }
}
