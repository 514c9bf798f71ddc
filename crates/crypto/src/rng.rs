//! Deterministic pseudo-randomness for simulation and key generation.
//!
//! The repository builds hermetically — no external crates — so the
//! simulator's randomness comes from this xoshiro256++ generator, seeded
//! through SplitMix64 (the seeding procedure its authors recommend).
//! Nothing here is cryptographic: protocol randomness (sortition, seeds)
//! comes from the VRF; this module only drives the *testbed* — topology
//! draws, latency jitter, workload generation, and test vectors.

/// SplitMix64: expands a 64-bit seed into a stream of well-mixed words.
///
/// Used to initialize [`Rng`] state and useful on its own for cheap
/// one-shot mixing.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the stream for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++: the workhorse generator.
///
/// 256 bits of state, period 2²⁵⁶−1, passes BigCrush. Deterministic from
/// its seed, which is what makes every simulation run replayable.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds from a single 64-bit value via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut mix = SplitMix64::new(seed);
        Rng {
            s: [
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
            ],
        }
    }

    /// Seeds from 32 bytes directly (e.g. a hash).
    pub fn from_seed(seed: [u8; 32]) -> Rng {
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        let mut rng = Rng {
            s: [word(0), word(1), word(2), word(3)],
        };
        // An all-zero state would be a fixed point; remix through SplitMix64.
        if rng.s == [0; 4] {
            rng = Rng::seed_from_u64(0);
        }
        // A few warm-up rounds decorrelate structured seeds.
        for _ in 0..8 {
            rng.next_u64();
        }
        rng
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// 32 random bytes (keypair seeds, test vectors).
    pub fn gen_bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// A uniform `u64` in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses rejection sampling on the top bits, so the distribution is
    /// exactly uniform.
    pub fn gen_range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Largest multiple of n that fits in u64; reject above it.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// A uniform `usize` in `[0, n)`. `n` must be nonzero.
    pub fn gen_range_usize(&mut self, n: usize) -> usize {
        self.gen_range_u64(n as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range_usize(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for state {1, 2, 3, 4}, from the reference
        // implementation of xoshiro256++.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![41943041, 58720359, 3588806011781223, 3591011842654386]
        );
    }

    #[test]
    fn deterministic_from_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(99);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(99);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(100);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range_usize(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit in 1000 draws");
    }

    #[test]
    fn gen_f64_in_unit_interval_with_spread() {
        let mut rng = Rng::seed_from_u64(8);
        let mut lo = 0usize;
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
            if f < 0.5 {
                lo += 1;
            }
        }
        assert!((350..650).contains(&lo), "roughly balanced halves: {lo}");
    }

    #[test]
    fn shuffle_permutes_without_loss() {
        let mut rng = Rng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<u32>>(), "order changed");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn fill_bytes_handles_ragged_lengths() {
        let mut rng = Rng::seed_from_u64(10);
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} all zero");
            }
        }
    }

    #[test]
    fn from_seed_zero_state_is_remixed() {
        let mut rng = Rng::from_seed([0u8; 32]);
        assert_ne!(rng.next_u64(), 0);
    }
}
