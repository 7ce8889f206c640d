//! Deterministic, forkable random number generation.
//!
//! CrumbCruncher-RS must be reproducible bit-for-bit: the synthetic web, the
//! crawlers' random walks, and the fault injection all draw randomness, and a
//! test that fails must fail identically on every run. We therefore implement
//! our own xoshiro256\*\* generator (public-domain algorithm by Blackman and
//! Vigna) seeded through SplitMix64, rather than relying on `StdRng`, whose
//! algorithm is explicitly *not* stable across `rand` releases.
//!
//! The generator supports **named forking**: `rng.fork("dns")` derives an
//! independent stream keyed by the label. Subsystems that fork their own
//! streams cannot perturb each other no matter how many values they draw,
//! which keeps experiments comparable as the code evolves.

/// SplitMix64 step; used for seeding and label hashing.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, used to derive fork seeds.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic xoshiro256\*\* random number generator, whose stream
/// stays stable forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    ///
    /// The seed is expanded with SplitMix64 as recommended by the xoshiro
    /// authors; any seed (including zero) yields a well-mixed state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent generator for the given label.
    ///
    /// Forking consumes no state from `self`, so the order in which
    /// subsystems fork does not matter; only the (seed, label) pair does.
    #[must_use]
    pub fn fork(&self, label: &str) -> Self {
        let mix = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ fnv1a(label.as_bytes());
        DetRng::new(mix)
    }

    /// Derive an independent generator for the given label and index.
    ///
    /// Convenient for per-item streams, e.g. one stream per site.
    #[must_use]
    pub fn fork_indexed(&self, label: &str, index: u64) -> Self {
        let base = self.fork(label);
        DetRng::new(base.s[0] ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output (xoshiro256\*\* scrambler).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng::below requires a nonzero bound");
        // Lemire's method: 128-bit multiply, reject the biased low zone.
        let mut x = self.next();
        let mut m = u128::from(x) * u128::from(bound);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next();
                m = u128::from(x) * u128::from(bound);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "DetRng::range requires lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniformly pick a reference from a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "DetRng::pick on an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Uniformly pick an index into a non-empty collection of length `len`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Sample an index from a discrete distribution given by `weights`.
    ///
    /// Weights need not be normalized. Zero-total weights fall back to a
    /// uniform draw.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index on empty weights");
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Geometric-ish draw: returns the number of successes before the first
    /// failure, capped at `cap`. Used for redirect-chain lengths.
    pub fn geometric(&mut self, p_continue: f64, cap: usize) -> usize {
        let mut n = 0;
        while n < cap && self.chance(p_continue) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_order_independent() {
        let root = DetRng::new(7);
        let mut f1 = root.fork("dns");
        let _unused = root.fork("web");
        let mut f2 = root.fork("dns");
        for _ in 0..100 {
            assert_eq!(f1.next(), f2.next());
        }
    }

    #[test]
    fn fork_labels_independent() {
        let root = DetRng::new(7);
        let mut a = root.fork("alpha");
        let mut b = root.fork("beta");
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn fork_indexed_streams_differ() {
        let root = DetRng::new(9);
        let mut a = root.fork_indexed("site", 0);
        let mut b = root.fork_indexed("site", 1);
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_bounds_and_roughly_uniform() {
        let mut rng = DetRng::new(11);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        for &b in &buckets {
            // Expect ~10k each; allow generous slack.
            assert!((9_000..11_000).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn range_inclusive() {
        let mut rng = DetRng::new(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let mut rng = DetRng::new(13);
        for _ in 0..1_000 {
            let i = rng.weighted_index(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_index_zero_total_is_uniform() {
        let mut rng = DetRng::new(17);
        let mut seen = [false; 3];
        for _ in 0..1_000 {
            seen[rng.weighted_index(&[0.0, 0.0, 0.0])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_index_biased() {
        let mut rng = DetRng::new(19);
        let mut hits = [0u32; 2];
        for _ in 0..10_000 {
            hits[rng.weighted_index(&[9.0, 1.0])] += 1;
        }
        assert!(hits[0] > 8_000 && hits[1] < 2_000, "{hits:?}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn geometric_capped() {
        let mut rng = DetRng::new(29);
        for _ in 0..1_000 {
            assert!(rng.geometric(0.99, 4) <= 4);
        }
        assert_eq!(rng.geometric(0.0, 10), 0);
    }
}
