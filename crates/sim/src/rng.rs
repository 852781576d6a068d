//! Deterministic random number generation for the simulator.
//!
//! We implement xoshiro256++ directly rather than pulling in `rand`'s default
//! (thread-local, OS-seeded) generators: the figure regenerators must be
//! bit-reproducible from a `u64` seed, and the workload/anomaly models need a
//! handful of distributions (`rand_distr` is not on the approved dependency
//! list). The generator is *splittable* — [`SimRng::split`] derives an
//! independent child stream, which lets each VM, browser and region own a
//! private stream so that adding a component never perturbs the draws seen by
//! the others.
//!
//! Two batch samplers serve the hot per-VM anomaly draws:
//! [`SimRng::bernoulli_count`] (n Bernoulli trials as integer compares) and
//! [`SimRng::log_normals_into`] (a slice of log-normals, uniforms first,
//! transcendental tails after). Each consumes the stream exactly as the
//! one-at-a-time calls it stands for and returns the same bits; what they
//! save is the wrapper around each draw — a float conversion and an
//! outcome-dependent branch per trial, a serial `ln`/`sqrt`/`exp` chain per
//! variate — not the draws.

/// SplitMix64 step, used for seeding and for deriving child streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, splittable PRNG (xoshiro256++) with the distribution
/// samplers needed by the ACM models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            SimRng::new(seed.wrapping_add(1))
        } else {
            SimRng { s }
        }
    }

    /// Derives an independent child generator. The child's stream is a
    /// deterministic function of the parent state, and the parent advances,
    /// so successive splits yield distinct streams.
    pub fn split(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. Panics if `lo > hi` or either is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform range"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift rejection.
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// The number of successes in `n` [`SimRng::bernoulli`] trials: the same
    /// draws and the same count as `(0..n).filter(|_| rng.bernoulli(p))`.
    ///
    /// A trial succeeds when `f64() < p`, and `f64()` is `(x >> 11) · 2⁻⁵³`
    /// exactly, so it succeeds exactly when the integer `x >> 11` is below
    /// `⌈p · 2⁵³⌉` (also exact: a power-of-two scaling, then a ceiling of a
    /// value in `(0, 2⁵³]`). Each trial is then one draw, one compare and
    /// one add, with no branch on its outcome. A NaN `p` draws `n` times
    /// and counts nothing, like the loop it replaces.
    pub fn bernoulli_count(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // NaN saturates to 0: no draw is below it.
        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        let mut hits = 0;
        for _ in 0..n {
            hits += u64::from((self.next_u64() >> 11) < threshold);
        }
        hits
    }

    /// Fills `out` with log-normal variates: the same bits, and the same
    /// draws, as one [`SimRng::log_normal`]`(mu, sigma)` call per slot in
    /// order. The polar method's uniform pairs — the only part that touches
    /// the stream — are drawn first; the `ln` / `sqrt` / `exp` tails then
    /// run as independent chains instead of one after another behind each
    /// draw. Panics if `sigma` is negative.
    pub fn log_normals_into(&mut self, mu: f64, sigma: f64, out: &mut [f64]) {
        assert!(sigma >= 0.0, "standard deviation must be non-negative");
        const CHUNK: usize = 32;
        let mut s = [0.0; CHUNK];
        for chunk in out.chunks_mut(CHUNK) {
            for (u, s) in chunk.iter_mut().zip(&mut s) {
                (*u, *s) = self.polar_pair();
            }
            for (x, &s) in chunk.iter_mut().zip(&s) {
                *x = (mu + sigma * (*x * (-2.0 * s.ln() / s).sqrt())).exp();
            }
        }
    }

    /// The accepted `(u, s = u² + v²)` of one polar-method normal.
    fn polar_pair(&mut self) -> (f64, f64) {
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return (u, s);
            }
        }
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        // 1 - U avoids ln(0); U in [0,1) so 1-U in (0,1].
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal variate via the polar (Marsaglia) method.
    pub fn standard_normal(&mut self) -> f64 {
        let (u, s) = self.polar_pair();
        u * (-2.0 * s.ln() / s).sqrt()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal variate parameterised by the underlying normal's `mu` and
    /// `sigma`. Used for heavy-ish-tailed service demands.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson variate with the given mean: Knuth's product method for small
    /// means, a rounded-and-clamped normal approximation for large ones.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "poisson mean must be non-negative"
        );
        if mean == 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let limit = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            self.normal(mean, mean.sqrt()).round().max(0.0) as u64
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 4,
            "streams should be nearly disjoint, {same} collisions"
        );
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Second split from the same parent yields a different stream.
        let mut c3 = parent1.split();
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::new(4);
        for _ in 0..1_000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
        assert_eq!(rng.uniform(3.0, 3.0), 3.0);
    }

    #[test]
    fn index_is_unbiased_enough() {
        let mut rng = SimRng::new(5);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.index(7)] += 1;
        }
        let expect = n as f64 / 7.0;
        for c in counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.1,
                "count {c} vs {expect}"
            );
        }
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::new(6);
        let n = 200_000;
        let mean = 2.5;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.05,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = SimRng::new(8);
        let n = 200_000usize;
        let (mu, sd) = (3.0, 1.5);
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(mu, sd)).collect();
        let m: f64 = xs.iter().sum::<f64>() / n as f64;
        let v: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - mu).abs() < 0.03, "mean {m}");
        assert!((v.sqrt() - sd).abs() < 0.03, "sd {}", v.sqrt());
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = SimRng::new(9);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-1.0));
        assert!(rng.bernoulli(2.0));
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.1)).count();
        assert!((hits as f64 - 10_000.0).abs() < 600.0, "hits {hits}");
    }

    #[test]
    fn poisson_mean_and_variance_match() {
        let mut rng = SimRng::new(33);
        // Small-mean regime (Knuth).
        let n = 100_000;
        let xs: Vec<u64> = (0..n).map(|_| rng.poisson(4.0)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
        // Large-mean regime (normal approximation).
        let ys: Vec<u64> = (0..n).map(|_| rng.poisson(400.0)).collect();
        let mean = ys.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - 400.0).abs() < 0.5, "mean {mean}");
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = SimRng::new(15);
        for _ in 0..1_000 {
            assert!(rng.log_normal(0.0, 1.0) > 0.0);
        }
    }
}
