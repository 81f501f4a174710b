//! Seeded input generation.
//!
//! Every workload input (op order, sizes, keys, file contents) is a pure
//! function of the `--seed` argument. Sizes and op kinds are drawn
//! *stratified*: each block of consecutive draws takes exactly one value
//! from every stratum (or exactly the configured count of every op kind),
//! in seeded order. Per-op averages over a run then barely depend on the
//! seed, which keeps seed-to-seed spread of the count metrics small while a
//! different seed still changes every input.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream label, so independent
    /// streams (sizes, op kinds, targets) never share draws.
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
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Stratified sizes in `[lo, hi]`: every block of `strata` draws holds one
/// uniform draw from each of `strata` equal-width sub-ranges.
pub struct Sizes {
    rng: Rng,
    lo: u64,
    hi: u64,
    strata: u64,
    block: Vec<u64>,
}

impl Sizes {
    /// A size stream over `[lo, hi]` with `strata` strata per block.
    pub fn new(rng: Rng, lo: u64, hi: u64, strata: u64) -> Sizes {
        Sizes { rng, lo, hi, strata: strata.max(1), block: Vec::new() }
    }

    /// The next size.
    pub fn draw(&mut self) -> u64 {
        if self.block.is_empty() {
            let width = (self.hi - self.lo + 1) as f64 / self.strata as f64;
            let mut block: Vec<u64> = (0..self.strata)
                .map(|s| {
                    let x = (s as f64 + self.rng.unit()) * width;
                    (self.lo + x as u64).min(self.hi)
                })
                .collect();
            self.rng.shuffle(&mut block);
            self.block = block;
        }
        self.block.pop().expect("refilled above")
    }
}

/// Stratified op kinds: each block holds exactly `count` of every kind in
/// `mix`, shuffled.
pub struct Mix<K: Copy> {
    rng: Rng,
    mix: Vec<(K, usize)>,
    block: Vec<K>,
}

impl<K: Copy> Mix<K> {
    /// A kind stream with the given per-block counts.
    pub fn new(rng: Rng, mix: &[(K, usize)]) -> Mix<K> {
        Mix { rng, mix: mix.to_vec(), block: Vec::new() }
    }

    /// The next op kind.
    pub fn draw(&mut self) -> K {
        if self.block.is_empty() {
            let mut block: Vec<K> =
                self.mix.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
            self.rng.shuffle(&mut block);
            self.block = block;
        }
        self.block.pop().expect("mix is non-empty")
    }

    /// Ops per block.
    pub fn block_len(&self) -> usize {
        self.mix.iter().map(|(_, n)| n).sum()
    }

    /// Per-block count of kinds matching `pred`.
    pub fn count_of(&self, pred: impl Fn(K) -> bool) -> usize {
        self.mix.iter().filter(|(k, _)| pred(*k)).map(|(_, n)| n).sum()
    }
}

/// Zipf(s) ranks over `0..n`, by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Deterministic content of `len` bytes for `salt` (a file version or a
/// value version): the oracle regenerates it to check reads.
pub fn content(len: usize, salt: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut x = salt ^ 0x2545_F491_4F6C_DD1D;
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_cover_the_range_once_per_block() {
        let mut s = Sizes::new(Rng::new(1, 0), 100, 199, 10);
        let mut block: Vec<u64> = (0..10).map(|_| s.draw()).collect();
        block.sort();
        for (i, v) in block.iter().enumerate() {
            assert_eq!((v - 100) / 10, i as u64, "one draw per stratum: {block:?}");
        }
    }

    #[test]
    fn mix_blocks_hold_exact_counts() {
        let mut m = Mix::new(Rng::new(2, 0), &[('a', 3), ('b', 1)]);
        let block: String = (0..4).map(|_| m.draw()).collect();
        assert_eq!(block.matches('a').count(), 3);
        assert_eq!(block.matches('b').count(), 1);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(3, 0);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hot > 2_500, "top-10 ranks drew {hot} of 10000");
    }

    #[test]
    fn content_is_a_function_of_salt() {
        assert_eq!(content(100, 7), content(100, 7));
        assert_ne!(content(100, 7), content(100, 8));
        assert_eq!(content(13, 1).len(), 13);
    }
}
