//! Signature key-pair pooling.
//!
//! Every Sharoes object carries two fresh signing pairs (DSK/DVK, MSK/MVK).
//! Generating ESIGN/RSA keys means prime search, which would otherwise
//! serialize into the create path; the pool amortizes it and lets bulk
//! operations (migration) prefill in batch.

use crate::params::CryptoParams;
use sharoes_crypto::{generate_signing_pair, RandomSource, SigningKey, VerifyKey};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A pool of pre-generated signing pairs.
pub struct SigKeyPool {
    params: CryptoParams,
    pool: Mutex<Vec<(SigningKey, VerifyKey)>>,
}

impl SigKeyPool {
    /// An empty pool generating keys per `params`.
    pub fn new(params: CryptoParams) -> Self {
        SigKeyPool { params, pool: Mutex::new(Vec::new()) }
    }

    /// Pre-generates `n` pairs.
    pub fn prefill<R: RandomSource + ?Sized>(&self, n: usize, rng: &mut R) {
        let mut fresh = Vec::with_capacity(n);
        for _ in 0..n {
            fresh.push(
                generate_signing_pair(self.params.sig_scheme, self.params.sig_bits, rng)
                    .expect("signature keygen"),
            );
        }
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).extend(fresh);
    }

    /// Pre-generates `n` pairs across all available cores. Pair `i` comes
    /// from its own DRBG, derived from `seed` and `i`, and the pairs join
    /// the pool in index order, so its contents and order are the same
    /// whatever the core count and whichever worker finishes first. Each
    /// worker takes the next index as it finishes a pair, so the workers
    /// end together however long each prime search takes.
    pub fn prefill_parallel(&self, n: usize, seed: u64) {
        let threads =
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n.max(1));
        let next = AtomicUsize::new(0);
        let params = self.params;
        let mut fresh: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return mine;
                            }
                            let mut rng = sharoes_crypto::HmacDrbg::new(
                                &[seed.to_be_bytes(), (i as u64).to_be_bytes()].concat(),
                            );
                            let pair =
                                generate_signing_pair(params.sig_scheme, params.sig_bits, &mut rng)
                                    .expect("signature keygen");
                            mine.push((i, pair));
                        }
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("keygen worker")).collect()
        });
        fresh.sort_unstable_by_key(|(i, _)| *i);
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        pool.extend(fresh.into_iter().map(|(_, pair)| pair));
    }

    /// Pre-fills the pool with `n` clones of a single freshly generated
    /// pair. Only valid when the consumer never *signs* with these keys
    /// (the PUBLIC/PUB-OPT baselines carry signing-key bytes inside
    /// metadata for size fidelity but perform no signing), so distinctness
    /// is irrelevant and the prefill cost collapses to one keygen.
    pub fn prefill_cloned<R: RandomSource + ?Sized>(&self, n: usize, rng: &mut R) {
        let pair = generate_signing_pair(self.params.sig_scheme, self.params.sig_bits, rng)
            .expect("signature keygen");
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..n {
            pool.push(pair.clone());
        }
    }

    /// Tops the pool up to at least `n` pairs. Rotation storms and bulk
    /// re-keys re-sign rebuilt metadata in batches; topping up ahead of the
    /// storm keeps keygen out of the measured phase without guessing how
    /// much of a previous prefill is left.
    pub fn ensure<R: RandomSource + ?Sized>(&self, n: usize, rng: &mut R) {
        let have = self.len();
        if have < n {
            self.prefill(n - have, rng);
        }
    }

    /// Takes a pair, generating one on demand if the pool is dry.
    pub fn take<R: RandomSource + ?Sized>(&self, rng: &mut R) -> (SigningKey, VerifyKey) {
        if let Some(pair) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return pair;
        }
        generate_signing_pair(self.params.sig_scheme, self.params.sig_bits, rng)
            .expect("signature keygen")
    }

    /// Current pool depth.
    pub fn len(&self) -> usize {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no pre-generated pairs remain.
    pub fn is_empty(&self) -> bool {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_crypto::HmacDrbg;

    #[test]
    fn prefill_and_take() {
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(1);
        assert!(pool.is_empty());
        pool.prefill(3, &mut rng);
        assert_eq!(pool.len(), 3);
        let (sk, vk) = pool.take(&mut rng);
        assert_eq!(pool.len(), 2);
        let sig = sk.sign(&mut rng, b"x");
        vk.verify(b"x", &sig).unwrap();
    }

    #[test]
    fn ensure_tops_up_to_target() {
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(2);
        pool.ensure(2, &mut rng);
        assert_eq!(pool.len(), 2);
        pool.ensure(1, &mut rng);
        assert_eq!(pool.len(), 2, "ensure never shrinks or over-fills");
        pool.ensure(4, &mut rng);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn parallel_prefill_fills_pool() {
        let pool = SigKeyPool::new(CryptoParams::test());
        pool.prefill_parallel(7, 42);
        assert_eq!(pool.len(), 7);
        // The last pair in is pair 6, derived from (seed, 6) alone.
        let mut rng = HmacDrbg::new(&[42u64.to_be_bytes(), 6u64.to_be_bytes()].concat());
        let params = CryptoParams::test();
        let (last, _) =
            generate_signing_pair(params.sig_scheme, params.sig_bits, &mut rng).unwrap();
        let mut rng = HmacDrbg::from_seed_u64(3);
        let (sk, vk) = pool.take(&mut rng);
        assert_eq!(sk.to_bytes(), last.to_bytes());
        let sig = sk.sign(&mut rng, b"parallel");
        vk.verify(b"parallel", &sig).unwrap();
    }

    #[test]
    fn take_generates_on_dry_pool() {
        let pool = SigKeyPool::new(CryptoParams::test());
        let mut rng = HmacDrbg::from_seed_u64(2);
        let (sk, vk) = pool.take(&mut rng);
        let sig = sk.sign(&mut rng, b"on demand");
        vk.verify(b"on demand", &sig).unwrap();
    }
}
