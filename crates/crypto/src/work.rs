//! A per-thread tally of cryptographic work, one count per primitive.
//!
//! Timing crypto on a shared host measures the host as much as the code.
//! Counting it does not: the same operation on the same seed does the same
//! work anywhere, so a cost model can price the tally at reference speeds
//! and stay deterministic (the figure harness in `sharoes-bench` does).
//! Each primitive counts its own work where it runs.

use std::cell::Cell;

/// Cryptographic work done on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Bytes through AES-CTR keystream.
    pub aes_ctr_bytes: u64,
    /// Message bytes absorbed by SHA-256 (HMAC's padded keys included).
    pub sha256_bytes: u64,
    /// RSA public-key operations (encrypt, verify), one per modulus block.
    pub rsa_public: u64,
    /// RSA private-key operations (decrypt, sign), one per modulus block.
    pub rsa_private: u64,
    /// RSA key pairs generated.
    pub rsa_keygen: u64,
    /// ESIGN signatures made.
    pub esign_sign: u64,
    /// ESIGN signatures verified.
    pub esign_verify: u64,
    /// ESIGN key pairs generated.
    pub esign_keygen: u64,
}

impl Work {
    const ZERO: Work = Work {
        aes_ctr_bytes: 0,
        sha256_bytes: 0,
        rsa_public: 0,
        rsa_private: 0,
        rsa_keygen: 0,
        esign_sign: 0,
        esign_verify: 0,
        esign_keygen: 0,
    };

    /// Applies `f` to each pair of matching fields.
    fn zip(&self, other: &Work, f: impl Fn(u64, u64) -> u64) -> Work {
        Work {
            aes_ctr_bytes: f(self.aes_ctr_bytes, other.aes_ctr_bytes),
            sha256_bytes: f(self.sha256_bytes, other.sha256_bytes),
            rsa_public: f(self.rsa_public, other.rsa_public),
            rsa_private: f(self.rsa_private, other.rsa_private),
            rsa_keygen: f(self.rsa_keygen, other.rsa_keygen),
            esign_sign: f(self.esign_sign, other.esign_sign),
            esign_verify: f(self.esign_verify, other.esign_verify),
            esign_keygen: f(self.esign_keygen, other.esign_keygen),
        }
    }

    /// Component-wise difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &Work) -> Work {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &Work) -> Work {
        self.zip(other, |a, b| a + b)
    }
}

thread_local! {
    static WORK: Cell<Work> = const { Cell::new(Work::ZERO) };
}

/// Work done on the calling thread since it started.
fn tally() -> Work {
    WORK.with(Cell::get)
}

/// Runs `f` and returns its result with the work it did on this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Work) {
    let start = tally();
    let out = f();
    (out, tally().since(&start))
}

/// Runs `f` with its work left uncounted: for self-checks only debug builds
/// run, so that every build counts the same work.
pub(crate) fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let before = tally();
    let out = f();
    WORK.with(|w| w.set(before));
    out
}

pub(crate) fn count(f: impl FnOnce(&mut Work)) {
    WORK.with(|w| {
        let mut work = w.get();
        f(&mut work);
        w.set(work);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_signing_pair, HmacDrbg, RsaPrivateKey, Sha256, SignatureScheme, SymKey};

    #[test]
    fn each_primitive_counts_its_own_work() {
        let mut rng = HmacDrbg::from_seed_u64(9);
        let key = SymKey::random(&mut rng);
        let ((), work) = counted(|| {
            let blob = key.seal(&mut rng, &[0u8; 100]);
            key.open(&blob).unwrap();
        });
        assert_eq!(Work { sha256_bytes: 0, ..work }, Work { aes_ctr_bytes: 200, ..Work::ZERO });

        // One-shot, incremental and batched hashing count message bytes.
        let (_, work) = counted(|| {
            Sha256::digest(&[1u8; 100]);
            let mut h = Sha256::new();
            h.update(&[2u8; 30]);
            h.update(&[3u8; 70]);
            h.finalize_array();
            Sha256::digest_many(&[&[4u8; 4112][..]; 21]);
        });
        assert_eq!(work, Work { sha256_bytes: 200 + 21 * 4112, ..Work::ZERO });

        let ((sk, vk), work) =
            counted(|| generate_signing_pair(SignatureScheme::Esign, 384, &mut rng).unwrap());
        assert_eq!(Work { sha256_bytes: 0, ..work }, Work { esign_keygen: 1, ..Work::ZERO });
        let (sig, work) = counted(|| sk.sign(&mut rng, b"m"));
        assert_eq!(Work { sha256_bytes: 0, ..work }, Work { esign_sign: 1, ..Work::ZERO });
        let (_, work) = counted(|| vk.verify(b"m", &sig).unwrap());
        assert_eq!(Work { sha256_bytes: 0, ..work }, Work { esign_verify: 1, ..Work::ZERO });

        let (rsa, work) = counted(|| RsaPrivateKey::generate(512, &mut rng).unwrap());
        assert_eq!(Work { sha256_bytes: 0, ..work }, Work { rsa_keygen: 1, ..Work::ZERO });
        let ((), work) = counted(|| {
            let ct = rsa.public_key().encrypt(&mut rng, b"m").unwrap();
            rsa.decrypt(&ct).unwrap();
            let sig = rsa.sign(b"m");
            rsa.public_key().verify(b"m", &sig).unwrap();
        });
        let want = Work { rsa_public: 2, rsa_private: 2, ..Work::ZERO };
        assert_eq!(Work { sha256_bytes: 0, ..work }, want);
    }
}
