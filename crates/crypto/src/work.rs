//! A per-thread tally of cryptographic work.
//!
//! Timing crypto on a shared host measures the host as much as the code.
//! Counting it does not: the same operation on the same seed does the same
//! work anywhere, so a cost model can price the tally at reference speeds
//! and stay deterministic (the Figure-13 test in `sharoes-bench` does).

use std::cell::Cell;

/// Cryptographic work done on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Bytes through AES-CTR keystream.
    pub sym_bytes: u64,
    /// Public-key public operations: RSA encrypt and verify, ESIGN verify.
    pub public_ops: u64,
    /// Public-key private operations: RSA decrypt and sign, ESIGN sign.
    pub private_ops: u64,
    /// RSA and ESIGN key pairs generated.
    pub keygens: u64,
}

impl Work {
    /// Component-wise difference (`self - earlier`).
    pub fn since(&self, earlier: &Work) -> Work {
        Work {
            sym_bytes: self.sym_bytes - earlier.sym_bytes,
            public_ops: self.public_ops - earlier.public_ops,
            private_ops: self.private_ops - earlier.private_ops,
            keygens: self.keygens - earlier.keygens,
        }
    }
}

thread_local! {
    static WORK: Cell<Work> = const {
        Cell::new(Work { sym_bytes: 0, public_ops: 0, private_ops: 0, keygens: 0 })
    };
}

/// Work done on the calling thread since it started.
pub fn tally() -> Work {
    WORK.with(Cell::get)
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
    use crate::{generate_signing_pair, HmacDrbg, SignatureScheme, SymKey};

    #[test]
    fn each_primitive_counts_its_own_work() {
        let mut rng = HmacDrbg::from_seed_u64(9);
        let t0 = tally();
        let key = SymKey::random(&mut rng);
        let blob = key.seal(&mut rng, &[0u8; 100]);
        key.open(&blob).unwrap();
        assert_eq!(tally().since(&t0), Work { sym_bytes: 200, ..Work::default() });

        let t1 = tally();
        let (sk, vk) = generate_signing_pair(SignatureScheme::Esign, 384, &mut rng).unwrap();
        let sig = sk.sign(&mut rng, b"m");
        vk.verify(b"m", &sig).unwrap();
        let want = Work { public_ops: 1, private_ops: 1, keygens: 1, ..Work::default() };
        assert_eq!(tally().since(&t1), want);
    }
}
