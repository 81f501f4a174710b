//! ESIGN: fast digital signatures over moduli of the form `n = p²q`.
//!
//! The paper (footnote 3) points out that signing/verification does not need
//! RSA: "there are other techniques like ESIGN that are over an order of
//! magnitude faster". This module implements the classic ESIGN scheme
//! (Okamoto; TSH-ESIGN is the hash-strengthened variant in IEEE P1363):
//!
//! * **Key**: primes `p`, `q` of `k/3` bits, modulus `n = p²q`, small public
//!   exponent `e` (a power of two, here 32).
//! * **Sign**: pick random `r < pq`; compute `v = (y - r^e) mod n` where `y`
//!   places the message hash in the top bits; let `w = ceil(v / pq)` and
//!   `t = w · (e·r^(e-1))^(-1) mod p`; the signature is `s = r + t·p·q`.
//! * **Verify**: check that the top bits of `s^e mod n` equal the hash.
//!
//! Signing costs a handful of small exponentiations and one modular inverse
//! mod `p` instead of a full-width private exponentiation, which is why it is
//! roughly an order of magnitude faster than RSA signing at equal modulus
//! size (bench `crypto_micro` quantifies this on the current machine).

use crate::bignum::BigUint;
use crate::drbg::RandomSource;
use crate::encoding::{put_bytes, put_u32, Reader};
use crate::error::CryptoError;
use crate::montgomery::MontgomeryCtx;
use crate::prime::generate_prime;
use crate::sha256::Sha256;

/// Default modulus size; comparable to the paper's 2048-bit RSA setting.
pub const DEFAULT_ESIGN_BITS: usize = 2048;

/// Public exponent: a small power of two (the scheme requires `e >= 4`).
const E: u32 = 32;

/// ESIGN public key.
#[derive(Clone, PartialEq, Eq)]
pub struct EsignPublicKey {
    n: BigUint,
    e: u32,
    /// Bit position where the hash window starts in `s^e mod n`.
    shift: usize,
    /// Number of hash bits bound by a signature.
    hash_bits: usize,
}

/// ESIGN private key.
#[derive(Clone)]
pub struct EsignPrivateKey {
    public: EsignPublicKey,
    p: BigUint,
    q: BigUint,
    pq: BigUint,
}

impl std::fmt::Debug for EsignPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EsignPublicKey({} bits)", self.n.bit_len())
    }
}

impl std::fmt::Debug for EsignPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EsignPrivateKey({} bits)", self.public.n.bit_len())
    }
}

/// Derives the hash window parameters from a modulus and prime size.
fn window_params(n: &BigUint, prime_bits: usize) -> (usize, usize) {
    let shift = 2 * prime_bits + 2; // w1 < pq < 2^(2b) <= 2^shift
    let hash_bits = (n.bit_len() - shift).saturating_sub(8).min(256);
    (shift, hash_bits)
}

/// Maps a message to the integer `y` carrying its hash in the top window.
fn message_representative(msg: &[u8], shift: usize, hash_bits: usize) -> BigUint {
    let digest = Sha256::digest(msg);
    let mut h = BigUint::from_bytes_be(&digest);
    if hash_bits < 256 {
        h = h.shr(256 - hash_bits);
    }
    h.shl(shift)
}

impl EsignPublicKey {
    /// Modulus bit length.
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Signature length in bytes.
    pub fn signature_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verifies a signature over `msg`.
    pub fn verify(&self, msg: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        crate::work::count(|w| w.public_ops += 1);
        self.check(msg, signature)
    }

    /// [`Self::verify`] without counting the work: the signer's own
    /// debug-build self-check is not a verification the caller asked for.
    fn check(&self, msg: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        if signature.len() != self.signature_len() {
            return Err(CryptoError::SignatureInvalid);
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_ref(&self.n) != std::cmp::Ordering::Less || s.is_zero() {
            return Err(CryptoError::SignatureInvalid);
        }
        let u = MontgomeryCtx::new(self.n.clone()).pow(&s, &BigUint::from_u64(self.e as u64));
        let expected = message_representative(msg, self.shift, self.hash_bits);
        if u.shr(self.shift) == expected.shr(self.shift) {
            Ok(())
        } else {
            Err(CryptoError::SignatureInvalid)
        }
    }

    /// Serializes the public key.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes(&mut out, &self.n.to_bytes_be());
        put_u32(&mut out, self.e);
        put_u32(&mut out, self.shift as u32);
        put_u32(&mut out, self.hash_bits as u32);
        out
    }

    /// Parses a serialized public key.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let n = BigUint::from_bytes_be(r.take_bytes()?);
        let e = r.take_u32()?;
        let shift = r.take_u32()? as usize;
        let hash_bits = r.take_u32()? as usize;
        r.expect_end()?;
        if n.bit_len() < 64 || e < 4 || shift + hash_bits + 1 > n.bit_len() || hash_bits == 0 {
            return Err(CryptoError::MalformedKey("implausible ESIGN public key"));
        }
        Ok(EsignPublicKey { n, e, shift, hash_bits })
    }
}

impl EsignPrivateKey {
    /// Generates a fresh ESIGN key pair with roughly `bits`-bit modulus.
    pub fn generate<R: RandomSource + ?Sized>(
        bits: usize,
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        assert!(bits >= 192, "ESIGN key too small: {bits} bits");
        crate::work::count(|w| w.keygens += 1);
        let b = bits / 3;
        for _ in 0..16 {
            let p = generate_prime(b, rng)?;
            let q = generate_prime(b, rng)?;
            if p == q {
                continue;
            }
            let pq = p.mul(&q);
            let n = p.square().mul(&q);
            let (shift, hash_bits) = window_params(&n, b);
            if hash_bits < 64 {
                continue; // not enough hash coverage; resample
            }
            return Ok(EsignPrivateKey {
                public: EsignPublicKey { n, e: E, shift, hash_bits },
                p,
                q,
                pq,
            });
        }
        Err(CryptoError::KeyGeneration("ESIGN keygen retries exhausted"))
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &EsignPublicKey {
        &self.public
    }

    /// Signs `msg`.
    pub fn sign<R: RandomSource + ?Sized>(&self, rng: &mut R, msg: &[u8]) -> Vec<u8> {
        crate::work::count(|w| w.private_ops += 1);
        let pk = &self.public;
        let y = message_representative(msg, pk.shift, pk.hash_bits);
        let e_big = BigUint::from_u64(pk.e as u64);
        let e1_big = BigUint::from_u64(pk.e as u64 - 1);
        let ctx_n = MontgomeryCtx::new(pk.n.clone());
        let ctx_p = MontgomeryCtx::new(self.p.clone());

        loop {
            let r = BigUint::random_below(rng, &self.pq);
            if r.rem(&self.p).is_zero() {
                continue;
            }
            let re = ctx_n.pow(&r, &e_big);
            let v = y.sub_mod(&re, &pk.n);
            let (wq, wr) = v.div_rem(&self.pq);
            let w = if wr.is_zero() { wq } else { wq.add_u64(1) };

            // t = w * (e * r^(e-1))^{-1} mod p
            let re1 = ctx_p.pow(&r, &e1_big);
            let denom = re1.mul_u64(pk.e as u64).rem(&self.p);
            let Some(inv) = denom.mod_inv(&self.p) else {
                continue;
            };
            let t = w.rem(&self.p).mul_mod(&inv, &self.p);
            let s = r.add(&t.mul(&self.pq)).rem(&pk.n);
            debug_assert!(pk
                .check(msg, &s.to_bytes_be_padded(pk.signature_len()).unwrap())
                .is_ok());
            return s
                .to_bytes_be_padded(pk.signature_len())
                .expect("s < n fits in signature length");
        }
    }

    /// Serializes the private key.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes(&mut out, &self.p.to_bytes_be());
        put_bytes(&mut out, &self.q.to_bytes_be());
        put_u32(&mut out, self.public.e);
        out
    }

    /// Parses a serialized private key and rebuilds the derived values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let p = BigUint::from_bytes_be(r.take_bytes()?);
        let q = BigUint::from_bytes_be(r.take_bytes()?);
        let e = r.take_u32()?;
        r.expect_end()?;
        if p.bit_len() < 32 || q.bit_len() < 32 || e < 4 {
            return Err(CryptoError::MalformedKey("implausible ESIGN private key"));
        }
        let pq = p.mul(&q);
        let n = p.square().mul(&q);
        let (shift, hash_bits) = window_params(&n, p.bit_len());
        Ok(EsignPrivateKey { public: EsignPublicKey { n, e, shift, hash_bits }, p, q, pq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    fn test_key() -> EsignPrivateKey {
        use std::sync::OnceLock;
        static KEY: OnceLock<EsignPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            EsignPrivateKey::generate(768, &mut HmacDrbg::from_seed_u64(0xE51611)).unwrap()
        })
        .clone()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(1);
        for msg in [&b""[..], b"x", b"directory table v7", &[0xAB; 4096]] {
            let sig = key.sign(&mut rng, msg);
            assert_eq!(sig.len(), key.public_key().signature_len());
            key.public_key().verify(msg, &sig).unwrap();
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(2);
        let sig = key.sign(&mut rng, b"original");
        assert_eq!(key.public_key().verify(b"tampered", &sig), Err(CryptoError::SignatureInvalid));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(3);
        let sig = key.sign(&mut rng, b"message");
        for i in [0usize, 10, 50] {
            let mut bad = sig.clone();
            bad[i] ^= 0x40;
            assert!(key.public_key().verify(b"message", &bad).is_err(), "byte {i}");
        }
        assert!(key.public_key().verify(b"message", &[]).is_err());
        let zeros = vec![0u8; sig.len()];
        assert!(key.public_key().verify(b"message", &zeros).is_err());
    }

    #[test]
    fn signatures_are_randomized_but_all_verify() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(4);
        let s1 = key.sign(&mut rng, b"same message");
        let s2 = key.sign(&mut rng, b"same message");
        assert_ne!(s1, s2, "ESIGN signing should be randomized");
        key.public_key().verify(b"same message", &s1).unwrap();
        key.public_key().verify(b"same message", &s2).unwrap();
    }

    #[test]
    fn serialization_roundtrip() {
        let key = test_key();
        let public = EsignPublicKey::from_bytes(&key.public_key().to_bytes()).unwrap();
        assert_eq!(&public, key.public_key());

        let private = EsignPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        let mut rng = HmacDrbg::from_seed_u64(5);
        let sig = private.sign(&mut rng, b"roundtrip");
        key.public_key().verify(b"roundtrip", &sig).unwrap();
    }

    #[test]
    fn malformed_keys_rejected() {
        assert!(EsignPublicKey::from_bytes(b"junk").is_err());
        assert!(EsignPrivateKey::from_bytes(b"junk").is_err());
    }
}
