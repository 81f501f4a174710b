//! RSA with PKCS#1 v1.5 padding for encryption and signatures.
//!
//! The paper's prototype uses 2048-bit RSA (per NIST SP 800-78) for user and
//! group identity keys, the per-user superblock, Scheme-2 split points, and —
//! in the PUBLIC/PUB-OPT baselines — metadata encryption. Decryption and
//! signing use the CRT representation.

use crate::bignum::BigUint;
use crate::drbg::RandomSource;
use crate::encoding::{put_bytes, Reader};
use crate::error::CryptoError;
use crate::montgomery::CtxCell;
use crate::prime::generate_prime;
use crate::sha256::Sha256;

/// Default key size matching the paper's evaluation setup.
pub const DEFAULT_RSA_BITS: usize = 2048;

/// Minimum PKCS#1 v1.5 overhead (3 marker bytes + 8 bytes of padding).
const PKCS1_OVERHEAD: usize = 11;

/// Digest prefix for signatures (stands in for the ASN.1 DigestInfo header).
const SIG_PREFIX: &[u8] = b"SHAROES:SHA-256:";

/// An RSA public key `(n, e)`.
#[derive(Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    /// Montgomery context for `n`, built on first use.
    ctx_n: CtxCell,
    e: BigUint,
    /// Modulus length in bytes.
    k: usize,
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    /// Montgomery contexts for `p` and `q`, built on first use.
    ctx_p: CtxCell,
    ctx_q: CtxCell,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RsaPublicKey({} bits)", self.n.bit_len())
    }
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        write!(f, "RsaPrivateKey({} bits)", self.public.n.bit_len())
    }
}

impl RsaPublicKey {
    fn new(n: BigUint, e: BigUint) -> Self {
        let k = n.bit_len().div_ceil(8);
        RsaPublicKey { n, ctx_n: CtxCell::default(), e, k }
    }

    /// Modulus length in bytes; every ciphertext/signature block is this long.
    pub fn modulus_len(&self) -> usize {
        self.k
    }

    /// Modulus bit length.
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Maximum plaintext bytes for a single PKCS#1 v1.5 block.
    pub fn max_plaintext_len(&self) -> usize {
        self.k - PKCS1_OVERHEAD
    }

    fn raw(&self, m: &BigUint) -> BigUint {
        crate::work::count(|w| w.rsa_public += 1);
        self.ctx_n.get(&self.n).pow(m, &self.e)
    }

    /// PKCS#1 v1.5 type-2 encryption of a single block.
    pub fn encrypt<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        msg: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if msg.len() > self.max_plaintext_len() {
            return Err(CryptoError::MessageTooLong);
        }
        let mut em = Vec::with_capacity(self.k);
        em.push(0x00);
        em.push(0x02);
        let pad_len = self.k - 3 - msg.len();
        let mut pad = vec![0u8; pad_len];
        rng.fill_bytes(&mut pad);
        for b in pad.iter_mut() {
            // Padding bytes must be nonzero.
            if *b == 0 {
                *b = 0xA5;
            }
        }
        em.extend_from_slice(&pad);
        em.push(0x00);
        em.extend_from_slice(msg);
        let m = BigUint::from_bytes_be(&em);
        let c = self.raw(&m);
        Ok(c.to_bytes_be_padded(self.k).expect("c < n fits in k bytes"))
    }

    /// Encrypts an arbitrary-length blob by chunking into PKCS#1 blocks.
    ///
    /// This is exactly what the PUBLIC baseline does to whole metadata
    /// objects — the cost scales with blob size, which is why the paper's
    /// PUBLIC list phase is so slow.
    pub fn encrypt_blob<R: RandomSource + ?Sized>(
        &self,
        rng: &mut R,
        blob: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let chunk = self.max_plaintext_len();
        let mut out = Vec::with_capacity(blob.len().div_ceil(chunk.max(1)) * self.k);
        if blob.is_empty() {
            out.extend_from_slice(&self.encrypt(rng, &[])?);
            return Ok(out);
        }
        for piece in blob.chunks(chunk) {
            out.extend_from_slice(&self.encrypt(rng, piece)?);
        }
        Ok(out)
    }

    /// Verifies a PKCS#1 v1.5 signature over `msg`.
    pub fn verify(&self, msg: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        if signature.len() != self.k {
            return Err(CryptoError::SignatureInvalid);
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_ref(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::SignatureInvalid);
        }
        let em = self.raw(&s).to_bytes_be_padded(self.k).ok_or(CryptoError::SignatureInvalid)?;
        let expected = signature_em(&self.n, msg);
        if crate::hmac::ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::SignatureInvalid)
        }
    }

    /// Serializes the public key.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes(&mut out, &self.n.to_bytes_be());
        put_bytes(&mut out, &self.e.to_bytes_be());
        out
    }

    /// Parses a serialized public key.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let n = BigUint::from_bytes_be(r.take_bytes()?);
        let e = BigUint::from_bytes_be(r.take_bytes()?);
        r.expect_end()?;
        // An RSA modulus is odd; an even n would also have no Montgomery context.
        if n.bit_len() < 32 || n.is_even() || e.is_zero() || e.is_one() {
            return Err(CryptoError::MalformedKey("implausible RSA public key"));
        }
        Ok(RsaPublicKey::new(n, e))
    }
}

/// Builds the padded PKCS#1 v1.5 encoded message for signing.
fn signature_em(n: &BigUint, msg: &[u8]) -> Vec<u8> {
    let k = n.bit_len().div_ceil(8);
    let digest = Sha256::digest(msg);
    let t_len = SIG_PREFIX.len() + digest.len();
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xFFu8, k - 3 - t_len));
    em.push(0x00);
    em.extend_from_slice(SIG_PREFIX);
    em.extend_from_slice(&digest);
    em
}

impl RsaPrivateKey {
    /// Generates a fresh key pair with public exponent 65537.
    pub fn generate<R: RandomSource + ?Sized>(
        bits: usize,
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        assert!(bits >= 128, "RSA key too small: {bits} bits");
        crate::work::count(|w| w.rsa_keygen += 1);
        let e = BigUint::from_u64(65537);
        for _ in 0..16 {
            let p = generate_prime(bits / 2, rng)?;
            let q = generate_prime(bits - bits / 2, rng)?;
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            let Some(d) = e.mod_inv(&phi) else {
                continue; // gcd(e, phi) != 1, rare
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let Some(qinv) = q.mod_inv(&p) else {
                continue;
            };
            return Ok(RsaPrivateKey {
                public: RsaPublicKey::new(n, e),
                d,
                p,
                q,
                ctx_p: CtxCell::default(),
                ctx_q: CtxCell::default(),
                dp,
                dq,
                qinv,
            });
        }
        Err(CryptoError::KeyGeneration("RSA keygen retries exhausted"))
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// CRT private-key operation `c^d mod n`.
    fn raw(&self, c: &BigUint) -> BigUint {
        crate::work::count(|w| w.rsa_private += 1);
        let m1 = self.ctx_p.get(&self.p).pow(c, &self.dp);
        let m2 = self.ctx_q.get(&self.q).pow(c, &self.dq);
        // h = qinv * (m1 - m2) mod p
        let diff = m1.sub_mod(&m2.rem(&self.p), &self.p);
        let h = self.qinv.mul_mod(&diff, &self.p);
        m2.add(&h.mul(&self.q))
    }

    /// PKCS#1 v1.5 type-2 decryption of a single block.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.k;
        if ciphertext.len() != k {
            return Err(CryptoError::InvalidCiphertext("RSA block length mismatch"));
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c.cmp_ref(&self.public.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::InvalidCiphertext("RSA ciphertext >= modulus"));
        }
        let em = self
            .raw(&c)
            .to_bytes_be_padded(k)
            .ok_or(CryptoError::InvalidCiphertext("RSA decrypt overflow"))?;
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::InvalidPadding);
        }
        let sep = em[2..].iter().position(|&b| b == 0).ok_or(CryptoError::InvalidPadding)?;
        if sep < 8 {
            return Err(CryptoError::InvalidPadding); // padding too short
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Decrypts a blob produced by [`RsaPublicKey::encrypt_blob`].
    pub fn decrypt_blob(&self, blob: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.k;
        if blob.is_empty() || !blob.len().is_multiple_of(k) {
            return Err(CryptoError::InvalidCiphertext("RSA blob length mismatch"));
        }
        let mut out = Vec::with_capacity(blob.len());
        for chunk in blob.chunks(k) {
            out.extend_from_slice(&self.decrypt(chunk)?);
        }
        Ok(out)
    }

    /// PKCS#1 v1.5 signature over `msg` (SHA-256).
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        let em = signature_em(&self.public.n, msg);
        let m = BigUint::from_bytes_be(&em);
        self.raw(&m).to_bytes_be_padded(self.public.k).expect("signature fits in k bytes")
    }

    /// Serializes the private key (all CRT components).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes(&mut out, &self.public.n.to_bytes_be());
        put_bytes(&mut out, &self.public.e.to_bytes_be());
        put_bytes(&mut out, &self.d.to_bytes_be());
        put_bytes(&mut out, &self.p.to_bytes_be());
        put_bytes(&mut out, &self.q.to_bytes_be());
        put_bytes(&mut out, &self.dp.to_bytes_be());
        put_bytes(&mut out, &self.dq.to_bytes_be());
        put_bytes(&mut out, &self.qinv.to_bytes_be());
        out
    }

    /// Parses a serialized private key.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let n = BigUint::from_bytes_be(r.take_bytes()?);
        let e = BigUint::from_bytes_be(r.take_bytes()?);
        let d = BigUint::from_bytes_be(r.take_bytes()?);
        let p = BigUint::from_bytes_be(r.take_bytes()?);
        let q = BigUint::from_bytes_be(r.take_bytes()?);
        let dp = BigUint::from_bytes_be(r.take_bytes()?);
        let dq = BigUint::from_bytes_be(r.take_bytes()?);
        let qinv = BigUint::from_bytes_be(r.take_bytes()?);
        r.expect_end()?;
        if p.mul(&q) != n || n.is_even() {
            return Err(CryptoError::MalformedKey("RSA n != p*q with p, q odd"));
        }
        Ok(RsaPrivateKey {
            public: RsaPublicKey::new(n, e),
            d,
            p,
            q,
            ctx_p: CtxCell::default(),
            ctx_q: CtxCell::default(),
            dp,
            dq,
            qinv,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    /// Small test key so debug runs stay quick; generated deterministically.
    fn test_key() -> RsaPrivateKey {
        use std::sync::OnceLock;
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            RsaPrivateKey::generate(512, &mut HmacDrbg::from_seed_u64(0xDEADBEEF)).unwrap()
        })
        .clone()
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(1);
        for msg in [&b""[..], b"x", b"hello rsa world", &[0u8; 53]] {
            let ct = key.public_key().encrypt(&mut rng, msg).unwrap();
            assert_eq!(ct.len(), key.public_key().modulus_len());
            assert_eq!(key.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn message_too_long_rejected() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(2);
        let too_long = vec![1u8; key.public_key().max_plaintext_len() + 1];
        assert_eq!(key.public_key().encrypt(&mut rng, &too_long), Err(CryptoError::MessageTooLong));
    }

    #[test]
    fn blob_roundtrip_multiple_chunks() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(3);
        let blob: Vec<u8> = (0..700u32).map(|i| (i % 251) as u8).collect();
        let ct = key.public_key().encrypt_blob(&mut rng, &blob).unwrap();
        assert!(ct.len() > blob.len());
        assert_eq!(ct.len() % key.public_key().modulus_len(), 0);
        assert_eq!(key.decrypt_blob(&ct).unwrap(), blob);
        // Empty blob round-trips too.
        let ct = key.public_key().encrypt_blob(&mut rng, &[]).unwrap();
        assert_eq!(key.decrypt_blob(&ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"metadata object v1");
        key.public_key().verify(b"metadata object v1", &sig).unwrap();
        assert!(key.public_key().verify(b"metadata object v2", &sig).is_err());
        let mut bad = sig.clone();
        bad[10] ^= 1;
        assert!(key.public_key().verify(b"metadata object v1", &bad).is_err());
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let key = test_key();
        let mut rng = HmacDrbg::from_seed_u64(4);
        let ct = key.public_key().encrypt(&mut rng, b"secret").unwrap();
        let mut bad = ct.clone();
        bad[0] ^= 0x80;
        // Either padding fails or the plaintext changes.
        match key.decrypt(&bad) {
            Err(_) => {}
            Ok(pt) => assert_ne!(pt, b"secret"),
        }
    }

    #[test]
    fn key_serialization_roundtrip() {
        let key = test_key();
        let pub_bytes = key.public_key().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&pub_bytes).unwrap();
        assert_eq!(&parsed, key.public_key());

        let priv_bytes = key.to_bytes();
        let parsed = RsaPrivateKey::from_bytes(&priv_bytes).unwrap();
        let mut rng = HmacDrbg::from_seed_u64(5);
        let ct = key.public_key().encrypt(&mut rng, b"roundtrip").unwrap();
        assert_eq!(parsed.decrypt(&ct).unwrap(), b"roundtrip");
    }

    #[test]
    fn corrupt_key_material_rejected() {
        assert!(RsaPublicKey::from_bytes(b"garbage").is_err());
        let key = test_key();
        let mut bytes = key.to_bytes();
        bytes[6] ^= 0xFF; // perturb n so n != p*q
        assert!(RsaPrivateKey::from_bytes(&bytes).is_err());
        // An even modulus is refused at parse, not at first use.
        let mut public = key.public_key().to_bytes();
        let n_end = 4 + u32::from_be_bytes(public[..4].try_into().unwrap()) as usize;
        public[n_end - 1] &= !1;
        assert!(RsaPublicKey::from_bytes(&public).is_err());
    }
}
