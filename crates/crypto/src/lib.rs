//! # sharoes-crypto
//!
//! From-scratch cryptographic substrate for the Sharoes reproduction
//! (Singh & Liu, *Sharoes: A Data Sharing Platform for Outsourced Enterprise
//! Storage Environments*, ICDE 2008).
//!
//! The paper's design deliberately mixes three classes of primitives, and the
//! relative costs between them are what the whole evaluation hinges on:
//!
//! * **Symmetric encryption** — AES-128 ([`aes`], [`modes`]) for data blocks
//!   (DEK) and, uniquely in Sharoes, for metadata objects (MEK).
//! * **Fast signatures** — ESIGN ([`esign`]) for DSK/DVK and MSK/MVK
//!   signing/verification, an order of magnitude faster than RSA.
//! * **Public-key encryption** — RSA-2048 ([`rsa`]) for user identities, the
//!   per-user superblock, group key distribution, Scheme-2 split points, and
//!   the PUBLIC/PUB-OPT baselines.
//!
//! Everything is implemented in this crate on top of an arbitrary-precision
//! integer core ([`bignum`], [`montgomery`], [`prime`]); no external crypto
//! dependencies are used. AES-CTR and SHA-256 detect AES-NI and the SHA
//! extensions at run time and use them through `std::arch`, falling back to
//! the portable code; those intrinsics, in one private module, are the
//! crate's only `unsafe` code.
//!
//! ## Example
//!
//! ```
//! use sharoes_crypto::{HmacDrbg, SymKey, SignatureScheme, generate_signing_pair};
//!
//! let mut rng = HmacDrbg::from_seed_u64(7);
//! // DEK: encrypt a data block.
//! let dek = SymKey::random(&mut rng);
//! let sealed = dek.seal(&mut rng, b"quarterly-report.txt contents");
//! assert_eq!(dek.open(&sealed).unwrap(), b"quarterly-report.txt contents");
//!
//! // DSK/DVK: sign the block so readers can tell writers from forgers.
//! let (dsk, dvk) = generate_signing_pair(SignatureScheme::Esign, 768, &mut rng).unwrap();
//! let sig = dsk.sign(&mut rng, &sealed);
//! assert!(dvk.verify(&sealed, &sig).is_ok());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code, unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod accel;
pub mod aes;
pub mod bignum;
pub mod digest;
pub mod drbg;
pub mod encoding;
pub mod error;
pub mod esign;
pub mod hmac;
pub mod keys;
pub mod md5;
pub mod modes;
pub mod montgomery;
pub mod prime;
pub mod rsa;
pub mod sha1;
pub mod sha256;
pub mod work;

pub use aes::Aes128;
pub use bignum::BigUint;
pub use digest::Digest;
pub use drbg::{HmacDrbg, RandomSource, SystemRandom};
pub use error::CryptoError;
pub use esign::{EsignPrivateKey, EsignPublicKey, DEFAULT_ESIGN_BITS};
pub use hmac::{ct_eq, hmac_sha256};
pub use keys::{generate_signing_pair, SignatureScheme, SigningKey, SymKey, VerifyKey};
pub use rsa::{RsaPrivateKey, RsaPublicKey, DEFAULT_RSA_BITS};
pub use sha256::Sha256;
