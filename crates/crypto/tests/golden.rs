//! Golden pins for the public-key primitives at the workloads' key sizes.
//!
//! Keys, signatures and ciphertexts are drawn from fixed DRBG seeds, so the
//! bytes they come out as are a function of the code alone. Each test pins
//! the SHA-256 of those bytes: a change to the bignum, Montgomery, prime
//! search, ESIGN or RSA code that alters a single output byte (or the
//! number of DRBG draws a signature takes) fails here, while a pure speed
//! change passes.

use sharoes_crypto::{EsignPrivateKey, HmacDrbg, RsaPrivateKey, Sha256};

fn sha256_hex(bytes: &[u8]) -> String {
    Sha256::digest(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// Digest over a sequence of byte strings, each length-prefixed.
fn digest_all<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut buf = Vec::new();
    for part in parts {
        buf.extend_from_slice(&(part.len() as u32).to_be_bytes());
        buf.extend_from_slice(part);
    }
    sha256_hex(&buf)
}

#[test]
fn esign768_key_and_signatures_are_pinned() {
    let key = EsignPrivateKey::generate(768, &mut HmacDrbg::from_seed_u64(0x5EED_0768)).unwrap();
    assert_eq!(
        sha256_hex(&key.to_bytes()),
        "b39a882916b880669b16d3bf1c2e61de0e3f169b7f08007f40b2ab0ce72da75c"
    );

    let mut rng = HmacDrbg::from_seed_u64(0x51_6E);
    let msgs: [&[u8]; 4] = [b"", b"directory table v7", &[0xAB; 4096], b"metadata replica"];
    let sigs: Vec<Vec<u8>> = msgs.iter().map(|m| key.sign(&mut rng, m)).collect();
    for (m, s) in msgs.iter().zip(&sigs) {
        key.public_key().verify(m, s).unwrap();
    }
    assert_eq!(
        digest_all(sigs.iter().map(Vec::as_slice)),
        "3ddd08a196722d88e318508321bb5507664a49b03517ed4fb42d4e9f6ddc258d"
    );
    // The DRBG state after signing pins how many draws the signatures took.
    let mut tail = [0u8; 16];
    sharoes_crypto::RandomSource::fill_bytes(&mut rng, &mut tail);
    assert_eq!(
        sha256_hex(&tail),
        "a3a1095479b2a93a51360e87f80baab8cd5fee634fd8d5d058c6a4babd76a84a"
    );
}

#[test]
fn rsa2048_key_signature_and_decrypt_are_pinned() {
    let key = RsaPrivateKey::generate(2048, &mut HmacDrbg::from_seed_u64(0x5EED_2048)).unwrap();
    assert_eq!(
        sha256_hex(&key.to_bytes()),
        "9dc4977ef0342912fa0ab2d96412a0a77b3769370487ccb9de31761549aba6e0"
    );

    let sig = key.sign(b"superblock v3");
    key.public_key().verify(b"superblock v3", &sig).unwrap();
    assert_eq!(
        sha256_hex(&sig),
        "f7ca955c6dc93b411307d6239b99d63f39049589986623522465634940e87ec5"
    );

    let mut rng = HmacDrbg::from_seed_u64(0xC1_FE);
    let msg = b"split-point key material: 32 bytes";
    let ct = key.public_key().encrypt(&mut rng, msg).unwrap();
    assert_eq!(sha256_hex(&ct), "d71243fc2007c20c70c6cf036d3b475ea8bb84161dd312b48477cd0b9a32adb0");
    assert_eq!(key.decrypt(&ct).unwrap(), msg);
}
