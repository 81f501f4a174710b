//! Block-cipher modes of operation over AES-128: CTR and CBC/PKCS#7.
//!
//! Sharoes seals data and metadata blocks with AES-CTR and a random 16-byte
//! IV prepended to the ciphertext; integrity comes from the DSK/MSK signature
//! layer, matching the paper's split between encryption and signing.
//!
//! CTR is the bulk data path, so [`ctr_xor`] picks its implementation at
//! run time: on an x86-64 CPU with AES-NI it encrypts eight counter blocks
//! per batch with AESENC ([`ctr_xor_accelerated`]); anywhere else it runs
//! the portable block-at-a-time code ([`ctr_xor_scalar`]). Both produce the
//! same bytes, and the scalar path is the oracle the differential tests hold
//! the hardware path to. CBC stays scalar: nothing on the bulk path uses it.

use crate::aes::Aes128;
use crate::drbg::RandomSource;
use crate::error::CryptoError;

/// Applies AES-CTR keystream in place.
///
/// The 16-byte `iv` is the initial counter block; it is incremented as a
/// big-endian 128-bit integer per block, wrapping at 2^128.
pub fn ctr_xor(aes: &Aes128, iv: &[u8; 16], data: &mut [u8]) {
    crate::work::count(|w| w.sym_bytes += data.len() as u64);
    if !ctr_xor_accelerated(aes, iv, data) {
        ctr_xor_scalar(aes, iv, data);
    }
}

/// [`ctr_xor`] on AES-NI. Returns `false`, leaving `data` untouched, when
/// the CPU lacks the instructions.
pub fn ctr_xor_accelerated(aes: &Aes128, iv: &[u8; 16], data: &mut [u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    return crate::accel::ctr_xor(aes.round_keys(), iv, data);
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (aes, iv, data);
        false
    }
}

/// [`ctr_xor`] one block at a time in portable code.
pub fn ctr_xor_scalar(aes: &Aes128, iv: &[u8; 16], data: &mut [u8]) {
    let mut counter = *iv;
    for chunk in data.chunks_mut(16) {
        let mut keystream = counter;
        aes.encrypt_block(&mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        increment_be(&mut counter);
    }
}

fn increment_be(counter: &mut [u8; 16]) {
    for b in counter.iter_mut().rev() {
        *b = b.wrapping_add(1);
        if *b != 0 {
            break;
        }
    }
}

/// Encrypts with AES-CTR, returning `iv || ciphertext`.
pub fn ctr_seal<R: RandomSource + ?Sized>(aes: &Aes128, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
    let mut iv = [0u8; 16];
    rng.fill_bytes(&mut iv);
    let mut out = Vec::with_capacity(16 + plaintext.len());
    out.extend_from_slice(&iv);
    out.extend_from_slice(plaintext);
    ctr_xor(aes, &iv, &mut out[16..]);
    out
}

/// Decrypts a blob produced by [`ctr_seal`].
pub fn ctr_open(aes: &Aes128, blob: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if blob.len() < 16 {
        return Err(CryptoError::InvalidCiphertext("CTR blob shorter than IV"));
    }
    let mut iv = [0u8; 16];
    iv.copy_from_slice(&blob[..16]);
    let mut out = blob[16..].to_vec();
    ctr_xor(aes, &iv, &mut out);
    Ok(out)
}

/// Encrypts with AES-CBC and PKCS#7 padding, returning `iv || ciphertext`.
pub fn cbc_seal<R: RandomSource + ?Sized>(aes: &Aes128, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
    let mut iv = [0u8; 16];
    rng.fill_bytes(&mut iv);

    let pad = 16 - plaintext.len() % 16;
    let mut data = Vec::with_capacity(plaintext.len() + pad);
    data.extend_from_slice(plaintext);
    data.extend(std::iter::repeat_n(pad as u8, pad));

    crate::work::count(|w| w.sym_bytes += data.len() as u64);
    let mut out = Vec::with_capacity(16 + data.len());
    out.extend_from_slice(&iv);
    let mut prev = iv;
    for chunk in data.chunks(16) {
        let mut block = [0u8; 16];
        block.copy_from_slice(chunk);
        for (b, p) in block.iter_mut().zip(prev.iter()) {
            *b ^= p;
        }
        aes.encrypt_block(&mut block);
        out.extend_from_slice(&block);
        prev = block;
    }
    out
}

/// Decrypts a blob produced by [`cbc_seal`], validating the PKCS#7 padding.
pub fn cbc_open(aes: &Aes128, blob: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if blob.len() < 32 || !blob.len().is_multiple_of(16) {
        return Err(CryptoError::InvalidCiphertext("CBC blob has bad length"));
    }
    crate::work::count(|w| w.sym_bytes += blob.len() as u64 - 16);
    let mut prev = [0u8; 16];
    prev.copy_from_slice(&blob[..16]);
    let mut out = Vec::with_capacity(blob.len() - 16);
    for chunk in blob[16..].chunks(16) {
        let mut block = [0u8; 16];
        block.copy_from_slice(chunk);
        let saved = block;
        aes.decrypt_block(&mut block);
        for (b, p) in block.iter_mut().zip(prev.iter()) {
            *b ^= p;
        }
        out.extend_from_slice(&block);
        prev = saved;
    }
    let pad = *out.last().expect("non-empty by length check") as usize;
    if pad == 0 || pad > 16 || out.len() < pad {
        return Err(CryptoError::InvalidPadding);
    }
    if !out[out.len() - pad..].iter().all(|&b| b as usize == pad) {
        return Err(CryptoError::InvalidPadding);
    }
    out.truncate(out.len() - pad);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    fn parse16(hex: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn sp800_38a_ctr_vector() {
        let key = parse16("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = parse16("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let aes = Aes128::new(&key);
        let mut data = parse16("6bc1bee22e409f96e93d7e117393172a").to_vec();
        data.extend_from_slice(&parse16("ae2d8a571e03ac9c9eb76fac45af8e51"));
        ctr_xor(&aes, &iv, &mut data);
        assert_eq!(data[..16], parse16("874d6191b620e3261bef6864990db6ce"));
        assert_eq!(data[16..], parse16("9806f66b7970fdff8617187bb9fffdff"));
    }

    #[test]
    fn ctr_seal_roundtrip_all_lengths() {
        let aes = Aes128::new(&[7u8; 16]);
        let mut rng = HmacDrbg::from_seed_u64(1);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let blob = ctr_seal(&aes, &mut rng, &pt);
            assert_eq!(blob.len(), 16 + len);
            assert_eq!(ctr_open(&aes, &blob).unwrap(), pt, "len={len}");
        }
    }

    #[test]
    fn ctr_short_blob_rejected() {
        let aes = Aes128::new(&[0u8; 16]);
        assert!(ctr_open(&aes, &[0u8; 15]).is_err());
    }

    #[test]
    fn counter_increment_carries() {
        let mut c = [0xffu8; 16];
        increment_be(&mut c);
        assert_eq!(c, [0u8; 16]);
        let mut c = [0u8; 16];
        c[15] = 0xff;
        increment_be(&mut c);
        assert_eq!(c[14], 1);
        assert_eq!(c[15], 0);
    }

    #[test]
    fn cbc_roundtrip_and_padding() {
        let aes = Aes128::new(&[3u8; 16]);
        let mut rng = HmacDrbg::from_seed_u64(2);
        for len in [0usize, 1, 15, 16, 17, 255] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let blob = cbc_seal(&aes, &mut rng, &pt);
            assert_eq!(blob.len() % 16, 0);
            assert_eq!(cbc_open(&aes, &blob).unwrap(), pt, "len={len}");
        }
    }

    #[test]
    fn cbc_tamper_detected_by_padding_or_garbage() {
        let aes = Aes128::new(&[3u8; 16]);
        let mut rng = HmacDrbg::from_seed_u64(3);
        let blob = cbc_seal(&aes, &mut rng, b"hello world");
        // Flipping the final byte perturbs padding with high probability; at
        // minimum the plaintext must change.
        let mut bad = blob.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        match cbc_open(&aes, &bad) {
            Err(_) => {}
            Ok(pt) => assert_ne!(pt, b"hello world"),
        }
    }

    #[test]
    fn wrong_key_garbles_ctr() {
        let aes = Aes128::new(&[1u8; 16]);
        let wrong = Aes128::new(&[2u8; 16]);
        let mut rng = HmacDrbg::from_seed_u64(4);
        let blob = ctr_seal(&aes, &mut rng, b"confidential metadata");
        let opened = ctr_open(&wrong, &blob).unwrap();
        assert_ne!(opened, b"confidential metadata");
    }
}
