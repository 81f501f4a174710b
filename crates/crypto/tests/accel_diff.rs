//! Differential tests: the AES-NI CTR path, the SHA-NI and AVX-512 SHA-256
//! compression paths, the batched digest and the stack HMAC against the
//! portable code they fall back to (for the HMAC, a textbook RFC 2104
//! construction written out below).
//!
//! Both sides are called directly, so the scalar fallback stays covered on
//! hosts whose CPU takes the hardware path in normal use. A test skips its
//! hardware side (and says so) only when the CPU lacks the feature.

use sharoes_crypto::aes::Aes128;
use sharoes_crypto::hmac::hmac_sha256;
use sharoes_crypto::modes::{ctr_xor, ctr_xor_accelerated, ctr_xor_scalar};
use sharoes_crypto::sha256::{
    compress_accelerated, compress_scalar, compress_x16_accelerated, compress_x4_accelerated,
    Sha256,
};
use sharoes_crypto::{HmacDrbg, RandomSource};

fn random_bytes(rng: &mut HmacDrbg, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

fn random_key_iv(rng: &mut HmacDrbg) -> (Aes128, [u8; 16]) {
    let mut key = [0u8; 16];
    let mut iv = [0u8; 16];
    rng.fill_bytes(&mut key);
    rng.fill_bytes(&mut iv);
    (Aes128::new(&key), iv)
}

/// CTR over `data` on both paths; `None` when the CPU has no AES-NI.
fn ctr_both(aes: &Aes128, iv: &[u8; 16], data: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut scalar = data.to_vec();
    ctr_xor_scalar(aes, iv, &mut scalar);
    let mut fast = data.to_vec();
    if !ctr_xor_accelerated(aes, iv, &mut fast) {
        assert_eq!(fast, data, "a declined hardware path must leave the data untouched");
        return None;
    }
    Some((scalar, fast))
}

fn skip(what: &str) {
    eprintln!("skipping the hardware side of {what}: CPU feature not present");
}

/// Lengths 0..=300, then every length within 17 bytes of each 128-byte
/// (eight-block) batch edge up to 16 batches, then a large odd length.
fn ctr_lengths() -> Vec<usize> {
    let mut lens: Vec<usize> = (0..=300).collect();
    for batches in 1..=16usize {
        let edge = 128 * batches;
        lens.extend(edge.saturating_sub(17)..=edge + 17);
    }
    lens.push(1 << 16 | 13);
    lens.sort_unstable();
    lens.dedup();
    lens
}

#[test]
fn scalar_and_hardware_ctr_match_the_sp800_38a_vector() {
    let hex = |s: &str| -> Vec<u8> {
        (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap()).collect()
    };
    let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
    let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
    let pt = hex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ));
    let ct = hex(concat!(
        "874d6191b620e3261bef6864990db6ce",
        "9806f66b7970fdff8617187bb9fffdff",
        "5ae4df3edbd5d35e5b4f09020db03eab",
        "1e031dda2fbe03d1792170a0f3009cee",
    ));
    let aes = Aes128::new(&key);
    match ctr_both(&aes, &iv, &pt) {
        Some((scalar, fast)) => {
            assert_eq!(scalar, ct);
            assert_eq!(fast, ct);
        }
        None => {
            let mut scalar = pt.clone();
            ctr_xor_scalar(&aes, &iv, &mut scalar);
            assert_eq!(scalar, ct);
            skip("the SP 800-38A vector");
        }
    }
}

#[test]
fn ctr_paths_agree_at_every_length_and_batch_edge() {
    let mut rng = HmacDrbg::from_seed_u64(0xC7);
    let data = random_bytes(&mut rng, (1 << 16) + 64);
    for len in ctr_lengths() {
        let (aes, iv) = random_key_iv(&mut rng);
        let Some((scalar, fast)) = ctr_both(&aes, &iv, &data[..len]) else {
            return skip("CTR lengths");
        };
        assert_eq!(fast, scalar, "len={len}");
        let mut dispatched = data[..len].to_vec();
        ctr_xor(&aes, &iv, &mut dispatched);
        assert_eq!(dispatched, scalar, "dispatch, len={len}");
    }
}

#[test]
fn ctr_paths_agree_on_unaligned_subslices() {
    let mut rng = HmacDrbg::from_seed_u64(0xA119);
    let (aes, iv) = random_key_iv(&mut rng);
    let buf = random_bytes(&mut rng, 1200);
    for offset in 0..=17 {
        for len in [0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000] {
            let mut scalar = buf.clone();
            ctr_xor_scalar(&aes, &iv, &mut scalar[offset..offset + len]);
            let mut fast = buf.clone();
            if !ctr_xor_accelerated(&aes, &iv, &mut fast[offset..offset + len]) {
                return skip("unaligned sub-slices");
            }
            // Equal everywhere: inside the window, and untouched around it.
            assert_eq!(fast, scalar, "offset={offset} len={len}");
            assert_eq!(fast[..offset], buf[..offset]);
            assert_eq!(fast[offset + len..], buf[offset + len..]);
        }
    }
}

#[test]
fn ctr_counter_wraps_at_2_pow_128_on_both_paths() {
    let mut rng = HmacDrbg::from_seed_u64(0x3A9);
    let (aes, _) = random_key_iv(&mut rng);
    let data = random_bytes(&mut rng, 16 * 24 + 5);
    // The keystream block for counter 0, reached by wrapping.
    let mut zero_block = [0u8; 16];
    aes.encrypt_block(&mut zero_block);
    for blocks_before_wrap in 1..=16u128 {
        let iv = 0u128.wrapping_sub(blocks_before_wrap).to_be_bytes();
        let mut scalar = data.clone();
        ctr_xor_scalar(&aes, &iv, &mut scalar);
        let at = 16 * blocks_before_wrap as usize;
        let wrapped: Vec<u8> =
            scalar[at..at + 16].iter().zip(&data[at..]).map(|(c, p)| c ^ p).collect();
        assert_eq!(wrapped, zero_block, "scalar keystream after the wrap is E(0)");
        let Some((scalar, fast)) = ctr_both(&aes, &iv, &data) else {
            return skip("the counter wrap");
        };
        assert_eq!(fast, scalar, "{blocks_before_wrap} blocks before the wrap");
    }
}

#[test]
fn sha256_compression_paths_agree() {
    let mut rng = HmacDrbg::from_seed_u64(0x5A256);
    for nblocks in 0..=20usize {
        let mut state = [0u32; 8];
        for word in state.iter_mut() {
            let mut b = [0u8; 4];
            rng.fill_bytes(&mut b);
            *word = u32::from_le_bytes(b);
        }
        let blocks = random_bytes(&mut rng, 64 * nblocks);
        let mut scalar = state;
        compress_scalar(&mut scalar, &blocks);
        let mut fast = state;
        if !compress_accelerated(&mut fast, &blocks) {
            assert_eq!(fast, state, "a declined hardware path must leave the state untouched");
            return skip("SHA-256 compression");
        }
        assert_eq!(fast, scalar, "{nblocks} blocks");
    }
}

#[test]
fn scalar_sha256_compression_matches_fips_abc() {
    // "abc" padded to one block; the initial state is FIPS 180-4's H(0).
    let mut block = [0u8; 64];
    block[..3].copy_from_slice(b"abc");
    block[3] = 0x80;
    block[63] = 24;
    let mut state = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    compress_scalar(&mut state, &block);
    let digest: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
    assert_eq!(digest, Sha256::digest(b"abc"));
    assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
}

#[test]
fn sha256_oneshot_matches_incremental_at_every_split_of_1kib() {
    let mut rng = HmacDrbg::from_seed_u64(0x1024);
    let data = random_bytes(&mut rng, 1024);
    let oneshot = Sha256::digest(&data);
    for split in 0..=data.len() {
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize_array(), oneshot, "split={split}");
    }
}

fn random_state(rng: &mut HmacDrbg) -> [u32; 8] {
    let mut state = [0u32; 8];
    for word in state.iter_mut() {
        *word = rng.next_u64() as u32;
    }
    state
}

/// `compress_x4_accelerated` or `compress_x16_accelerated`.
type LaneKernel<const N: usize> = fn(&mut [[u32; 8]; N], [&[u8]; N]) -> bool;

/// Random states and equal-length lanes of `nblocks` blocks; the kernel's
/// states must equal `compress_scalar` lane by lane. `false` when the CPU
/// lacks the kernel.
fn lanes_match_scalar<const N: usize>(
    kernel: LaneKernel<N>,
    rng: &mut HmacDrbg,
    nblocks: usize,
) -> bool {
    let states: [[u32; 8]; N] = std::array::from_fn(|_| random_state(rng));
    let data: Vec<Vec<u8>> = (0..N).map(|_| random_bytes(rng, 64 * nblocks)).collect();
    let mut fast = states;
    if !kernel(&mut fast, std::array::from_fn(|l| &data[l][..])) {
        assert_eq!(fast, states, "a declined hardware path must leave the states untouched");
        return false;
    }
    for l in 0..N {
        let mut scalar = states[l];
        compress_scalar(&mut scalar, &data[l]);
        assert_eq!(fast[l], scalar, "lane {l} of {N}, {nblocks} blocks");
    }
    true
}

#[test]
fn sha256_x4_kernel_matches_scalar_compression() {
    let mut rng = HmacDrbg::from_seed_u64(0x5A_0004);
    for nblocks in 0..=20 {
        if !lanes_match_scalar(compress_x4_accelerated, &mut rng, nblocks) {
            return skip("SHA-256 x4 compression");
        }
    }
}

#[test]
fn sha256_x16_kernel_matches_scalar_compression() {
    let mut rng = HmacDrbg::from_seed_u64(0x5A_0016);
    for nblocks in 0..=20 {
        if !lanes_match_scalar(compress_x16_accelerated, &mut rng, nblocks) {
            return skip("SHA-256 x16 compression");
        }
    }
}

#[test]
fn digest_many_matches_digest_for_equal_and_mixed_lengths() {
    const LENGTHS: [usize; 7] = [0, 1, 55, 56, 64, 119, 4112];
    let mut rng = HmacDrbg::from_seed_u64(0xD16E57);
    for count in 0..=40usize {
        // Every message the same length, for each length in turn.
        for len in LENGTHS {
            let msgs: Vec<Vec<u8>> = (0..count).map(|_| random_bytes(&mut rng, len)).collect();
            check_digest_many(&msgs, &format!("{count} x {len} B"));
        }
        // Lengths mixed, runs of equal lengths interleaved with others.
        let msgs: Vec<Vec<u8>> = (0..count)
            .map(|i| random_bytes(&mut rng, LENGTHS[(i * i + i / 3) % LENGTHS.len()]))
            .collect();
        check_digest_many(&msgs, &format!("{count} mixed"));
        // Lengths at random, so most lanes share a padded block count but
        // not a length.
        let msgs: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let len = (rng.next_u64() % 700) as usize;
                random_bytes(&mut rng, len)
            })
            .collect();
        check_digest_many(&msgs, &format!("{count} random lengths"));
    }
}

fn check_digest_many(msgs: &[Vec<u8>], what: &str) {
    let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
    let one_at_a_time: Vec<[u8; 32]> = refs.iter().map(|m| Sha256::digest(m)).collect();
    assert_eq!(Sha256::digest_many(&refs), one_at_a_time, "{what}");
}

/// RFC 2104 HMAC-SHA-256 as the RFC writes it:
/// `H((K' ^ opad) || H((K' ^ ipad) || message))`, where `K'` is the key,
/// hashed first when longer than the 64-byte block, then zero-padded to it.
fn textbook_hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = if key.len() > 64 { Sha256::digest(key).to_vec() } else { key.to_vec() };
    key_block.resize(64, 0);
    let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
    let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
    let inner = Sha256::digest(&[&ipad[..], message].concat());
    Sha256::digest(&[&opad[..], &inner[..]].concat())
}

#[test]
fn stack_hmac_sha256_matches_the_textbook_hmac() {
    let mut rng = HmacDrbg::from_seed_u64(0x4AC);
    for key_len in 0..=130 {
        let key = random_bytes(&mut rng, key_len);
        for msg_len in [0, 1, 33, 64, 200] {
            let msg = random_bytes(&mut rng, msg_len);
            assert_eq!(
                hmac_sha256(&key, &msg),
                textbook_hmac_sha256(&key, &msg),
                "key {key_len} B, message {msg_len} B"
            );
        }
    }
}
