//! x86-64 AES-NI and SHA-NI kernels: the crate's only `unsafe` code.
//!
//! Each kernel is an `unsafe fn` compiled with `#[target_feature]`, so the
//! instructions it uses are legal only on a CPU that has them. Its safe
//! wrapper calls it only after `is_x86_feature_detected!` confirmed every
//! feature it enables, and otherwise returns `false`; the callers in
//! [`crate::modes`] and [`crate::sha256`] then run the portable scalar code,
//! which is also the oracle the differential tests check these kernels
//! against. `std::arch` is part of the standard library, not a dependency.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_alignr_epi8,
    _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
    _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks encrypted per batch: enough independent AESENC chains to hide the
/// instruction's latency behind its throughput.
const LANES: usize = 8;

/// AES-128-CTR keystream XOR ([`crate::modes::ctr_xor`]) on AES-NI.
/// Returns `false`, leaving `data` untouched, when the CPU lacks it.
pub(crate) fn ctr_xor(round_keys: &[[u8; 16]; 11], iv: &[u8; 16], data: &mut [u8]) -> bool {
    if !(is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse4.1")) {
        return false;
    }
    // SAFETY: both features the kernel enables were detected just above.
    unsafe { ctr_xor_aesni(round_keys, iv, data) };
    true
}

/// SHA-256 compression of whole 64-byte blocks on the SHA extensions.
/// Returns `false`, leaving `state` untouched, when the CPU lacks them.
///
/// # Panics
///
/// If `blocks.len()` is not a multiple of 64.
pub(crate) fn sha256_compress(state: &mut [u32; 8], k: &[u32; 64], blocks: &[u8]) -> bool {
    assert!(blocks.len().is_multiple_of(64), "SHA-256 compresses whole 64-byte blocks");
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: the three features the kernel enables were detected just
    // above, and the length is a multiple of 64 (asserted above).
    unsafe { sha256_shani(state, k, blocks) };
    true
}

/// Loads 16 bytes as one vector.
#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a valid 16-byte read and `loadu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Loads the first 16 bytes of `bytes` as one vector.
#[inline(always)]
fn load_bytes(bytes: &[u8]) -> __m128i {
    load(bytes[..16].try_into().expect("at least 16 bytes"))
}

/// Loads four words, the first in the lowest lane.
#[inline(always)]
fn load_words(words: &[u32]) -> __m128i {
    assert!(words.len() >= 4);
    // SAFETY: the first four words are a valid 16-byte read (asserted
    // above), `loadu` has no alignment requirement, and x86-64 is
    // little-endian, so word 0 lands in lane 0. SSE2 is baseline.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

/// Stores one vector as 16 bytes.
#[inline(always)]
fn store(v: __m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    // SAFETY: `out` is a valid 16-byte write and `storeu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
    out
}

/// AES-128-CTR keystream XOR with the FIPS-197 byte-order round keys, which
/// AESENC takes unchanged. The counter block is a big-endian `u128` that
/// wraps at 2^128.
///
/// # Safety
///
/// The CPU must support AES-NI and SSE4.1.
#[target_feature(enable = "aes,sse4.1")]
unsafe fn ctr_xor_aesni(round_keys: &[[u8; 16]; 11], iv: &[u8; 16], data: &mut [u8]) {
    let rk = round_keys.map(|k| load(&k));
    let encrypt = |mut b: __m128i| {
        b = _mm_xor_si128(b, rk[0]);
        for k in &rk[1..10] {
            b = _mm_aesenc_si128(b, *k);
        }
        _mm_aesenclast_si128(b, rk[10])
    };
    let mut counter = u128::from_be_bytes(*iv);
    let mut batches = data.chunks_exact_mut(16 * LANES);
    for batch in &mut batches {
        let mut b = [rk[0]; LANES];
        for (i, lane) in b.iter_mut().enumerate() {
            *lane = _mm_xor_si128(load(&counter.wrapping_add(i as u128).to_be_bytes()), rk[0]);
        }
        counter = counter.wrapping_add(LANES as u128);
        for k in &rk[1..10] {
            for lane in b.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, *k);
            }
        }
        for (lane, block) in b.iter().zip(batch.chunks_exact_mut(16)) {
            let block: &mut [u8; 16] = block.try_into().expect("16-byte chunk");
            *block = store(_mm_xor_si128(load(block), _mm_aesenclast_si128(*lane, rk[10])));
        }
    }
    for block in batches.into_remainder().chunks_mut(16) {
        let keystream = store(encrypt(load(&counter.to_be_bytes())));
        counter = counter.wrapping_add(1);
        for (d, k) in block.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
    }
}

/// SHA-256 compression of every 64-byte block of `blocks` into `state`.
///
/// The SHA extensions keep the working variables as the `ABEF`/`CDGH`
/// halves; the state is permuted into that form once per call, not once
/// per block.
///
/// # Safety
///
/// The CPU must support SHA, SSSE3 and SSE4.1.
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn sha256_shani(state: &mut [u32; 8], k: &[u32; 64], blocks: &[u8]) {
    // Byte-swaps each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let dcba = load_words(&state[..4]);
    let hgfe = load_words(&state[4..]);
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(load_bytes(&block[16 * i..]), bswap));
        for (i, kq) in k.chunks_exact(4).enumerate() {
            if i >= 4 {
                // W[t..t+4] from W[t-16..t]: MSG1 adds sigma0, the aligned
                // add brings in W[t-7], MSG2 adds sigma1.
                let t = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
                    _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4),
                );
                w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
            }
            let wk = _mm_add_epi32(w[i % 4], load_words(kq));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let words = [store(_mm_blend_epi16(feba, dchg, 0xf0)), store(_mm_alignr_epi8(dchg, feba, 8))];
    for (i, s) in state.iter_mut().enumerate() {
        let b = &words[i / 4][4 * (i % 4)..4 * (i % 4) + 4];
        *s = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}
