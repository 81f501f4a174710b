//! x86-64 AES-NI, SHA-NI and AVX-512 kernels: the crate's only `unsafe`
//! code.
//!
//! Each kernel is an `unsafe fn` compiled with `#[target_feature]`, so the
//! instructions it uses are legal only on a CPU that has them. Its safe
//! wrapper calls it only after `is_x86_feature_detected!` confirmed every
//! feature it enables, and otherwise returns `false`; the callers in
//! [`crate::modes`] and [`crate::sha256`] then take the next kernel down or
//! the portable scalar code, which is also the oracle the differential tests
//! check these kernels against. `std::arch` is part of the standard library,
//! not a dependency.

use std::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_broadcast_i32x4, _mm512_loadu_si512,
    _mm512_ror_epi32, _mm512_set1_epi32, _mm512_shuffle_epi8, _mm512_shuffle_i32x4,
    _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32,
    _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm_add_epi32,
    _mm_aesenc_si128, _mm_aesenclast_si128, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
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
    let mut states = [*state];
    if !sha256_compress_streams(&mut states, k, [blocks]) {
        return false;
    }
    *state = states[0];
    true
}

/// `N` independent SHA-256 compressions on the SHA extensions, their
/// rounds interleaved so one stream's SHA256RNDS2 latency hides behind the
/// others'. Lane `i` compresses every 64-byte block of `lanes[i]` into
/// `states[i]`. Returns `false`, leaving `states` untouched, when the CPU
/// lacks the extensions.
///
/// # Panics
///
/// If the lanes differ in length or a length is not a multiple of 64.
pub(crate) fn sha256_compress_streams<const N: usize>(
    states: &mut [[u32; 8]; N],
    k: &[u32; 64],
    lanes: [&[u8]; N],
) -> bool {
    assert_equal_whole_blocks(&lanes);
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: the three features the kernel enables were detected just
    // above, and every lane is the same whole number of 64-byte blocks
    // (asserted above).
    unsafe { sha256_shani(states, k, lanes) };
    true
}

/// Sixteen independent SHA-256 compressions on AVX-512, one message per
/// 32-bit lane of each 512-bit register. Lane `i` compresses every 64-byte
/// block of `lanes[i]` into `states[i]`. Returns `false`, leaving `states`
/// untouched, when the CPU lacks AVX-512F or AVX-512BW.
///
/// # Panics
///
/// If the lanes differ in length or a length is not a multiple of 64.
pub(crate) fn sha256_compress_x16(
    states: &mut [[u32; 8]; 16],
    k: &[u32; 64],
    lanes: [&[u8]; 16],
) -> bool {
    assert_equal_whole_blocks(&lanes);
    if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")) {
        return false;
    }
    // SAFETY: both features the kernel enables were detected just above,
    // and every lane is the same whole number of 64-byte blocks (asserted
    // above).
    unsafe { sha256_avx512(states, k, lanes) };
    true
}

fn assert_equal_whole_blocks(lanes: &[&[u8]]) {
    let len = lanes.first().map_or(0, |l| l.len());
    assert!(
        len.is_multiple_of(64) && lanes.iter().all(|l| l.len() == len),
        "SHA-256 lanes compress equal runs of whole 64-byte blocks"
    );
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

/// SHA-256 compression of every 64-byte block of each `lanes[i]` into
/// `states[i]`, the `N` streams' rounds interleaved.
///
/// The SHA extensions keep the working variables as the `ABEF`/`CDGH`
/// halves; each state is permuted into that form once per call, not once
/// per block.
///
/// # Safety
///
/// The CPU must support SHA, SSSE3 and SSE4.1, and every lane must hold the
/// same whole number of 64-byte blocks.
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn sha256_shani<const N: usize>(
    states: &mut [[u32; 8]; N],
    k: &[u32; 64],
    lanes: [&[u8]; N],
) {
    // Byte-swaps each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let mut abef = [bswap; N];
    let mut cdgh = [bswap; N];
    for l in 0..N {
        (abef[l], cdgh[l]) = shani_state_in(&states[l]);
    }

    let len = lanes.first().map_or(0, |l| l.len());
    for off in (0..len).step_by(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w = [[bswap; 4]; N];
        for l in 0..N {
            for i in 0..4 {
                w[l][i] = _mm_shuffle_epi8(load_bytes(&lanes[l][off + 16 * i..]), bswap);
            }
        }
        for (i, kq) in k.chunks_exact(4).enumerate() {
            let kv = load_words(kq);
            for l in 0..N {
                let w = &mut w[l];
                if i >= 4 {
                    // W[t..t+4] from W[t-16..t]: MSG1 adds sigma0, the
                    // aligned add brings in W[t-7], MSG2 adds sigma1.
                    let t = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
                        _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4),
                    );
                    w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
                }
                let wk = _mm_add_epi32(w[i % 4], kv);
                cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk);
                abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(wk, 0x0e));
            }
        }
        for l in 0..N {
            abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
            cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
        }
    }

    for l in 0..N {
        shani_state_out(abef[l], cdgh[l], &mut states[l]);
    }
}

/// A SHA-256 state as the `ABEF`/`CDGH` halves SHA256RNDS2 works on.
#[target_feature(enable = "ssse3,sse4.1")]
fn shani_state_in(state: &[u32; 8]) -> (__m128i, __m128i) {
    let dcba = load_words(&state[..4]);
    let hgfe = load_words(&state[4..]);
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    (_mm_alignr_epi8(cdab, efgh, 8), _mm_blend_epi16(efgh, cdab, 0xf0))
}

/// The inverse of [`shani_state_in`].
#[target_feature(enable = "ssse3,sse4.1")]
fn shani_state_out(abef: __m128i, cdgh: __m128i, state: &mut [u32; 8]) {
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let words = [store(_mm_blend_epi16(feba, dchg, 0xf0)), store(_mm_alignr_epi8(dchg, feba, 8))];
    for (i, s) in state.iter_mut().enumerate() {
        let b = &words[i / 4][4 * (i % 4)..4 * (i % 4) + 4];
        *s = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// SHA-256 compression of every 64-byte block of each `lanes[i]` into
/// `states[i]`, sixteen messages side by side: register `v[j]` holds state
/// word `j` of every lane, and each block's message words are loaded one
/// lane per register and transposed into one word per register.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW, and every lane must hold
/// the same whole number of 64-byte blocks.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn sha256_avx512(states: &mut [[u32; 8]; 16], k: &[u32; 64], lanes: [&[u8]; 16]) {
    let bswap =
        _mm512_broadcast_i32x4(_mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203));
    let mut v = [bswap; 8];
    for (j, word) in v.iter_mut().enumerate() {
        let mut column = [0u32; 16];
        for (c, state) in column.iter_mut().zip(states.iter()) {
            *c = state[j];
        }
        *word = load512(&column);
    }

    let len = lanes[0].len();
    for off in (0..len).step_by(64) {
        let mut w = [bswap; 16];
        for (row, lane) in w.iter_mut().zip(lanes.iter()) {
            *row = _mm512_shuffle_epi8(load512_bytes(&lane[off..off + 64]), bswap);
        }
        transpose16(&mut w);

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = v;
        for (t, &kt) in k.iter().enumerate() {
            if t >= 16 {
                let (w15, w2) = (w[(t + 1) % 16], w[(t + 14) % 16]);
                let s0 = xor3(
                    _mm512_ror_epi32(w15, 7),
                    _mm512_ror_epi32(w15, 18),
                    _mm512_srli_epi32(w15, 3),
                );
                let s1 = xor3(
                    _mm512_ror_epi32(w2, 17),
                    _mm512_ror_epi32(w2, 19),
                    _mm512_srli_epi32(w2, 10),
                );
                w[t % 16] = _mm512_add_epi32(
                    _mm512_add_epi32(w[t % 16], s0),
                    _mm512_add_epi32(w[(t + 9) % 16], s1),
                );
            }
            let big_s1 =
                xor3(_mm512_ror_epi32(e, 6), _mm512_ror_epi32(e, 11), _mm512_ror_epi32(e, 25));
            // 0xca: e ? f : g (Ch); 0xe8: the majority of a, b, c (Maj).
            let ch = _mm512_ternarylogic_epi32(e, f, g, 0xca);
            let t1 = _mm512_add_epi32(
                _mm512_add_epi32(h, big_s1),
                _mm512_add_epi32(ch, _mm512_add_epi32(_mm512_set1_epi32(kt as i32), w[t % 16])),
            );
            let big_s0 =
                xor3(_mm512_ror_epi32(a, 2), _mm512_ror_epi32(a, 13), _mm512_ror_epi32(a, 22));
            let t2 = _mm512_add_epi32(big_s0, _mm512_ternarylogic_epi32(a, b, c, 0xe8));
            h = g;
            g = f;
            f = e;
            e = _mm512_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm512_add_epi32(t1, t2);
        }
        for (s, x) in v.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = _mm512_add_epi32(*s, x);
        }
    }

    for (j, word) in v.iter().enumerate() {
        for (state, c) in states.iter_mut().zip(store512(*word)) {
            state[j] = c;
        }
    }
}

/// `x ^ y ^ z` in one instruction (truth table 0x96).
#[target_feature(enable = "avx512f")]
fn xor3(x: __m512i, y: __m512i, z: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32(x, y, z, 0x96)
}

/// Transposes a 16 × 16 matrix of 32-bit words held one row per register:
/// afterwards `r[j]` holds word `j` of every former row, row `i` in lane
/// `i`.
#[target_feature(enable = "avx512f")]
fn transpose16(r: &mut [__m512i; 16]) {
    // 32-bit interleave: t[2i] holds, per 128-bit lane L, words 4L and
    // 4L+1 of rows 2i and 2i+1; t[2i+1] words 4L+2 and 4L+3.
    let mut t = *r;
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
    }
    // 64-bit interleave: u[4g+k] holds, per 128-bit lane L, word 4L+k of
    // rows 4g..4g+4.
    let mut u = t;
    for g in 0..4 {
        let q = 4 * g;
        u[q] = _mm512_unpacklo_epi64(t[q], t[q + 2]);
        u[q + 1] = _mm512_unpackhi_epi64(t[q], t[q + 2]);
        u[q + 2] = _mm512_unpacklo_epi64(t[q + 1], t[q + 3]);
        u[q + 3] = _mm512_unpackhi_epi64(t[q + 1], t[q + 3]);
    }
    // A 4 × 4 transpose of 128-bit lanes per k: word 4L+k of all sixteen
    // rows is lane L of u[k], u[4+k], u[8+k], u[12+k].
    for k in 0..4 {
        let (u0, u1, u2, u3) = (u[k], u[4 + k], u[8 + k], u[12 + k]);
        let lo01 = _mm512_shuffle_i32x4(u0, u1, 0x44);
        let hi01 = _mm512_shuffle_i32x4(u0, u1, 0xee);
        let lo23 = _mm512_shuffle_i32x4(u2, u3, 0x44);
        let hi23 = _mm512_shuffle_i32x4(u2, u3, 0xee);
        r[k] = _mm512_shuffle_i32x4(lo01, lo23, 0x88);
        r[4 + k] = _mm512_shuffle_i32x4(lo01, lo23, 0xdd);
        r[8 + k] = _mm512_shuffle_i32x4(hi01, hi23, 0x88);
        r[12 + k] = _mm512_shuffle_i32x4(hi01, hi23, 0xdd);
    }
}

/// Loads sixteen words, the first in the lowest lane.
#[target_feature(enable = "avx512f")]
fn load512(words: &[u32; 16]) -> __m512i {
    // SAFETY: `words` is a valid 64-byte read and `loadu` has no alignment
    // requirement; AVX-512F is enabled on this function.
    unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
}

/// Loads the first 64 bytes of `bytes` as one vector.
#[target_feature(enable = "avx512f")]
fn load512_bytes(bytes: &[u8]) -> __m512i {
    assert!(bytes.len() >= 64);
    // SAFETY: the first 64 bytes are a valid read (asserted above), `loadu`
    // has no alignment requirement, and AVX-512F is enabled on this
    // function.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

/// Stores one vector as sixteen words, lane 0 first.
#[target_feature(enable = "avx512f")]
fn store512(v: __m512i) -> [u32; 16] {
    let mut out = [0u32; 16];
    // SAFETY: `out` is a valid 64-byte write and `storeu` has no alignment
    // requirement; AVX-512F is enabled on this function.
    unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), v) };
    out
}
