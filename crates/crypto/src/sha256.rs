//! SHA-256 (FIPS 180-4).
//!
//! The compression function picks its implementation at run time: on an
//! x86-64 CPU with the SHA extensions it runs SHA256RNDS2/MSG1/MSG2
//! ([`compress_accelerated`]); anywhere else the portable round loop
//! ([`compress_scalar`]), which is also the oracle the differential tests
//! hold the hardware path to. Both produce the same state.
//!
//! [`Sha256::digest_many`] hashes a batch of independent messages, such as
//! the blocks of one file. Messages of equal length share their padding
//! layout, so they are compressed side by side, picked in this order: 16 at
//! a time on AVX-512 ([`compress_x16_accelerated`]), 4 at a time on
//! interleaved SHA-NI streams ([`compress_x4_accelerated`]), then one at a
//! time through [`Sha256::digest`]. Every kernel yields the digests
//! [`Sha256::digest`] does.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        crate::work::count(|w| w.sha256_bytes += data.len() as u64);
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = data.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        compress(&mut self.state, blocks);
        data = rest;
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize_array()
    }

    /// The digest of every message in `msgs`, in order; equal to mapping
    /// [`Sha256::digest`] over them. Equal-length messages are hashed side
    /// by side on the widest kernel the CPU has (see the module docs).
    pub fn digest_many(msgs: &[&[u8]]) -> Vec<[u8; 32]> {
        let mut out = vec![[0u8; 32]; msgs.len()];
        let mut order: Vec<usize> = (0..msgs.len()).collect();
        order.sort_by_key(|&i| msgs[i].len());
        for group in order.chunk_by(|&a, &b| msgs[a].len() == msgs[b].len()) {
            let mut rest = group;
            while let Some((lanes, tail)) = rest.split_first_chunk::<16>() {
                if !digest_lanes(msgs, lanes, &mut out, compress_x16_accelerated) {
                    break;
                }
                rest = tail;
            }
            while let Some((lanes, tail)) = rest.split_first_chunk::<4>() {
                if !digest_lanes(msgs, lanes, &mut out, compress_x4_accelerated) {
                    break;
                }
                rest = tail;
            }
            for &i in rest {
                out[i] = Sha256::digest(msgs[i]);
            }
        }
        out
    }

    /// Consumes the state and produces the digest, with no allocation.
    pub fn finalize_array(mut self) -> [u8; 32] {
        let (block, len) = pad_tail(&self.buf[..self.buf_len], self.total_len);
        compress(&mut self.state, &block[..len]);
        state_bytes(&self.state)
    }
}

/// The padded final block or two of a message of `total_len` bytes whose
/// last `tail.len() < 64` bytes are `tail`: the bytes and their length.
fn pad_tail(tail: &[u8], total_len: u64) -> ([u8; 128], usize) {
    let mut block = [0u8; 128];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    let len = if tail.len() < 56 { 64 } else { 128 };
    block[len - 8..len].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    (block, len)
}

fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// [`compress_x4_accelerated`] or [`compress_x16_accelerated`].
type LaneKernel<const N: usize> = fn(&mut [[u32; 8]; N], [&[u8]; N]) -> bool;

/// Hashes the `N` equal-length messages `msgs[lanes[i]]` side by side with
/// `kernel`, writing digest `i` to `out[lanes[i]]`. Returns `false`,
/// leaving `out` untouched, when the CPU lacks the kernel.
fn digest_lanes<const N: usize>(
    msgs: &[&[u8]],
    lanes: &[usize; N],
    out: &mut [[u8; 32]],
    kernel: LaneKernel<N>,
) -> bool {
    let len = msgs[lanes[0]].len();
    let whole = len - len % 64;
    let mut states = [H0; N];
    if !kernel(&mut states, lanes.map(|i| &msgs[i][..whole])) {
        return false;
    }
    let tails = lanes.map(|i| pad_tail(&msgs[i][whole..], len as u64));
    let tail_len = tails[0].1;
    kernel(&mut states, std::array::from_fn(|l| &tails[l].0[..tail_len]));
    for (&i, state) in lanes.iter().zip(&states) {
        out[i] = state_bytes(state);
    }
    crate::work::count(|w| w.sha256_bytes += (N * len) as u64);
    true
}

/// Compresses every 64-byte block of `blocks` into `state`.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    if !compress_accelerated(state, blocks) {
        compress_scalar(state, blocks);
    }
}

/// Compresses every 64-byte block of `blocks` into `state` with the SHA
/// extensions. Returns `false`, leaving `state` untouched, when the CPU
/// lacks them.
///
/// # Panics
///
/// If `blocks.len()` is not a multiple of 64.
pub fn compress_accelerated(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    return crate::accel::sha256_compress(state, &K, blocks);
    #[cfg(not(target_arch = "x86_64"))]
    {
        assert!(blocks.len().is_multiple_of(64), "SHA-256 compresses whole 64-byte blocks");
        let _ = state;
        false
    }
}

/// Four block compressions side by side on interleaved SHA-NI streams: lane
/// `i` compresses every 64-byte block of `lanes[i]` into `states[i]`.
/// Returns `false`, leaving `states` untouched, when the CPU lacks the SHA
/// extensions.
///
/// # Panics
///
/// If the lanes differ in length or a length is not a multiple of 64.
pub fn compress_x4_accelerated(states: &mut [[u32; 8]; 4], lanes: [&[u8]; 4]) -> bool {
    #[cfg(target_arch = "x86_64")]
    return crate::accel::sha256_compress_streams(states, &K, lanes);
    #[cfg(not(target_arch = "x86_64"))]
    {
        assert_equal_whole_blocks(&lanes);
        let _ = states;
        false
    }
}

/// Sixteen block compressions side by side on AVX-512: lane `i` compresses
/// every 64-byte block of `lanes[i]` into `states[i]`. Returns `false`,
/// leaving `states` untouched, when the CPU lacks AVX-512F or AVX-512BW.
///
/// # Panics
///
/// If the lanes differ in length or a length is not a multiple of 64.
pub fn compress_x16_accelerated(states: &mut [[u32; 8]; 16], lanes: [&[u8]; 16]) -> bool {
    #[cfg(target_arch = "x86_64")]
    return crate::accel::sha256_compress_x16(states, &K, lanes);
    #[cfg(not(target_arch = "x86_64"))]
    {
        assert_equal_whole_blocks(&lanes);
        let _ = states;
        false
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn assert_equal_whole_blocks(lanes: &[&[u8]]) {
    let len = lanes.first().map_or(0, |l| l.len());
    assert!(
        len.is_multiple_of(64) && lanes.iter().all(|l| l.len() == len),
        "SHA-256 lanes compress equal runs of whole 64-byte blocks"
    );
}

/// Compresses every 64-byte block of `blocks` into `state` in portable
/// code, one block at a time.
///
/// # Panics
///
/// If `blocks.len()` is not a multiple of 64.
pub fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(blocks.len().is_multiple_of(64), "SHA-256 compresses whole 64-byte blocks");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize_array()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 996, 997] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize_array(), Sha256::digest(&data), "split={split}");
        }
    }
}
