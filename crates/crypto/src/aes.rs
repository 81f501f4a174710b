//! AES-128 block cipher (FIPS 197).
//!
//! The paper's prototype follows NIST SP 800-78 and uses 128-bit AES for all
//! symmetric encryption (DEK/MEK). This implementation is byte-oriented
//! (SubBytes / ShiftRows / MixColumns); the S-box is derived from the GF(2^8)
//! inverse plus affine transform at first use rather than hard-coded, and is
//! pinned by the FIPS-197 known-answer tests below.
//!
//! This block cipher is the portable implementation. The bulk CTR path in
//! [`crate::modes::ctr_xor`] detects AES-NI at run time and, when present,
//! feeds the same round keys, unchanged, to AESENC; the key schedule here
//! serves both paths, and the code below is the only fallback.

use std::sync::OnceLock;

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // log/antilog tables over GF(2^8) with generator 3.
        let mut alog = [0u8; 256];
        let mut log = [0u8; 256];
        let mut x = 1u8;
        for (i, slot) in alog.iter_mut().enumerate().take(255) {
            *slot = x;
            log[x as usize] = i as u8;
            // multiply by generator 3 = x * 2 + x
            x = xtime(x) ^ x;
        }
        alog[255] = alog[0];

        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for b in 0..256usize {
            let inv = if b == 0 { 0 } else { alog[(255 - log[b] as usize) % 255] };
            let s = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
            sbox[b] = s;
            inv_sbox[s as usize] = b as u8;
        }
        Tables { sbox, inv_sbox }
    })
}

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication.
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES-128 key (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let t = tables();
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = t.sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// The 11 round keys in FIPS-197 byte order, which is also the operand
    /// order AES-NI takes.
    pub(crate) fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block, &t.sbox);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block, &t.sbox);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        add_round_key(block, &self.round_keys[10]);
        for round in (1..10).rev() {
            inv_shift_rows(block);
            sub_bytes(block, &t.inv_sbox);
            add_round_key(block, &self.round_keys[round]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        sub_bytes(block, &t.inv_sbox);
        add_round_key(block, &self.round_keys[0]);
    }
}

// State layout: state[r + 4c] is row r, column c (FIPS 197 column-major).
// Input bytes already arrive in that order: in[i] -> s[i % 4][i / 4].

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in state.iter_mut() {
        *b = sbox[*b as usize];
    }
}

#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row r is bytes state[r], state[r+4], state[r+8], state[r+12]; rotate left by r.
    for r in 1..4 {
        let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
        for c in 0..4 {
            state[r + 4 * c] = row[(c + r) % 4];
        }
    }
}

#[inline]
fn inv_shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
        for c in 0..4 {
            state[r + 4 * c] = row[(c + 4 - r) % 4];
        }
    }
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[inline]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[4 * c + 1] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[4 * c + 2] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[4 * c + 3] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse16(hex: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
        assert_eq!(t.sbox[0xff], 0x16);
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize] as usize, i);
        }
    }

    #[test]
    fn fips197_appendix_c() {
        let key = parse16("000102030405060708090a0b0c0d0e0f");
        let mut block = parse16("00112233445566778899aabbccddeeff");
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, parse16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block, parse16("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn sp800_38a_ecb_vectors() {
        let key = parse16("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes128::new(&key);
        let cases = [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
        ];
        for (pt, ct) in cases {
            let mut block = parse16(pt);
            aes.encrypt_block(&mut block);
            assert_eq!(block, parse16(ct), "plaintext {pt}");
            aes.decrypt_block(&mut block);
            assert_eq!(block, parse16(pt));
        }
    }

    #[test]
    fn roundtrip_many_keys() {
        for seed in 0u8..16 {
            let key = [seed; 16];
            let aes = Aes128::new(&key);
            let original = [seed.wrapping_mul(3); 16];
            let mut block = original;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }
}
