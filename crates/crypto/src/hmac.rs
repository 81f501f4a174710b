//! HMAC-SHA-256 (RFC 2104 over FIPS 180-4 SHA-256).
//!
//! Sharoes uses HMAC-SHA-256 both as the keyed hash that derives exec-only
//! directory-row keys from entry names (paper §III-A: "a keyed hash function
//! like MD5 or SHA1 with DEK_this as the key"; SHA-256 is the one hash this
//! crate carries) and inside the deterministic DRBG.

use crate::sha256::Sha256;

/// HMAC-SHA-256 of `message` under `key`, computed on the stack.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA-256 with no heap allocation: the MAC of the
/// concatenation of every [`HmacSha256::update`]'s input. A clone taken
/// before any update reuses the key's two pad blocks, already compressed.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Starts a MAC under `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// The MAC.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize_array());
        outer.finalize_array()
    }
}

/// Constant-time byte-slice equality, for MAC comparisons.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(hex(&out), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&out), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_long_key() {
        // Key longer than block size gets hashed first.
        let key = [0xaau8; 131];
        let out = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(hex(&out), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"Same"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }
}
