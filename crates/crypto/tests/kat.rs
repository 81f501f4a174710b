//! Known-answer tests against published NIST / RFC vectors.
//!
//! Property tests prove the primitives are self-consistent (seal inverts
//! open, HMAC is deterministic) but a self-consistent implementation can
//! still be uniformly wrong. These vectors pin the implementations to the
//! official standards:
//!
//! * AES-128 block: FIPS-197 appendix C.1
//! * AES-128 ECB/CBC/CTR: NIST SP 800-38A appendix F (F.1.1, F.2.1, F.5.1);
//!   the CBC chain is built from the forward cipher
//! * SHA-256: FIPS-180 examples (the "abc" and two-block messages)
//! * HMAC-SHA256: RFC 4231 test cases 1-2
//! * HMAC-DRBG (SHA-256, no reseed): NIST CAVS 14.3 HMAC_DRBG.rsp COUNT=0

use sharoes_crypto::aes::Aes128;
use sharoes_crypto::modes::ctr_xor;
use sharoes_crypto::{hmac_sha256, HmacDrbg, RandomSource, Sha256};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex literal");
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The SP 800-38A appendix F key and four plaintext blocks shared by the
/// ECB/CBC/CTR examples.
const KEY_38A: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const PT_38A: [&str; 4] = [
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
];

fn block16(s: &str) -> [u8; 16] {
    let v = unhex(s);
    let mut b = [0u8; 16];
    b.copy_from_slice(&v);
    b
}

#[test]
fn aes128_block_fips197() {
    let aes = Aes128::new(&block16("000102030405060708090a0b0c0d0e0f"));
    let mut block = block16("00112233445566778899aabbccddeeff");
    aes.encrypt_block(&mut block);
    assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

#[test]
fn aes128_ecb_sp800_38a_f11() {
    let aes = Aes128::new(&block16(KEY_38A));
    let expected = [
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    ];
    for (pt, ct) in PT_38A.iter().zip(expected) {
        let mut block = block16(pt);
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), ct);
    }
}

/// SP 800-38A F.2.1 ciphertext blocks for `KEY_38A` / `PT_38A` with IV
/// `000102...0f`.
const CBC_CT_38A: [&str; 4] = [
    "7649abac8119b246cee98e9b12e9197d",
    "5086cb9b507219ee95db113a917678b2",
    "73bed6b8e3c1743b7116e69e22229516",
    "3ff1caa1681fac09120eca307586e1a7",
];

#[test]
fn aes128_cbc_encrypt_chain_sp800_38a_f21() {
    // The encryption chain, block by block, against the official vectors.
    let aes = Aes128::new(&block16(KEY_38A));
    let mut prev = block16("000102030405060708090a0b0c0d0e0f");
    for (pt, ct) in PT_38A.iter().zip(CBC_CT_38A) {
        let mut block = block16(pt);
        for (b, p) in block.iter_mut().zip(prev.iter()) {
            *b ^= p;
        }
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), ct);
        prev = block;
    }
}

#[test]
fn aes128_ctr_sp800_38a_f51() {
    let aes = Aes128::new(&block16(KEY_38A));
    let iv = block16("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    let mut data = unhex(&PT_38A.concat());
    ctr_xor(&aes, &iv, &mut data);
    assert_eq!(
        hex(&data),
        concat!(
            "874d6191b620e3261bef6864990db6ce",
            "9806f66b7970fdff8617187bb9fffdff",
            "5ae4df3edbd5d35e5b4f09020db03eab",
            "1e031dda2fbe03d1792170a0f3009cee"
        )
    );
    // CTR is an involution.
    ctr_xor(&aes, &iv, &mut data);
    assert_eq!(hex(&data), PT_38A.concat());
}

#[test]
fn sha256_fips180() {
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
fn hmac_sha256_rfc4231() {
    assert_eq!(
        hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    );
    assert_eq!(
        hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    );
}

#[test]
fn hmac_drbg_sha256_cavs_14_3() {
    // CAVS 14.3 HMAC_DRBG.rsp, SHA-256, no reseed, no personalization or
    // additional input, COUNT=0. The DRBG is instantiated with
    // entropy || nonce and generated from twice; CAVS compares the second
    // 1024-bit output.
    let entropy = unhex("ca851911349384bffe89de1cbdc46e6831e44d34a4fb935ee285dd14b71a7488");
    let nonce = unhex("659ba96c601dc69fc902940805ec0ca8");
    let mut seed = entropy;
    seed.extend_from_slice(&nonce);
    let mut drbg = HmacDrbg::new(&seed);
    let mut out = [0u8; 128];
    drbg.fill_bytes(&mut out);
    drbg.fill_bytes(&mut out);
    assert_eq!(
        hex(&out),
        concat!(
            "e528e9abf2dece54d47c7e75e5fe302149f817ea9fb4bee6f4199697d04d5b89",
            "d54fbb978a15b5c443c9ec21036d2460b6f73ebad0dc2aba6e624abf07745bc1",
            "07694bb7547bb0995f70de25d6b29e2d3011bb19d27676c07162c8b5ccde0668",
            "961df86803482cb37ed6d5c0bb8d50cf1f50d476aa0458bdaba806f48be9dcb8"
        )
    );
}
