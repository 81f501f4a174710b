//! Property-based tests for AES modes, HMAC, and sealed-blob behaviour.

use sharoes_crypto::aes::Aes128;
use sharoes_crypto::hmac::hmac_sha256;
use sharoes_crypto::modes::{ctr_open, ctr_seal};
use sharoes_crypto::sha256::Sha256;
use sharoes_crypto::SymKey;
use sharoes_testkit::prelude::*;

prop! {
    #![cases(128)]

    fn ctr_roundtrip(
        key in gen::byte_arrays::<16>(),
        pt in gen::vecs(gen::u8s(), 0..2048),
        seed in gen::u64s(),
    ) {
        let aes = Aes128::new(&key);
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let blob = ctr_seal(&aes, &mut rng, &pt);
        prop_assert_eq!(ctr_open(&aes, &blob).unwrap(), pt);
    }

    fn ciphertext_differs_from_plaintext(
        key in gen::byte_arrays::<16>(),
        pt in gen::vecs(gen::u8s(), 16..256),
        seed in gen::u64s(),
    ) {
        let aes = Aes128::new(&key);
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let blob = ctr_seal(&aes, &mut rng, &pt);
        prop_assert_ne!(&blob[16..], &pt[..]);
    }

    fn fresh_ivs_give_distinct_ciphertexts(
        key in gen::byte_arrays::<16>(),
        pt in gen::vecs(gen::u8s(), 1..128),
        seed in gen::u64s(),
    ) {
        let aes = Aes128::new(&key);
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let b1 = ctr_seal(&aes, &mut rng, &pt);
        let b2 = ctr_seal(&aes, &mut rng, &pt);
        prop_assert_ne!(b1, b2);
    }

    fn hmac_is_deterministic_and_key_sensitive(
        key in gen::vecs(gen::u8s(), 0..100),
        msg in gen::vecs(gen::u8s(), 0..500),
    ) {
        let a = hmac_sha256(&key, &msg);
        let b = hmac_sha256(&key, &msg);
        prop_assert_eq!(a, b);
        let mut key2 = key.clone();
        key2.push(0xFF);
        prop_assert_ne!(hmac_sha256(&key2, &msg), a);
    }

    fn digest_split_invariance(data in gen::vecs(gen::u8s(), 0..1000), split in gen::indices()) {
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize_array(), Sha256::digest(&data));
    }

    fn symkey_derive_injective_on_labels(
        parent in gen::byte_arrays::<16>(),
        a in gen::string_of(gen::LOWER, 1..21),
        b in gen::string_of(gen::LOWER, 1..21),
    ) {
        prop_assume!(a != b);
        let parent = SymKey(parent);
        prop_assert_ne!(SymKey::derive(&parent, a.as_bytes()), SymKey::derive(&parent, b.as_bytes()));
    }
}
