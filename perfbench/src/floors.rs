//! Per-layer floors: each primitive timed alone, at the sizes the
//! workloads use, so a layer's share of an op can be compared with what the
//! primitive costs by itself. Measured only in traced runs.

use crate::driver::LayerInfo;
use crate::gen::Rng;
use sharoes_crypto::{
    generate_signing_pair, modes::ctr_xor, HmacDrbg, RsaPrivateKey, Sha256, SignatureScheme, SymKey,
};
use sharoes_index::{verify_scan_page, MerkleIndex};
use sharoes_net::ObjectKey;
use std::time::Instant;

/// Floor measurements.
pub struct Floors {
    /// AES-128-CTR over 1 MiB.
    pub aes_ctr_mib_s: f64,
    /// SHA-256 over 1 MiB.
    pub sha256_mib_s: f64,
    /// ESIGN-768 sign, µs.
    pub esign_sign_us: f64,
    /// ESIGN-768 verify, µs.
    pub esign_verify_us: f64,
    /// ESIGN-768 key generation, ms.
    pub esign_keygen_ms: f64,
    /// RSA-2048 private-key operation (decrypt), µs.
    pub rsa_private_us: f64,
    /// `MerkleIndex::insert` at the workload's key count, µs.
    pub index_insert_us: f64,
    /// `MerkleIndex::remove`, µs.
    pub index_remove_us: f64,
    /// `MerkleIndex::prove_scan` of a 64-key page, µs.
    pub index_prove_us: f64,
    /// `verify_scan_page` of such a page, µs.
    pub index_verify_us: f64,
    /// Proof bytes per key on such pages.
    pub index_proof_bytes_per_key: f64,
}

/// Median of `reps` timings of `f`, in µs per call of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Keys in the index floors: data keys with pseudo-random inodes.
fn floor_key(rng: &mut Rng) -> ObjectKey {
    ObjectKey::data(rng.next_u64(), [0; 16], 0)
}

impl Floors {
    /// Measures every floor (about a second).
    pub fn measure(info: &LayerInfo) -> Floors {
        let mut drbg = HmacDrbg::from_seed_u64(0xF100);
        let mib = 1usize << 20;
        let mut buf = vec![0x5Au8; mib];
        let aes = SymKey::random(&mut drbg).cipher();
        let iv = [7u8; 16];
        let aes_us = median_us(7, || ctr_xor(&aes, &iv, &mut buf));
        let sha_us = median_us(7, || {
            std::hint::black_box(Sha256::digest(&buf));
        });

        let mut keygen = Vec::new();
        let mut pair = None;
        for _ in 0..9 {
            let t = Instant::now();
            let p = generate_signing_pair(SignatureScheme::Esign, 768, &mut drbg)
                .expect("ESIGN keygen");
            keygen.push(t.elapsed().as_secs_f64() * 1e3);
            pair = Some(p);
        }
        keygen.sort_by(|a, b| a.total_cmp(b));
        let (sk, vk) = pair.expect("generated above");
        let msg = [0x42u8; 256];
        let sig = sk.sign(&mut drbg, &msg);
        let sign_us = median_us(9, || {
            for _ in 0..50 {
                std::hint::black_box(sk.sign(&mut drbg, &msg));
            }
        }) / 50.0;
        let verify_us = median_us(9, || {
            for _ in 0..50 {
                vk.verify(&msg, &sig).expect("valid signature");
            }
        }) / 50.0;

        let rsa = info.rsa.clone().unwrap_or_else(|| {
            RsaPrivateKey::generate(2048, &mut HmacDrbg::from_seed_u64(0x25A)).expect("RSA keygen")
        });
        let ct = rsa.public_key().encrypt(&mut drbg, &[9u8; 32]).expect("RSA encrypt");
        let rsa_us = median_us(9, || {
            rsa.decrypt(&ct).expect("RSA decrypt");
        });

        let n = info.index_keys.max(64);
        let mut rng = Rng::new(0x1DE, 0);
        let mut index = MerkleIndex::from_keys((0..n).map(|_| floor_key(&mut rng)));
        index.root();
        // insert/remove alone are the incremental leaf updates; a page
        // proved right after a mutation also pays the lazy rebuild of the
        // upper levels, as a scan that follows a write does.
        let fresh: Vec<ObjectKey> = (0..100).map(|_| floor_key(&mut rng)).collect();
        let (mut ins, mut rem, mut prove, mut verify) = (vec![], vec![], vec![], vec![]);
        let (mut proof_bytes, mut proof_keys) = (0u64, 0u64);
        for k in &fresh {
            let t = Instant::now();
            index.insert(*k);
            ins.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let page = index.prove_scan(Some(k), 64);
            prove.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            verify_scan_page(&page.root, Some(k), 64, &page.keys, page.done, &page.proof)
                .expect("honest page verifies");
            verify.push(t.elapsed().as_secs_f64() * 1e6);
            proof_bytes += page.proof.len() as u64;
            proof_keys += page.keys.len() as u64;
            let t = Instant::now();
            index.remove(k);
            rem.push(t.elapsed().as_secs_f64() * 1e6);
        }
        ins.sort_by(|a, b| a.total_cmp(b));
        rem.sort_by(|a, b| a.total_cmp(b));
        prove.sort_by(|a, b| a.total_cmp(b));
        verify.sort_by(|a, b| a.total_cmp(b));

        Floors {
            aes_ctr_mib_s: 1e6 / aes_us,
            sha256_mib_s: 1e6 / sha_us,
            esign_sign_us: sign_us,
            esign_verify_us: verify_us,
            esign_keygen_ms: keygen[keygen.len() / 2],
            rsa_private_us: rsa_us,
            index_insert_us: ins[ins.len() / 2],
            index_remove_us: rem[rem.len() / 2],
            index_prove_us: prove[prove.len() / 2],
            index_verify_us: verify[verify.len() / 2],
            index_proof_bytes_per_key: proof_bytes as f64 / proof_keys.max(1) as f64,
        }
    }
}
