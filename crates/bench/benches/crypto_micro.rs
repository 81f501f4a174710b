//! Microbenchmarks for the cryptographic substrate: the raw
//! symmetric-vs-asymmetric gap every Sharoes design decision leans on.
//!
//! `esign768` and `rsa2048` are the key sizes the workloads run at (CAP
//! signatures and user identity keys); `esign1026` and `rsa1024` keep the
//! older rows comparable. Every signature a row times is also verified, so
//! a wrong result fails the run.
//!
//! Runs under the in-tree `sharoes_testkit::bench` harness; see DESIGN.md
//! for the sampling model and the `SHAROES_BENCH_*` knobs.

use sharoes_crypto::montgomery::MontgomeryCtx;
use sharoes_crypto::prime::generate_prime;
use sharoes_crypto::{
    Aes128, BigUint, EsignPrivateKey, HmacDrbg, RandomSource, RsaPrivateKey, Sha256, SymKey,
};
use sharoes_testkit::bench::BenchRunner;
use std::hint::black_box;

fn bench_aes(c: &mut BenchRunner) {
    let mut rng = HmacDrbg::from_seed_u64(1);
    let key = SymKey::random(&mut rng);
    let aes = Aes128::new(&[7u8; 16]);

    let mut group = c.group("aes128");
    group.bench_function("block_encrypt", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            aes.encrypt_block(black_box(&mut block));
        })
    });
    for size in [600usize, 4096, 1 << 20] {
        let data = vec![0xABu8; size];
        group.throughput(size as u64);
        group.bench_function(format!("ctr_seal_{size}"), |b| {
            let mut rng = HmacDrbg::from_seed_u64(11);
            b.iter(|| key.seal(&mut rng, black_box(&data)))
        });
    }
    group.finish();
}

fn bench_hashes(c: &mut BenchRunner) {
    let data = vec![0x55u8; 1 << 20];
    let mut group = c.group("hash");
    group.throughput(data.len() as u64);
    group.bench_function("sha256_1MB", |b| b.iter(|| Sha256::digest(black_box(&data))));

    // A mid-sized bulk file's block ciphertexts (136 x (16 B IV + 4 KiB)),
    // hashed one at a time and as one batch.
    let blocks: Vec<Vec<u8>> = (0..136u32).map(|i| vec![i as u8; 4112]).collect();
    let refs: Vec<&[u8]> = blocks.iter().map(|b| &b[..]).collect();
    let one_at_a_time: Vec<[u8; 32]> = refs.iter().map(|b| Sha256::digest(b)).collect();
    assert_eq!(Sha256::digest_many(&refs), one_at_a_time, "batched digests must match");
    group.throughput(136 * 4112);
    group.bench_function("sha256_136x4112/one_at_a_time", |b| {
        b.iter(|| refs.iter().map(|b| Sha256::digest(black_box(b))).collect::<Vec<_>>())
    });
    group.bench_function("sha256_136x4112/digest_many", |b| {
        b.iter(|| Sha256::digest_many(black_box(&refs)))
    });
    group.finish();

    let key = [9u8; 16];
    c.bench_function("hmac_sha256_rowkey", |b| {
        b.iter(|| sharoes_crypto::hmac_sha256(black_box(&key), black_box(b"rowid:some-file-name")))
    });
    // One block IV draw.
    c.bench_function("drbg_fill16", |b| {
        let mut rng = HmacDrbg::from_seed_u64(5);
        let mut iv = [0u8; 16];
        b.iter(|| rng.fill_bytes(black_box(&mut iv)))
    });
}

fn bench_rsa(c: &mut BenchRunner, bits: usize) {
    let mut rng = HmacDrbg::from_seed_u64(2);
    let rsa = RsaPrivateKey::generate(bits, &mut rng).unwrap();
    let msg = vec![0xCDu8; 64];
    let ct = rsa.public_key().encrypt(&mut rng, &msg).unwrap();
    assert_eq!(rsa.decrypt(&ct).unwrap(), msg, "rsa{bits} decrypt must round-trip");
    let sig = rsa.sign(b"metadata");

    let mut group = c.group(&format!("rsa{bits}"));
    group.bench_function("encrypt", |b| {
        let mut rng = HmacDrbg::from_seed_u64(12);
        b.iter(|| rsa.public_key().encrypt(&mut rng, black_box(&msg)).unwrap())
    });
    group.bench_function("decrypt", |b| b.iter(|| rsa.decrypt(black_box(&ct)).unwrap()));
    group.bench_function("sign", |b| b.iter(|| rsa.sign(black_box(b"metadata"))));
    group.bench_function("verify", |b| {
        b.iter(|| rsa.public_key().verify(black_box(b"metadata"), black_box(&sig)).unwrap())
    });
    group.finish();
}

fn bench_esign(c: &mut BenchRunner, bits: usize) {
    let mut rng = HmacDrbg::from_seed_u64(3);
    let esign = EsignPrivateKey::generate(bits, &mut rng).unwrap();
    let sig = esign.sign(&mut rng, b"data block");
    let check = |sig: &[u8]| {
        esign.public_key().verify(b"data block", sig).expect("esign signature must verify")
    };
    check(&sig);

    let mut group = c.group(&format!("esign{bits}"));
    group.bench_function("sign", |b| {
        let mut rng = HmacDrbg::from_seed_u64(13);
        b.iter(|| esign.sign(&mut rng, black_box(b"data block")));
        check(&esign.sign(&mut rng, b"data block"));
    });
    group.bench_function("verify", |b| {
        b.iter(|| esign.public_key().verify(black_box(b"data block"), black_box(&sig)).unwrap())
    });
    group.finish();
}

/// The inverse mod `p` at the size of ESIGN-768's `p` (256 bits), the
/// single largest step of a signature.
fn bench_inverse(c: &mut BenchRunner) {
    let mut rng = HmacDrbg::from_seed_u64(4);
    let p = generate_prime(256, &mut rng).unwrap();
    let ctx = MontgomeryCtx::new(p.clone());
    let a = BigUint::random_below(&mut rng, &p);
    let inv = ctx.inverse(&a).expect("nonzero is invertible mod a prime");
    assert_eq!(Some(inv), a.mod_inv(&p), "inverse must match the Euclidean oracle");

    let mut group = c.group("esign768");
    group.bench_function("inverse_mod_p", |b| b.iter(|| ctx.inverse(black_box(&a))));
    group.finish();
}

fn main() {
    let mut c = BenchRunner::from_args("crypto_micro");
    bench_aes(&mut c);
    bench_hashes(&mut c);
    bench_rsa(&mut c, 1024);
    bench_rsa(&mut c, 2048);
    bench_esign(&mut c, 1026);
    bench_esign(&mut c, 768);
    bench_inverse(&mut c);
    c.finish();
}
