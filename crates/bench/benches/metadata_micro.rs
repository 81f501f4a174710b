//! Microbenchmarks for metadata-object and directory-table handling: the
//! inner loops of getattr, mkdir, and exec-only traversal. Runs under the
//! in-tree `sharoes_testkit::bench` harness.

use sharoes_core::dirtable::{ChildRef, DirTable};
use sharoes_core::metadata::{open_metadata, seal_metadata, MetaOpen, MetaSeal, MetadataBody};
use sharoes_crypto::{
    generate_signing_pair, HmacDrbg, RsaPrivateKey, SignatureScheme, SymKey, VerifyKey,
};
use sharoes_fs::NodeKind;
use sharoes_net::{WireRead, WireWrite};
use sharoes_testkit::bench::BenchRunner;
use std::hint::black_box;
use std::sync::OnceLock;

fn sample_body() -> MetadataBody {
    let mut body = MetadataBody::bare(42, NodeKind::File, 1000, 100, 0o644);
    body.size = 8192;
    body.nblocks = 2;
    body.dek = Some(SymKey([7; 16]));
    body
}

/// `n` file rows, each carrying the same ESIGN-768 MVK, as a workload
/// directory's rows do.
fn sample_entries(n: usize) -> Vec<(String, ChildRef)> {
    static MVK: OnceLock<VerifyKey> = OnceLock::new();
    let mvk = MVK.get_or_init(|| {
        let mut rng = HmacDrbg::from_seed_u64(3);
        generate_signing_pair(SignatureScheme::Esign, 768, &mut rng).unwrap().1
    });
    (0..n)
        .map(|i| {
            (
                format!("file{i:04}.dat"),
                ChildRef {
                    inode: 1000 + i as u64,
                    kind: NodeKind::File,
                    view: [i as u8; 16],
                    mek: Some(SymKey([1; 16])),
                    mvk: Some(mvk.clone()),
                    split: false,
                },
            )
        })
        .collect()
}

fn bench_metadata_seal(c: &mut BenchRunner) {
    let mut rng = HmacDrbg::from_seed_u64(1);
    let body_bytes = sample_body().to_wire();
    let mek = SymKey([3; 16]);
    let rsa = RsaPrivateKey::generate(1024, &mut rng).unwrap();

    let mut group = c.group("metadata_seal");
    group.bench_function("sharoes_sym", |b| {
        let mut rng = HmacDrbg::from_seed_u64(21);
        b.iter(|| seal_metadata(MetaSeal::Sym(&mek), black_box(&body_bytes), &mut rng).unwrap())
    });
    group.bench_function("public_rsa", |b| {
        let mut rng = HmacDrbg::from_seed_u64(22);
        b.iter(|| {
            seal_metadata(MetaSeal::Public(rsa.public_key()), black_box(&body_bytes), &mut rng)
                .unwrap()
        })
    });
    group.bench_function("pubopt_hybrid", |b| {
        let mut rng = HmacDrbg::from_seed_u64(23);
        b.iter(|| {
            seal_metadata(MetaSeal::PubOpt(rsa.public_key()), black_box(&body_bytes), &mut rng)
                .unwrap()
        })
    });
    group.finish();

    // The getattr inner loop: open per policy.
    let sym_blob = seal_metadata(MetaSeal::Sym(&mek), &body_bytes, &mut rng).unwrap();
    let public_blob =
        seal_metadata(MetaSeal::Public(rsa.public_key()), &body_bytes, &mut rng).unwrap();
    let pubopt_blob =
        seal_metadata(MetaSeal::PubOpt(rsa.public_key()), &body_bytes, &mut rng).unwrap();
    let mut group = c.group("metadata_open");
    group.bench_function("sharoes_sym", |b| {
        b.iter(|| open_metadata(MetaOpen::Sym(&mek), black_box(&sym_blob)).unwrap())
    });
    group.bench_function("public_rsa", |b| {
        b.iter(|| open_metadata(MetaOpen::Public(&rsa), black_box(&public_blob)).unwrap())
    });
    group.bench_function("pubopt_hybrid", |b| {
        b.iter(|| open_metadata(MetaOpen::PubOpt(&rsa), black_box(&pubopt_blob)).unwrap())
    });
    group.finish();
}

fn bench_dirtable(c: &mut BenchRunner) {
    let mut rng = HmacDrbg::from_seed_u64(2);
    let tek = SymKey([5; 16]);
    let entries = sample_entries(100);

    let mut group = c.group("dirtable_100_entries");
    group.bench_function("build_full", |b| b.iter(|| DirTable::full(black_box(&entries))));
    group.bench_function("build_exec_only", |b| {
        let mut rng = HmacDrbg::from_seed_u64(24);
        b.iter(|| DirTable::exec_only(black_box(&entries), &tek, &mut rng))
    });

    let full = DirTable::full(&entries);
    let hidden = DirTable::exec_only(&entries, &tek, &mut rng);
    group.bench_function("lookup_full", |b| {
        b.iter(|| full.lookup(black_box("file0077.dat"), None).unwrap().unwrap())
    });
    group.bench_function("lookup_exec_only", |b| {
        b.iter(|| hidden.lookup(black_box("file0077.dat"), Some(&tek)).unwrap().unwrap())
    });
    group.bench_function("codec_roundtrip", |b| {
        b.iter(|| {
            let bytes = full.to_wire();
            DirTable::from_wire(black_box(&bytes)).unwrap()
        })
    });
    // A parent-table edit as a create or unlink makes it: a copy of the
    // cached table with one row appended or cut out. Each edit must equal
    // a rebuild of the edited entries.
    let more = sample_entries(101);
    let (name, child) = &more[100];
    let mut inserted = full.clone();
    inserted.push_full(name, child);
    assert_eq!(inserted, DirTable::full(&more), "insert_row != rebuild");
    let mut removed = full.clone();
    removed.remove("file0050.dat");
    let fewer: Vec<_> = entries.iter().filter(|(n, _)| n != "file0050.dat").cloned().collect();
    assert_eq!(removed, DirTable::full(&fewer), "remove_row != rebuild");
    group.bench_function("insert_row", |b| {
        b.iter(|| {
            let mut edited = full.clone();
            edited.push_full(black_box(name), child);
            edited
        })
    });
    group.bench_function("remove_row", |b| {
        b.iter(|| {
            let mut edited = full.clone();
            edited.remove(black_box("file0050.dat"));
            edited
        })
    });
    let bytes = full.to_wire();
    group.bench_function("open", |b| b.iter(|| DirTable::from_wire(black_box(&bytes)).unwrap()));
    group.finish();
}

fn bench_body_codec(c: &mut BenchRunner) {
    let body = sample_body();
    c.bench_function("metadata_body_codec", |b| {
        b.iter(|| {
            let encoded = body.to_wire();
            MetadataBody::from_wire(black_box(&encoded)).unwrap()
        })
    });
}

fn main() {
    let mut c = BenchRunner::from_args("metadata_micro");
    bench_metadata_seal(&mut c);
    bench_dirtable(&mut c);
    bench_body_codec(&mut c);
    c.finish();
}
