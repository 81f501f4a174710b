//! `paper-figures` — regenerates every table and figure from the Sharoes
//! ICDE 2008 evaluation.
//!
//! ```text
//! paper-figures [OPTIONS] <fig9|fig10|fig11|fig12|fig13|storage|ablations|summary|all>
//!
//! Options:
//!   --users <N>       enterprise users (default 4)
//!   --quick           shrink workloads ~10x for a fast smoke run
//! ```
//!
//! Numbers are *virtual seconds*: network time modeled on the paper's DSL
//! link plus the client's counted crypto work, priced from one fixed table
//! (`sharoes_bench::harness::price`). Figures 9-13, storage and the
//! ablations are a function of their seed alone and print the same on any
//! host (`index` and `concurrency` time real runs). Absolute values will not match 2008
//! hardware; the orderings and rough factors should (see EXPERIMENTS.md).

use sharoes_bench::harness::{
    all_policies, crypto_secs, fmt_secs, four_policies, quantile_lines, BenchOpts, Table,
};
use sharoes_bench::workloads::{
    ablations, andrew, createlist, enterprise, opcosts, postmark, storage,
};
use sharoes_core::{CryptoPolicy, Scheme};
use sharoes_testkit::enterprise::{Enterprise, Scale};

struct Args {
    command: String,
    opts: BenchOpts,
    quick: bool,
}

fn parse_args() -> Args {
    let mut opts = BenchOpts::default();
    let mut command = String::new();
    let mut quick = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--users" => {
                i += 1;
                opts.users = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--users needs a number"));
            }
            "--quick" => quick = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            cmd if command.is_empty() && !cmd.starts_with('-') => command = cmd.to_string(),
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if command.is_empty() {
        print_help();
        std::process::exit(2);
    }
    Args { command, opts, quick }
}

fn die(msg: &str) -> ! {
    eprintln!("paper-figures: {msg}");
    std::process::exit(2);
}

fn print_help() {
    println!(
        "paper-figures — regenerate the Sharoes ICDE 2008 evaluation\n\n\
         USAGE: paper-figures [--users N] [--quick] <COMMAND>\n\n\
         COMMANDS:\n\
         \x20 fig9       Create-and-List microbenchmark (Figure 9)\n\
         \x20 fig10      Postmark with cache-size sweep (Figure 10)\n\
         \x20 fig11      Andrew benchmark phases (Figure 11)\n\
         \x20 fig12      Andrew cumulative table (Figure 12)\n\
         \x20 fig13      Filesystem operation cost breakdown (Figure 13)\n\
         \x20 storage    Scheme-1/2 storage overhead (§III-D.1, E6)\n\
         \x20 ablations  A1 scheme fan-out, A2 revocation, A3 ESIGN vs RSA, A4 net sweep, A5 fault overhead\n\
         \x20 enterprise revocation storms, rotation lifecycle, Scheme-1/2 crossover\n\
         \x20            (population size via SHAROES_SCALE=small|medium|large|million;\n\
         \x20            writes BENCH_enterprise.json; --quick: target/)\n\
         \x20 index      authenticated-index ablation: flat vs indexed scans, proof\n\
         \x20            overhead at several keyspace sizes, mutate-one-key-then-prove\n\
         \x20            vs rebuild (writes BENCH_index.json; --quick: target/)\n\
         \x20 concurrency contention benchmark: blocking vs batched clients (one\n\
         \x20            connection per thread) against one sspd plus a 3-node\n\
         \x20            cluster sweep; fails if\n\
         \x20            multi-threaded speedup < 2x (writes BENCH_concurrency.json;\n\
         \x20            --quick: target/)\n\
         \x20 summary    headline speedups (E7)\n\
         \x20 all        everything above"
    );
}

fn fig9(opts: &BenchOpts, quick: bool) -> Vec<createlist::CreateListResult> {
    let spec = if quick {
        createlist::CreateListSpec { files: 50, dirs: 5 }
    } else {
        createlist::CreateListSpec::default()
    };
    println!(
        "\n== Figure 9: Create-and-List ({} files in {} dirs; per-impl seconds) ==",
        spec.files, spec.dirs
    );
    let mut table = Table::new(&["implementation", "CREATE", "LIST"]);
    let mut results = Vec::new();
    for policy in all_policies() {
        let r = createlist::run(policy, &spec, opts);
        table.row(vec![policy.name().to_string(), fmt_secs(r.create_secs), fmt_secs(r.list_secs)]);
        results.push(r);
    }
    table.print();
    println!("paper: CREATE 121/127/131/245/159  LIST 60/63/60/2253/196");
    results
}

fn fig10(opts: &BenchOpts, quick: bool) {
    let spec = if quick {
        postmark::PostmarkSpec { files: 50, transactions: 50, ..Default::default() }
    } else {
        postmark::PostmarkSpec::default()
    };
    println!(
        "\n== Figure 10: Postmark ({} files, {} transactions; seconds by cache size) ==",
        spec.files, spec.transactions
    );
    let mut headers: Vec<String> = vec!["cache %".into()];
    for policy in four_policies() {
        headers.push(policy.name().into());
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    for pct in postmark::sweep_points() {
        let mut row = vec![format!("{pct}")];
        for policy in four_policies() {
            let point = postmark::run_point(policy, &spec, pct, opts);
            row.push(fmt_secs(point.secs));
        }
        table.row(row);
    }
    table.print();
    println!("paper shape: PUB-OPT competitive only near 100% cache; +64% vs NO-ENC-MD-D at 10%");
}

fn fig11(opts: &BenchOpts, quick: bool) -> Vec<andrew::AndrewResult> {
    let spec = if quick {
        andrew::AndrewSpec { dirs: 6, files: 10, file_size: 2000 }
    } else {
        andrew::AndrewSpec::default()
    };
    println!(
        "\n== Figure 11: Andrew benchmark ({} dirs, {} files; seconds per phase) ==",
        spec.dirs, spec.files
    );
    let mut table =
        Table::new(&["implementation", "P1 mkdir", "P2 copy", "P3 stat", "P4 read", "P5 compile"]);
    let mut results = Vec::new();
    for policy in four_policies() {
        let r = andrew::run(policy, &spec, opts);
        let mut row = vec![policy.name().to_string()];
        for p in r.phases {
            row.push(fmt_secs(p));
        }
        table.row(row);
        results.push(r);
    }
    table.print();
    results
}

fn fig12(results: &[andrew::AndrewResult]) {
    println!("\n== Figure 12: Andrew cumulative ==");
    let baseline = results
        .iter()
        .find(|r| r.policy == CryptoPolicy::NoEncMdD)
        .map(|r| r.total())
        .unwrap_or(0.0);
    let mut table = Table::new(&["scheme", "time (s)", "overheads"]);
    for r in results {
        let overhead = if baseline > 0.0 && r.policy != CryptoPolicy::NoEncMdD {
            format!("{:.1}%", (r.total() / baseline - 1.0) * 100.0)
        } else {
            "-".to_string()
        };
        table.row(vec![r.policy.name().to_string(), fmt_secs(r.total()), overhead]);
    }
    table.print();
    println!("paper: 239s -, 248s 3.7%, 266s 11%, 384s 60%");
}

fn fig13(opts: &BenchOpts, quick: bool) {
    let reps = if quick { 2 } else { 5 };
    println!("\n== Figure 13: SHAROES operation costs (ms; NETWORK / CRYPTO) ==");
    let costs = opcosts::run(CryptoPolicy::Sharoes, reps, opts);
    let mut table = Table::new(&["op", "NETWORK", "CRYPTO", "total", "crypto %"]);
    for c in &costs {
        table.row(vec![
            c.label.to_string(),
            format!("{:.1}", c.network * 1e3),
            format!("{:.1}", c.crypto * 1e3),
            format!("{:.1}", c.total() * 1e3),
            format!("{:.1}%", c.crypto_share() * 100.0),
        ]);
    }
    table.print();
    println!("paper: CRYPTO < 7% of every operation; mkdir:--x > mkdir:rwx; network dominates");
}

fn storage_report(opts: &BenchOpts, quick: bool) {
    let files_per_dir = if quick { 2 } else { 5 };
    println!("\n== E6: storage overhead (Scheme-1 vs Scheme-2) ==");
    let mut table = Table::new(&[
        "scheme",
        "users",
        "objects",
        "md bytes",
        "md/object",
        "$ / user-month @1M files",
    ]);
    for scheme in [Scheme::SharedCaps, Scheme::PerUser] {
        let r = storage::run(scheme, opts.users, files_per_dir, opts);
        table.row(vec![
            format!("{:?}", r.scheme),
            r.users.to_string(),
            r.objects.to_string(),
            r.metadata_bytes.to_string(),
            format!("{:.0}", r.metadata_per_object()),
            format!("${:.2}", r.dollars_per_user_month(1_000_000)),
        ]);
    }
    table.print();
    println!("paper: Scheme-1 ~ $0.60 per user per month at 1M files (S3 2008 pricing)");
}

fn ablations_report(opts: &BenchOpts, quick: bool) {
    let n = if quick { 10 } else { 50 };
    println!("\n== A1: Scheme-1 vs Scheme-2 ({n} creates, {} users) ==", opts.users);
    let mut table = Table::new(&["scheme", "create (s)", "stat (s)", "SSP bytes"]);
    for r in ablations::scheme_comparison(n, opts.users, opts) {
        table.row(vec![
            format!("{:?}", r.scheme),
            fmt_secs(r.create_secs),
            fmt_secs(r.stat_secs),
            r.ssp_bytes.to_string(),
        ]);
    }
    table.print();

    println!("\n== A2: immediate vs lazy revocation (seconds) ==");
    let sizes: &[usize] = if quick { &[4096, 65536] } else { &[4096, 65536, 1 << 20] };
    let mut table =
        Table::new(&["file size", "imm chmod", "lazy chmod", "imm write", "lazy write"]);
    for r in ablations::revocation_costs(sizes, opts) {
        table.row(vec![
            r.file_size.to_string(),
            fmt_secs(r.immediate_chmod),
            fmt_secs(r.lazy_chmod),
            fmt_secs(r.immediate_write),
            fmt_secs(r.lazy_write),
        ]);
    }
    table.print();

    println!("\n== A3: ESIGN vs RSA signing keys ({} creates incl. keygen) ==", n.min(20));
    let mut table = Table::new(&["scheme", "create (s)", "crypto (s)", "keygens"]);
    for r in ablations::signing_comparison(n.min(20), opts) {
        table.row(vec![
            format!("{:?}", r.scheme),
            fmt_secs(r.create_secs),
            fmt_secs(crypto_secs(&r.work)),
            (r.work.esign_keygen + r.work.rsa_keygen).to_string(),
        ]);
    }
    table.print();
    println!("paper (footnote 3): ESIGN is over an order of magnitude faster than RSA");

    println!("\n== A4: network sweep (list-phase seconds, SHAROES vs PUB-OPT) ==");
    let files = if quick { 20 } else { 100 };
    let mut table = Table::new(&["link", "SHAROES", "PUB-OPT", "ratio"]);
    for p in ablations::net_sweep(files, opts) {
        table.row(vec![
            p.link.to_string(),
            fmt_secs(p.sharoes),
            fmt_secs(p.pubopt),
            format!("{:.1}x", p.pubopt / p.sharoes),
        ]);
    }
    table.print();

    println!("\n== A5: transport retry overhead vs injected fault rate ==");
    let ops = if quick { 4 } else { 12 };
    let mut table = Table::new(&["fault rate", "round trips", "retries", "reconnects", "faults"]);
    for p in ablations::fault_overhead(ops, &[0.0, 0.05, 0.20], opts) {
        table.row(vec![
            format!("{:.0}%", p.rate * 100.0),
            p.round_trips.to_string(),
            p.retries.to_string(),
            p.reconnects.to_string(),
            p.faults_injected.to_string(),
        ]);
    }
    table.print();
    println!("workload completes at every rate; the deltas are pure retry traffic");

    println!("\n== A6: cluster cost/availability vs N, R, per-node fault rate ==");
    let blobs = if quick { 8 } else { 40 };
    let points: &[(usize, usize, f64)] = if quick {
        &[(3, 1, 0.0), (3, 2, 0.0), (3, 2, 0.15)]
    } else {
        &[(3, 1, 0.0), (3, 2, 0.0), (3, 2, 0.15), (5, 3, 0.0), (5, 3, 0.15)]
    };
    let mut table = Table::new(&[
        "N",
        "R",
        "fault rate",
        "avail",
        "round trips",
        "retries",
        "failovers",
        "repairs",
        "op (s)",
    ]);
    for p in ablations::cluster_ablation(blobs, points, opts) {
        table.row(vec![
            p.nodes.to_string(),
            p.replication.to_string(),
            format!("{:.0}%", p.rate * 100.0),
            format!("{:.1}%", p.availability() * 100.0),
            p.round_trips.to_string(),
            p.retries.to_string(),
            p.failovers.to_string(),
            p.read_repairs.to_string(),
            fmt_secs(p.op_secs),
        ]);
    }
    table.print();
    println!("replication buys availability under faults; the price is write fan-out");
}

/// Writes the `BENCH_*.json` file `name`. The committed file is the
/// full-size run, so a quick run goes under `target/` and never overwrites
/// it at another spec.
fn write_bench_json(quick: bool, name: &str, json: &str) {
    let out = if quick {
        std::fs::create_dir_all("target").unwrap_or_else(|e| die(&format!("target/: {e}")));
        format!("target/{name}")
    } else {
        name.to_string()
    };
    std::fs::write(&out, json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    println!("wrote {out}");
}

/// Minimal JSON string escaping for the trajectory file.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn enterprise_report(opts: &BenchOpts, quick: bool) {
    let obs_start = sharoes_obs::global().snapshot();
    let scale = Scale::from_env();
    let spec = scale.spec(opts.seed);
    println!(
        "\n== Enterprise population ({scale:?}: {} users, {} groups, {} files, {} ops = {} entities) ==",
        spec.users,
        spec.groups,
        spec.files,
        spec.ops,
        spec.entities()
    );
    let ent = Enterprise::generate(&spec);
    let fingerprint = ent.fingerprint();
    println!("graph fingerprint: {fingerprint}  (seed {:#x})", spec.seed);
    println!(
        "shape: max group {} members, {} membership edges, top owner {} files, \
         {} shared files / {} ACL grants",
        ent.stats.max_group_size,
        ent.stats.membership_edges,
        ent.stats.max_files_per_owner,
        ent.stats.shared_files,
        ent.stats.acl_entries
    );

    println!("\n== Revocation storm: immediate vs lazy across sharing density ==");
    let densities: &[usize] = if quick { &[1, 4] } else { &[1, 4, 16] };
    let (files, size) = if quick { (3, 4096) } else { (6, 16384) };
    let storm = enterprise::revocation_storm(densities, files, size, opts);
    let mut table =
        Table::new(&["density", "mode", "chmod bytes↑", "write bytes↑", "chmod (s)", "write (s)"]);
    for p in &storm {
        table.row(vec![
            p.density.to_string(),
            format!("{:?}", p.mode),
            p.chmod_bytes_up.to_string(),
            p.next_write_bytes_up.to_string(),
            fmt_secs(p.chmod_secs),
            fmt_secs(p.next_write_secs),
        ]);
    }
    table.print();
    println!(
        "immediate pays during the storm; lazy defers the debt to the next write\n\
         (Scheme-2 mount: storm cost is flat in density — the crossover table below\n\
         shows Scheme-1 growing instead)"
    );

    match scale {
        Scale::Small | Scale::Medium => {
            println!("\n== Group-membership churn (revocation oracles) ==");
            let events = if quick { 2 } else { 4 };
            let churn = enterprise::membership_churn(&ent, opts, events);
            println!(
                "{} revocations: {} denied post-revocation, {} stale-reader leaks, \
                 {} surviving grants verified",
                churn.revocations,
                churn.denied_after_revocation,
                churn.stale_reader_leaks,
                churn.grants_verified
            );
            assert_eq!(churn.stale_reader_leaks, 0, "churn oracle violated");
        }
        Scale::Large | Scale::Million => {
            println!("\n(churn driver skipped at {scale:?} scale: graph-only, no materialization)");
        }
    }

    println!("\n== Key-rotation lifecycle (DESIGN.md §10) ==");
    let rotation = enterprise::rotation_lifecycle(opts);
    println!(
        "generations {:?}, KEK v{} -> v{}: content survives: {}, old escrow opens: {}, \
         pre-rotation snapshot locked out: {}, old DEK rejected on new block: {}, \
         new DEK opens: {}",
        rotation.generations,
        rotation.kek_versions.0,
        rotation.kek_versions.1,
        rotation.old_read_ok,
        rotation.old_escrow_ok,
        rotation.snapshot_locked_out,
        rotation.old_dek_rejected,
        rotation.new_dek_opens
    );
    assert!(rotation.all_hold(), "rotation lifecycle oracle violated");

    println!("\n== Scheme-1 vs Scheme-2 crossover vs sharing density ==");
    let xdensities: &[usize] = if quick { &[1, 4, 8] } else { &[1, 2, 4, 8, 16] };
    let xfiles = if quick { 3 } else { 6 };
    let crossover = enterprise::crossover_ablation(xdensities, xfiles, opts);
    let mut table = Table::new(&[
        "density",
        "S1 create↑",
        "S2 create↑",
        "S1 revoke↑",
        "S2 revoke↑",
        "S1 md bytes",
        "S2 md bytes",
    ]);
    for p in &crossover {
        table.row(vec![
            p.density.to_string(),
            p.per_user_create_bytes.to_string(),
            p.shared_create_bytes.to_string(),
            p.per_user_revoke_bytes.to_string(),
            p.shared_revoke_bytes.to_string(),
            p.per_user_md_bytes.to_string(),
            p.shared_md_bytes.to_string(),
        ]);
    }
    table.print();
    match enterprise::crossover_density(&crossover) {
        Some(d) => println!("crossover: shared CAPs win from density {d} up"),
        None => println!("crossover: not reached in the measured densities"),
    }

    // Registry totals for this run — same process-wide registry as
    // `sharoes-cli stats`, deterministic in this single-threaded binary.
    let delta = sharoes_obs::global().snapshot().delta(&obs_start);
    println!("\n== enterprise registry totals (sharoes-obs, this run) ==");
    println!("core_degraded_entries_total {}", delta.get("core_degraded_entries_total"));
    let quants = quantile_lines(&delta);
    if !quants.is_empty() {
        println!("\n== enterprise latency quantiles (this run's delta) ==");
        for line in quants {
            println!("{line}");
        }
    }

    // The trajectory point: first enterprise measurement in the repo.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"benchmark\": {},\n", json_str("enterprise")));
    json.push_str(&format!("  \"scale\": {},\n", json_str(&format!("{scale:?}"))));
    json.push_str(&format!("  \"seed\": {},\n", spec.seed));
    json.push_str(&format!("  \"entities\": {},\n", spec.entities()));
    json.push_str(&format!("  \"graph_fingerprint\": {},\n", json_str(&fingerprint)));
    json.push_str("  \"revocation_storm\": [\n");
    for (i, p) in storm.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"density\": {}, \"mode\": {}, \"files\": {}, \"chmod_bytes_up\": {}, \
             \"next_write_bytes_up\": {}}}{}\n",
            p.density,
            json_str(&format!("{:?}", p.mode)),
            p.files,
            p.chmod_bytes_up,
            p.next_write_bytes_up,
            if i + 1 < storm.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"crossover\": [\n");
    for (i, p) in crossover.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"density\": {}, \"per_user_create_bytes\": {}, \"shared_create_bytes\": {}, \
             \"per_user_revoke_bytes\": {}, \"shared_revoke_bytes\": {}, \
             \"per_user_md_bytes\": {}, \"shared_md_bytes\": {}}}{}\n",
            p.density,
            p.per_user_create_bytes,
            p.shared_create_bytes,
            p.per_user_revoke_bytes,
            p.shared_revoke_bytes,
            p.per_user_md_bytes,
            p.shared_md_bytes,
            if i + 1 < crossover.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"crossover_density\": {}\n",
        match enterprise::crossover_density(&crossover) {
            Some(d) => d.to_string(),
            None => "null".to_string(),
        }
    ));
    json.push_str("}\n");
    println!();
    write_bench_json(quick, "BENCH_enterprise.json", &json);
}

/// Interleaved repeats behind each scan column of the index ablation.
const INDEX_REPEATS: usize = 7;

/// One keyspace size of the index ablation: each scan column's median and
/// interquartile range in nanoseconds, plus the verified walk's bytes.
struct IndexPoint {
    keys: usize,
    flat_ns: u64,
    flat_iqr: u64,
    idx_ns: u64,
    idx_iqr: u64,
    verified_ns: u64,
    verified_iqr: u64,
    proof_bytes: u64,
    key_bytes: u64,
}

/// The median of `samples` and their interquartile range.
fn median_iqr(mut samples: Vec<u64>) -> (u64, u64) {
    samples.sort_unstable();
    let n = samples.len();
    (samples[n / 2], samples[3 * n / 4] - samples[n / 4])
}

/// Half an interquartile range as a percentage of its median.
fn spread_pct(median: u64, iqr: u64) -> f64 {
    iqr as f64 / 2.0 / median.max(1) as f64 * 100.0
}

/// Authenticated-index ablation: at several keyspace sizes, compares the
/// flat-sort scan (the pre-index O(n log n)-per-page path, kept as a debug
/// oracle) with the Merkle-index scan, and measures the verified-scan
/// proof overhead (bytes shipped and client verify time); then, at 8k (and
/// in full mode 64k) keys, the cost of mutating one key and proving a page
/// against rebuilding the tree and proving. Each scan column is the median
/// of [`INDEX_REPEATS`] interleaved walks. Writes `BENCH_index.json` (a
/// quick run: `target/BENCH_index.json`).
fn index_report(_opts: &BenchOpts, quick: bool) {
    use sharoes_crypto::RandomSource;
    use sharoes_net::ObjectKey;
    use sharoes_ssp::ObjectStore;

    let sizes: &[usize] = if quick { &[200, 800, 2000] } else { &[500, 2000, 8000] };
    let page = 64usize;
    println!("\n== INDEX: authenticated ordered index ablation (page {page}) ==");
    let mut table = Table::new(&[
        "keys",
        "flat scan (ms)",
        "indexed (ms)",
        "speedup",
        "proof+verify (ms)",
        "proof B/page",
        "proof overhead",
    ]);
    let mut points: Vec<IndexPoint> = Vec::new();
    for &n in sizes {
        let store = ObjectStore::new();
        let mut rng = sharoes_crypto::HmacDrbg::from_seed_u64(0x1DE0 ^ n as u64);
        for i in 0..n {
            let mut view = [0u8; 16];
            for b in view.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            store.put(ObjectKey::data(rng.next_u64(), view, i as u32), vec![0u8; 32]).unwrap();
        }

        type ScanFn<'a> = &'a dyn Fn(Option<&ObjectKey>, usize) -> (Vec<ObjectKey>, bool);
        let walk = |f: ScanFn| -> (u64, usize) {
            let t0 = std::time::Instant::now();
            let mut after: Option<ObjectKey> = None;
            let mut total = 0usize;
            loop {
                let (keys, done) = f(after.as_ref(), page);
                total += keys.len();
                after = keys.last().copied().or(after);
                if done {
                    return (t0.elapsed().as_nanos() as u64, total);
                }
            }
        };
        // Verified walk: server-side proof generation + client-side verify.
        let verified_walk = || -> (u64, u64, u64) {
            let t0 = std::time::Instant::now();
            let mut after: Option<ObjectKey> = None;
            let mut proof_bytes = 0u64;
            let mut pages = 0u64;
            loop {
                let p = store.scan_proof(after.as_ref(), page as u32);
                sharoes_index::verify_scan_page(
                    &p.root,
                    after.as_ref(),
                    page as u32,
                    &p.keys,
                    p.done,
                    &p.proof,
                )
                .expect("honest store page must verify");
                proof_bytes += p.proof.len() as u64;
                pages += 1;
                after = p.keys.last().copied().or(after);
                if p.done {
                    return (t0.elapsed().as_nanos() as u64, proof_bytes, pages);
                }
            }
        };
        // One walk is too noisy to compare: time the three walks in turn,
        // INDEX_REPEATS times, and take each column's median.
        let (mut flat, mut idx, mut verified) = (Vec::new(), Vec::new(), Vec::new());
        let (mut idx_total, mut proof_bytes, mut pages) = (0, 0, 0);
        for _ in 0..INDEX_REPEATS {
            let (flat_ns, flat_total) = walk(&|a, l| store.scan_keys_flat(a, l));
            let (idx_ns, total) = walk(&|a, l| store.scan_keys(a, l));
            assert_eq!(flat_total, total, "flat and indexed walks disagree");
            let (verified_ns, bytes, n_pages) = verified_walk();
            flat.push(flat_ns);
            idx.push(idx_ns);
            verified.push(verified_ns);
            (idx_total, proof_bytes, pages) = (total, bytes, n_pages);
        }
        let (flat_ns, flat_iqr) = median_iqr(flat);
        let (idx_ns, idx_iqr) = median_iqr(idx);
        let (verified_ns, verified_iqr) = median_iqr(verified);
        let key_bytes = (idx_total * 29) as u64; // 29-byte wire key
        let with_spread =
            |ns: u64, iqr: u64| format!("{:.3} +/-{:.0}%", ns as f64 / 1e6, spread_pct(ns, iqr));
        table.row(vec![
            n.to_string(),
            with_spread(flat_ns, flat_iqr),
            with_spread(idx_ns, idx_iqr),
            format!("{:.1}x", flat_ns as f64 / idx_ns.max(1) as f64),
            with_spread(verified_ns, verified_iqr),
            (proof_bytes / pages.max(1)).to_string(),
            format!("{:.1}%", proof_bytes as f64 / key_bytes.max(1) as f64 * 100.0),
        ]);
        points.push(IndexPoint {
            keys: n,
            flat_ns,
            flat_iqr,
            idx_ns,
            idx_iqr,
            verified_ns,
            verified_iqr,
            proof_bytes,
            key_bytes,
        });
    }
    table.print();
    println!(
        "median of {INDEX_REPEATS} interleaved walks per column, +/- half the interquartile range"
    );
    println!("flat re-sorts the whole keyspace every page; the index serves pages in O(log n)");

    // Mutate one key, then prove one page: what a verified scan right after
    // a write costs, against rebuilding the tree from its keys and proving.
    let sizes: &[usize] = if quick { &[8000] } else { &[8000, 64000] };
    let mut table = Table::new(&["keys", "mutate+prove (us)", "rebuild+prove (us)", "ratio"]);
    // (keys, mutate_prove_ns, rebuild_prove_ns)
    let mut mutations: Vec<(usize, u64, u64)> = Vec::new();
    for &n in sizes {
        let mut rng = sharoes_crypto::HmacDrbg::from_seed_u64(0x1DE1 ^ n as u64);
        let mut key = || ObjectKey::data(rng.next_u64(), [0; 16], 0);
        let keys: Vec<ObjectKey> = (0..n).map(|_| key()).collect();
        let mut index = sharoes_index::MerkleIndex::from_keys(keys.iter().copied());
        index.root();
        // Insert a fresh key, then remove it again: every sample mutates
        // the tree, and the key count stays at `n`.
        let mut samples = Vec::new();
        for _ in 0..100 {
            let k = key();
            for insert in [true, false] {
                let t0 = std::time::Instant::now();
                if insert {
                    index.insert(k);
                } else {
                    index.remove(&k);
                }
                std::hint::black_box(index.prove_scan(Some(&k), page as u32));
                samples.push(t0.elapsed().as_nanos() as u64);
            }
        }
        let mutate_ns = median_iqr(samples).0;
        let (rebuild_ns, _) = median_iqr(
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let mut rebuilt = sharoes_index::MerkleIndex::from_keys(keys.iter().copied());
                    std::hint::black_box(rebuilt.prove_scan(keys.first(), page as u32));
                    t0.elapsed().as_nanos() as u64
                })
                .collect(),
        );
        table.row(vec![
            n.to_string(),
            format!("{:.1}", mutate_ns as f64 / 1e3),
            format!("{:.1}", rebuild_ns as f64 / 1e3),
            format!("{:.0}x", rebuild_ns as f64 / mutate_ns.max(1) as f64),
        ]);
        mutations.push((n, mutate_ns, rebuild_ns));
    }
    table.print();
    println!("a mutation re-hashes only the changed leaf's ancestors before the next proof");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"benchmark\": {},\n", json_str("authenticated_index")));
    json.push_str(&format!("  \"page\": {page},\n"));
    json.push_str(&format!("  \"repeats\": {INDEX_REPEATS},\n"));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"keys\": {}, \"flat_scan_ns\": {}, \"flat_scan_iqr_ns\": {}, \
             \"indexed_scan_ns\": {}, \"indexed_scan_iqr_ns\": {}, \
             \"verified_scan_ns\": {}, \"verified_scan_iqr_ns\": {}, \
             \"proof_bytes\": {}, \"key_bytes\": {}}}{}\n",
            p.keys,
            p.flat_ns,
            p.flat_iqr,
            p.idx_ns,
            p.idx_iqr,
            p.verified_ns,
            p.verified_iqr,
            p.proof_bytes,
            p.key_bytes,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"mutate_then_prove\": [\n");
    for (i, (n, mutate_ns, rebuild_ns)) in mutations.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"keys\": {n}, \"mutate_prove_ns\": {mutate_ns}, \
             \"rebuild_prove_ns\": {rebuild_ns}}}{}\n",
            if i + 1 < mutations.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_bench_json(quick, "BENCH_index.json", &json);
}

/// Contention benchmark: the CI gate for the high-concurrency front end.
/// Real TCP throughout — one sspd for the client-mode sweep, then a 3-node
/// cluster with sequential replica fan-out. Writes
/// `BENCH_concurrency.json` (a quick run: `target/BENCH_concurrency.json`)
/// and exits nonzero if the best multi-threaded throughput fails to clear
/// `SPEEDUP_FLOOR` over the single-threaded blocking baseline.
fn concurrency_report(quick: bool) {
    use sharoes_bench::workloads::concurrency::{self, ConcurrencySpec};

    const SPEEDUP_FLOOR: f64 = 2.0;
    let spec = if quick { ConcurrencySpec::quick() } else { ConcurrencySpec::default() };
    println!(
        "\n== CONCURRENCY: contention benchmark ({} ops/thread, {}B values, batch {}) ==",
        spec.ops_per_thread, spec.value_len, spec.batch
    );

    let mut points = concurrency::run_single(&spec);
    points.extend(concurrency::run_cluster(&spec));

    let mut table =
        Table::new(&["mode", "threads", "ops", "ops/sec", "p50 us", "p95 us", "p99 us"]);
    for p in &points {
        let (p50, p95, p99) = p.latency_ns;
        table.row(vec![
            p.mode.to_string(),
            p.threads.to_string(),
            p.ops.to_string(),
            format!("{:.0}", p.ops_per_sec),
            format!("{:.1}", p50 as f64 / 1e3),
            format!("{:.1}", p95 as f64 / 1e3),
            format!("{:.1}", p99 as f64 / 1e3),
        ]);
    }
    table.print();

    let speedup = concurrency::speedup_multi_vs_single(&points);
    println!(
        "best multi-thread throughput vs 1-thread blocking baseline: {speedup:.1}x (floor {SPEEDUP_FLOOR:.1}x)"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"benchmark\": {},\n", json_str("concurrency")));
    json.push_str(&format!("  \"backend\": {},\n", json_str("memory")));
    json.push_str(&format!(
        "  \"ops_per_thread\": {},\n  \"value_len\": {},\n  \"batch\": {},\n",
        spec.ops_per_thread, spec.value_len, spec.batch
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let (p50, p95, p99) = p.latency_ns;
        json.push_str(&format!(
            "    {{\"mode\": {}, \"threads\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, \
             \"p50_ns\": {p50}, \"p95_ns\": {p95}, \"p99_ns\": {p99}}}{}\n",
            json_str(p.mode),
            p.threads,
            p.ops,
            p.ops_per_sec,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_multi_vs_single\": {speedup:.2}\n"));
    json.push_str("}\n");
    write_bench_json(quick, "BENCH_concurrency.json", &json);

    if speedup < SPEEDUP_FLOOR {
        eprintln!(
            "paper-figures: contention gate FAILED: speedup {speedup:.2}x < {SPEEDUP_FLOOR:.1}x floor"
        );
        std::process::exit(1);
    }
}

fn summary(fig9_results: &[createlist::CreateListResult]) {
    println!("\n== E7: headline comparison (from Figure 9) ==");
    let get = |p: CryptoPolicy| fig9_results.iter().find(|r| r.policy == p).unwrap();
    let sharoes = get(CryptoPolicy::Sharoes);
    let pubopt = get(CryptoPolicy::PubOpt);
    let public = get(CryptoPolicy::Public);
    let noenc = get(CryptoPolicy::NoEncMdD);
    println!(
        "SHAROES list overhead vs NO-ENC-MD-D: {:+.1}% (paper: 5-8%)",
        (sharoes.list_secs / noenc.list_secs - 1.0) * 100.0
    );
    println!(
        "PUB-OPT list vs SHAROES: {:.1}x slower (paper claims SHAROES wins by 40-200%+)",
        pubopt.list_secs / sharoes.list_secs
    );
    println!("PUBLIC list vs SHAROES: {:.1}x slower", public.list_secs / sharoes.list_secs);
}

fn main() {
    let args = parse_args();
    println!(
        "# sharoes paper-figures  ({} users, link: paper DSL{})",
        args.opts.users,
        if args.quick { ", QUICK mode" } else { "" }
    );
    match args.command.as_str() {
        "fig9" => {
            let r = fig9(&args.opts, args.quick);
            summary(&r);
        }
        "fig10" => fig10(&args.opts, args.quick),
        "fig11" | "fig12" => {
            let r = fig11(&args.opts, args.quick);
            fig12(&r);
        }
        "fig13" => fig13(&args.opts, args.quick),
        "storage" => storage_report(&args.opts, args.quick),
        "ablations" => ablations_report(&args.opts, args.quick),
        "enterprise" => enterprise_report(&args.opts, args.quick),
        "index" => index_report(&args.opts, args.quick),
        "concurrency" => concurrency_report(args.quick),
        "summary" => {
            let r = fig9(&args.opts, args.quick);
            summary(&r);
        }
        "all" => {
            let r9 = fig9(&args.opts, args.quick);
            fig10(&args.opts, args.quick);
            let r11 = fig11(&args.opts, args.quick);
            fig12(&r11);
            fig13(&args.opts, args.quick);
            storage_report(&args.opts, args.quick);
            ablations_report(&args.opts, args.quick);
            enterprise_report(&args.opts, args.quick);
            index_report(&args.opts, args.quick);
            concurrency_report(args.quick);
            summary(&r9);
        }
        other => die(&format!("unknown command: {other}")),
    }
}
