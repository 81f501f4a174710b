#!/bin/sh
# Hermetic CI gate: formatting, the non-test line count, lints, rustdoc
# warnings, offline release build, a release run of every example (each
# must exit zero), offline tests, pinned-seed chaos runs, the cluster's
# union-index equivalence and reconcile agreement (Get, GetMany and
# rebalance pick one winner) properties, the Merkle index's history
# independence and interleaved-read properties,
# the metrics- and trace-determinism gates, the enterprise scenario gate
# (revocation/rotation oracles + registry determinism), the concurrency
# gate (sharded-vs-single-lock byte equivalence, including a drive of many
# threads over TCP with one connection each, + the contention-bench
# throughput floor), the quick paper figures against their committed golden output,
# the committed BENCH_enterprise.json against a fresh full-size run,
# the bench ablations with their BENCH_*.json validation, esign768 and hash
# crypto_micro smoke runs, and the benchmark's own tests. The three
# registry gates run a second time at --test-threads=1, and their exports
# must match the default-parallel run byte for byte.
#
# Everything runs with --offline against the vendored-free, path-only
# workspace — if any step reaches for the network or a registry, that is
# itself a CI failure (the hermetic-build policy in DESIGN.md).
#
# Usage: ci.sh [--quick]
#   --quick   skip the bench/ablation steps (the quick-figure golden, the
#             enterprise export check, the BENCH_*.json writers, their
#             validation, the crypto_micro smoke runs, and the perfbench
#             tests); all build, lint, example, test,
#             and pinned-seed gates still run, and so does the perfbench
#             build, which imports the workspace's public API. For tight
#             edit-test loops.
#
# Each step is wall-clock timed; a summary table prints at the end and is
# also written machine-readably to target/ci-timings.tsv.
set -eu

cd "$(dirname "$0")"

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "ci.sh: unknown argument: $arg" >&2; exit 2 ;;
    esac
done

STEP_TIMINGS=""

# step NAME CMD... — announce, run, and record wall-clock seconds.
step() {
    _name=$1
    shift
    echo "== $_name"
    _t0=$(date +%s)
    "$@"
    _t1=$(date +%s)
    STEP_TIMINGS="${STEP_TIMINGS}$((_t1 - _t0))s\t${_name}\n"
}

# diff_pair NAME A B — an independent determinism check on two files a gate
# test exported. A MISSING file is a hard failure (a silently skipped diff
# would pass vacuously if the exporting test were renamed or dropped).
diff_pair() {
    _pair_name=$1
    _a=$2
    _b=$3
    for _f in "$_a" "$_b"; do
        if [ ! -f "$_f" ]; then
            echo "ci.sh: determinism export missing: $_f (did the exporting gate run?)" >&2
            exit 1
        fi
    done
    step "$_pair_name" diff "$_a" "$_b"
}

# Remove stale exports up front so a diff or bench-check can never read
# files left over from a previous run (which would mask a gate that stopped
# exporting).
rm -f target/metrics-determinism-a.txt target/metrics-determinism-b.txt \
      target/trace-determinism-a.txt target/trace-determinism-b.txt \
      target/enterprise-registry-a.txt target/enterprise-registry-b.txt \
      target/index-registry-a.txt target/index-registry-b.txt \
      target/index-trace-a.txt target/index-trace-b.txt \
      target/concurrency-store-a.bin target/concurrency-store-b.bin \
      target/concurrency-engine-a.bin target/concurrency-engine-b.bin \
      target/BENCH_index.json target/BENCH_concurrency.json target/figures_quick.txt \
      target/enterprise-check/BENCH_enterprise.json

step "cargo fmt --check" \
    cargo fmt --check

# The non-test Rust line count, as ROADMAP's deletion sweep counts it: every
# .rs file outside tests/ directories, target/ and hidden directories, inline
# unit-test modules included. It gates nothing; it makes the trend visible.
step "non-test Rust line count (printed, not gated)" \
    sh -c "printf 'non-test Rust lines: '; find . \\( -name target -o -name tests -o -name '.?*' \\) -prune -o -name '*.rs' -exec cat {} + | wc -l"

step "cargo clippy -D warnings (lints are errors)" \
    cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc warnings are errors too: a deleted item must not leave a dangling
# intra-doc link behind.
step "cargo doc -D warnings (no dangling intra-doc links)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

step "cargo build --release --offline" \
    cargo build --release --offline --workspace

# Each example is a complete program (migrate, mount, share, revoke; the
# migration example over loopback TCP), so run them all, not just build
# them. ~0.1-0.2 s each on a 2-vCPU VM.
step "examples: release build, then run each to a zero exit" \
    sh -c 'cargo build --release --offline --examples &&
           for f in examples/*.rs; do
               ex=$(basename "$f" .rs)
               echo "-- example $ex"
               "target/release/examples/$ex" > /dev/null || exit 1
           done'

step "cargo check --offline (benches, examples, bins)" \
    cargo check --offline --workspace --all-targets

# perfbench is its own workspace and imports sharoes-net, sharoes-core and
# the rest by path: a break in their public API shows here, in --quick too.
step "perfbench release build (imports the workspace's public API)" \
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

# --no-fail-fast: one crate's failure must not hide later crates' results;
# the step still fails if any test does.
step "cargo test -q --offline" \
    cargo test -q --offline --workspace --no-fail-fast

step "chaos suite at pinned seed (fault injection + journal recovery)" \
    env SHAROES_TEST_SEED=0xC4A05EED cargo test -q --offline --test chaos

step "chaos + cluster failover at second pinned seed" \
    env SHAROES_TEST_SEED=0xC1057E42 cargo test -q --offline --test chaos --test cluster

step "chaos + cluster + metrics-determinism gate at third pinned seed" \
    env SHAROES_TEST_SEED=0x0B5EED42 \
    cargo test -q --offline --test chaos --test cluster --test obs_gate

# The obs_gate tests export the registry delta and the rendered trace trees
# of each identical seeded pass; diff them here as checks independent of the
# in-test assertions.
diff_pair "metrics determinism: diff exported registry deltas" \
    target/metrics-determinism-a.txt target/metrics-determinism-b.txt

diff_pair "trace determinism: diff exported span-tree renderings" \
    target/trace-determinism-a.txt target/trace-determinism-b.txt

step "enterprise scenario gate at fourth pinned seed (revocation + rotation oracles)" \
    env SHAROES_TEST_SEED=0xE57E4512 cargo test -q --offline --test enterprise

# Same independent check for the enterprise gate's registry exports.
diff_pair "enterprise determinism: diff exported registry deltas" \
    target/enterprise-registry-a.txt target/enterprise-registry-b.txt

step "crash-point recovery matrix at fifth pinned seed (log-engine durability)" \
    env SHAROES_TEST_SEED=0xC4A54F70 cargo test -q --offline --test crashpoints

# Checkpoint + tail recovery, and every delete_blocks sweep against a plain
# BTreeMap model, at the same seed; the workspace run above covers the
# default seed.
step "recovery equivalence + delete_blocks oracle at fifth pinned seed" \
    env SHAROES_TEST_SEED=0xC4A54F70 \
    cargo test -q --offline -p sharoes-ssp --test recovery_equiv

step "authenticated-index gate at sixth pinned seed (verified scans + tamper oracle)" \
    env SHAROES_TEST_SEED=0x1DE15EED cargo test -q --offline --test index

# The cluster's incrementally maintained union index against a from-scratch
# rebuild after every verified read, through drop-out, rejoin, high churn
# and the Scan fallback, and the reconcile agreement property (Get, GetMany
# and rebalance pick one winner however replicas diverge), at the same seed.
step "union-index equivalence + reconcile agreement at sixth pinned seed" \
    env SHAROES_TEST_SEED=0x1DE15EED \
    cargo test -q --offline -p sharoes-cluster --test union_equivalence --test cluster_ops

# The Merkle index's own properties at the same seed: history independence
# (any mutation order settles to the from-scratch tree) and interleaved
# reads (every root, proof and node read in between matches a rebuild).
step "index history independence + interleaved reads at sixth pinned seed" \
    env SHAROES_TEST_SEED=0x1DE15EED \
    cargo test -q --offline -p sharoes-index --test prop_index

# Same independent check for the index gate's registry and trace exports.
diff_pair "index determinism: diff exported registry deltas" \
    target/index-registry-a.txt target/index-registry-b.txt

diff_pair "index determinism: diff exported span-tree renderings" \
    target/index-trace-a.txt target/index-trace-b.txt

step "concurrency gate at seventh pinned seed (sharded == single-lock, TCP)" \
    env SHAROES_TEST_SEED=0x5CA1AB1E cargo test -q --offline --test concurrency

# Same independent check for the concurrency gate's snapshot exports:
# single-lock sequential vs sharded concurrent, store and engine.
diff_pair "concurrency determinism: diff store snapshots (single-lock vs sharded)" \
    target/concurrency-store-a.bin target/concurrency-store-b.bin

diff_pair "concurrency determinism: diff engine snapshots (single-lock vs sharded)" \
    target/concurrency-engine-a.bin target/concurrency-engine-b.bin

# Registry exports must not depend on how the test harness schedules
# threads: keep the default-parallel exports, rerun the three registry gates
# serially at their pinned seeds, and diff. Each gate already asserts its
# a == b, so comparing the a exports covers both.
for _export in metrics-determinism-a enterprise-registry-a index-registry-a; do
    cp "target/$_export.txt" "target/$_export.parallel.txt"
done

step "metrics-determinism gate again at --test-threads=1" \
    env SHAROES_TEST_SEED=0x0B5EED42 \
    cargo test -q --offline --test obs_gate -- --test-threads=1

step "enterprise gate again at --test-threads=1" \
    env SHAROES_TEST_SEED=0xE57E4512 \
    cargo test -q --offline --test enterprise -- --test-threads=1

step "authenticated-index gate again at --test-threads=1" \
    env SHAROES_TEST_SEED=0x1DE15EED \
    cargo test -q --offline --test index -- --test-threads=1

diff_pair "thread-count determinism: metrics registry export, parallel vs serial" \
    target/metrics-determinism-a.parallel.txt target/metrics-determinism-a.txt

diff_pair "thread-count determinism: enterprise registry export, parallel vs serial" \
    target/enterprise-registry-a.parallel.txt target/enterprise-registry-a.txt

diff_pair "thread-count determinism: index registry export, parallel vs serial" \
    target/index-registry-a.parallel.txt target/index-registry-a.txt

if [ "$QUICK" -eq 0 ]; then
    # Figures 9-13, E6 storage and the A1-A6 ablations at quick size. Each
    # number is modelled network time plus counted crypto work priced from
    # one fixed table, a function of the seed alone, so the output must
    # match the committed figures_quick.txt byte for byte on any host.
    # After an intended change, regenerate it with this same loop.
    # 45-60 s on a 2-vCPU VM.
    step "quick paper figures match figures_quick.txt" \
        sh -c 'for f in fig9 fig10 fig11 fig13 storage ablations; do
                   cargo run -q --offline --release -p sharoes-bench --bin paper-figures -- \
                       --quick "$f" || exit 1
               done > target/figures_quick.txt && diff figures_quick.txt target/figures_quick.txt'

    # The committed BENCH_enterprise.json is the full-size enterprise run:
    # its byte counts and graph fingerprint are a function of the seed
    # alone, so a fresh run must reproduce it byte for byte. The run writes
    # into target/enterprise-check/, so the committed file stays as it was.
    # ~35-50 s on a 2-vCPU VM.
    step "enterprise export matches BENCH_enterprise.json" \
        sh -c 'mkdir -p target/enterprise-check && cd target/enterprise-check &&
               env -u SHAROES_SCALE cargo run -q --offline --release \
                   --manifest-path ../../Cargo.toml -p sharoes-bench --bin paper-figures -- \
                   enterprise > /dev/null &&
               cd ../.. && diff BENCH_enterprise.json target/enterprise-check/BENCH_enterprise.json'

    # Indexed-vs-flat scan ablation with proof overhead. The quick run
    # writes target/BENCH_index.json; the committed BENCH_index.json is the
    # full-size run and stays untouched.
    step "authenticated-index scan ablation (writes target/BENCH_index.json)" \
        cargo run -q --offline --release -p sharoes-bench --bin paper-figures -- --quick index

    # Contention bench: N client threads x M ops against a real sspd (one
    # connection per thread, sending single requests or batches) plus a
    # 3-node cluster with sequential replica fan-out; exits nonzero if
    # multi-threaded throughput fails the 2x floor over the single-threaded
    # one-connection-per-thread ("blocking") baseline. The quick run writes
    # target/BENCH_concurrency.json; the committed file is the full-size run.
    step "contention bench + speedup floor (writes target/BENCH_concurrency.json)" \
        cargo run -q --offline --release -p sharoes-bench --bin paper-figures -- --quick concurrency

    # Public-key floor smoke run at the workloads' ESIGN size: the bench
    # verifies every signature it times, so a wrong result fails the step.
    # It gates no time.
    step "crypto_micro esign768 smoke (signatures verify)" \
        env SHAROES_BENCH_SAMPLES=2 \
        cargo bench --offline -p sharoes-bench --bench crypto_micro -- esign768

    # Hash floor smoke run: the batched row asserts that digest_many's
    # digests equal one-at-a-time digests, so a wrong kernel fails the step.
    # It gates no time.
    step "crypto_micro hash smoke (batched digests match)" \
        env SHAROES_BENCH_SAMPLES=2 \
        cargo bench --offline -p sharoes-bench --bench crypto_micro -- hash

    # Directory-table floor smoke run: the insert_row and remove_row rows
    # assert that an edited table equals one rebuilt from the edited
    # entries, so a wrong edit fails the step. It gates no time.
    step "metadata_micro dirtable smoke (edits equal rebuilds)" \
        env SHAROES_BENCH_SAMPLES=2 \
        cargo bench --offline -p sharoes-bench --bench metadata_micro -- dirtable

    # The benchmark's own tests: tiny runs of each workload are correct,
    # and two runs at one seed report identical counts (wire bytes, round
    # trips, cache hit fraction, ...). Span files land in the ignored
    # .perfbench/.
    step "perfbench tests (per-seed count determinism)" \
        cargo test --release --offline --manifest-path perfbench/Cargo.toml

    # Every committed BENCH_*.json, and the quick index and contention
    # runs', must re-parse with its required keys — the hand-rolled JSON
    # writers above get no silent formatting slips.
    step "bench-check: validate committed BENCH_*.json files" \
        cargo run -q --offline --release -p sharoes-bench --bin bench-check -- .
    step "bench-check: validate the quick runs' target/BENCH_{index,concurrency}.json" \
        cargo run -q --offline --release -p sharoes-bench --bin bench-check -- target
else
    echo "== (--quick: skipping bench/ablation steps)"
fi

echo ""
echo "== step timings"
printf "%b" "$STEP_TIMINGS"
mkdir -p target
printf "%b" "$STEP_TIMINGS" > target/ci-timings.tsv
echo "wrote target/ci-timings.tsv"
echo "CI OK"
