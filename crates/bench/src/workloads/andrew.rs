//! E3/E4 — Figures 11 and 12: the Andrew benchmark.
//!
//! "The widely used Andrew Benchmark simulates a software development
//! workload ... five phases: (1) creates subdirectories recursively; (2)
//! copies a source tree; (3) examines the status of all the files in the
//! tree without examining their data; (4) examines every byte of data in
//! all the files; and (5) compiles and links the files."
//!
//! Phase 5's compilation is CPU work identical across implementations; we
//! model it as reading every source plus writing the object files and the
//! linked binary (the parts that touch the filesystem), which is the
//! component the paper's comparison is sensitive to.

use crate::harness::{content, scheme_for, Bench, BenchOpts, PhaseTimer, BENCH_USER};
use crate::workloads::createlist::ls_lr;
use sharoes_core::CryptoPolicy;
use sharoes_fs::Mode;

/// Per-phase and cumulative results for one implementation.
#[derive(Clone, Debug)]
pub struct AndrewResult {
    /// Which implementation.
    pub policy: CryptoPolicy,
    /// Virtual seconds per phase (1..=5).
    pub phases: [f64; 5],
}

impl AndrewResult {
    /// Cumulative seconds.
    pub fn total(&self) -> f64 {
        self.phases.iter().sum()
    }
}

/// Source-tree shape for the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct AndrewSpec {
    /// Directories created in phase 1.
    pub dirs: usize,
    /// Source files copied in phase 2.
    pub files: usize,
    /// Source file size in bytes.
    pub file_size: usize,
}

impl Default for AndrewSpec {
    fn default() -> Self {
        AndrewSpec { dirs: 20, files: 50, file_size: 4000 }
    }
}

/// Runs all five phases for one implementation.
pub fn run(policy: CryptoPolicy, spec: &AndrewSpec, opts: &BenchOpts) -> AndrewResult {
    let bench = Bench::new(policy, scheme_for(policy), opts, (spec.dirs + spec.files * 2) * 2 + 16);
    let mut client = bench.client(BENCH_USER, None);
    let mut phases = [0.0f64; 5];

    // Phase 1: mkdir tree (nested two levels).
    let timer = PhaseTimer::start(&client);
    client.mkdir("/bench/src", Mode::from_octal(0o755)).expect("mkdir");
    for d in 0..spec.dirs {
        let path = if d % 2 == 0 {
            format!("/bench/src/mod{d}")
        } else {
            format!("/bench/src/mod{}/sub{d}", d - 1)
        };
        client.mkdir(&path, Mode::from_octal(0o755)).expect("mkdir");
    }
    phases[0] = timer.seconds(&client, opts);

    // Phase 2: copy the source tree.
    let timer = PhaseTimer::start(&client);
    let mut sources = Vec::with_capacity(spec.files);
    for f in 0..spec.files {
        let dir = (f % spec.dirs / 2) * 2; // even (top-level) module dirs
        let path = format!("/bench/src/mod{dir}/file{f}.c");
        client.create(&path, Mode::from_octal(0o644)).expect("create");
        client.write_file(&path, &content(spec.file_size, f as u64)).expect("write");
        sources.push(path);
    }
    phases[1] = timer.seconds(&client, opts);

    // Phase 3: stat everything (fresh mount — cold metadata).
    let mut stat_client = bench.client(BENCH_USER, None);
    let timer = PhaseTimer::start(&stat_client);
    ls_lr(&mut stat_client, "/bench/src");
    phases[2] = timer.seconds(&stat_client, opts);

    // Phase 4: read every byte (fresh mount — cold data).
    let mut read_client = bench.client(BENCH_USER, None);
    let timer = PhaseTimer::start(&read_client);
    for path in &sources {
        read_client.read(path).expect("read");
    }
    phases[3] = timer.seconds(&read_client, opts);

    // Phase 5: "compile and link" — read sources (warm in read_client's
    // cache semantics? No: compile runs in the same session as phase 4 in
    // the original benchmark, so reads hit the cache), write object files,
    // link one binary.
    let timer = PhaseTimer::start(&read_client);
    for (f, path) in sources.iter().enumerate() {
        let src = read_client.read(path).expect("re-read source");
        let obj_path = format!("{path}.o");
        read_client.create(&obj_path, Mode::from_octal(0o644)).expect("create obj");
        // "Object code" ~ same order of size as the source.
        read_client
            .write_file(&obj_path, &content(src.len() / 2 + 128, f as u64 + 1000))
            .expect("write obj");
    }
    read_client.create("/bench/src/a.out", Mode::from_octal(0o755)).expect("create bin");
    read_client
        .write_file("/bench/src/a.out", &content(spec.files * spec.file_size / 4, 0xBEEF))
        .expect("link");
    phases[4] = timer.seconds(&read_client, opts);

    AndrewResult { policy, phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_core::CryptoParams;

    #[test]
    fn phases_complete_and_shape_holds() {
        // Test-size keys: crypto is priced per operation, not per key bit,
        // so the PUB-OPT private-key tax under test survives small keys.
        let opts = BenchOpts { users: 2, crypto: CryptoParams::test(), ..Default::default() };
        let spec = AndrewSpec { dirs: 4, files: 6, file_size: 1000 };
        let sharoes = run(CryptoPolicy::Sharoes, &spec, &opts);
        let noenc = run(CryptoPolicy::NoEncMdD, &spec, &opts);
        let pubopt = run(CryptoPolicy::PubOpt, &spec, &opts);
        for p in 0..5 {
            assert!(sharoes.phases[p] > 0.0, "phase {p} empty");
        }
        // Phase 3 (stat) is where PUB-OPT pays the private-key tax.
        assert!(pubopt.phases[2] > sharoes.phases[2]);
        // Cumulative ordering: NO-ENC <= SHAROES < PUB-OPT.
        assert!(noenc.total() <= sharoes.total() * 1.05);
        assert!(sharoes.total() < pubopt.total());
    }
}
