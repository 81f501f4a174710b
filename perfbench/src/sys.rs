//! Process and host facts: CPU time, peak RSS, and the environment record
//! stored with every result.

use std::path::Path;

#[repr(C)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn personality(persona: std::ffi::c_ulong) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Bytes in a `cpu_set_t`.
const CPU_SET_BYTES: usize = 128;

/// Confines the process to one CPU, the highest it may run on; threads
/// spawned later inherit the mask. On a 2-vCPU VM, the client waking SSP
/// threads on the other vCPU made `postmark` run at 300-550 ops/s from one
/// run to the next; on one CPU it ran at 590-660. Call before any thread is
/// spawned. Returns the CPU, or `None` if the mask could not be set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_BYTES * 8).rev().find(|c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a valid `cpu_set_t`-sized mask naming an allowed CPU.
    (unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

/// `ADDR_NO_RANDOMIZE` from `<sys/personality.h>`.
const ADDR_NO_RANDOMIZE: std::ffi::c_ulong = 0x0040000;

/// Runs the rest of the process with address-space randomization off, as
/// `setarch -R` does: the process re-executes itself once with the
/// personality flag set. Where the layout is randomized, run-to-run time of
/// the same work spreads by 10-20% on small VMs (cache and TLB aliasing);
/// with a fixed layout it spreads by about 3%. Returns whether the layout
/// is fixed; on any failure the run goes on with a random layout.
pub fn fix_address_layout() -> bool {
    // SAFETY: `personality(0xffffffff)` only queries the current persona.
    let current = unsafe { personality(0xffff_ffff) };
    if current == -1 {
        return false;
    }
    if current as std::ffi::c_ulong & ADDR_NO_RANDOMIZE != 0 {
        return true;
    }
    if std::env::var_os("PERFBENCH_REEXEC").is_some() {
        return false;
    }
    // SAFETY: sets a persona flag that only affects future exec images.
    if unsafe { personality(current as std::ffi::c_ulong | ADDR_NO_RANDOMIZE) } == -1 {
        return false;
    }
    let Ok(exe) = std::env::current_exe() else { return false };
    use std::os::unix::process::CommandExt;
    // `exec` only returns on failure.
    let _ = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("PERFBENCH_REEXEC", "1")
        .exec();
    false
}

fn rusage() -> RUsage {
    let mut u =
        RUsage { utime_s: 0, utime_us: 0, stime_s: 0, stime_us: 0, maxrss_kib: 0, rest: [0; 13] };
    // SAFETY: `RUsage` matches the Linux x86_64/aarch64 `struct rusage`
    // layout (two timevals then fourteen longs); RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    u
}

/// User + system CPU seconds of the whole process (all threads, including
/// the in-process SSP servers).
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    (u.utime_s + u.stime_s) as f64 + (u.utime_us + u.stime_us) as f64 / 1e6
}

/// Peak resident set size in MiB (`ru_maxrss`, the process's RSS
/// high-water mark).
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The program version under test: the git commit when the checkout is a
/// repository, else a SHA-256 fingerprint of the program's sources
/// (`crates/**` and the root manifest), so results from a plain source
/// checkout still name the code they measured.
pub fn program_version(root: &Path) -> String {
    if let Some(commit) = git_head(root) {
        return commit;
    }
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            buf.extend_from_slice(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
            buf.extend_from_slice(&sharoes_crypto::Sha256::digest(&bytes));
        }
    }
    let d = sharoes_crypto::Sha256::digest(&buf);
    format!("src-sha256:{}", d[..8].iter().map(|b| format!("{b:02x}")).collect::<String>())
}

fn git_head(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => {
            let loose = std::fs::read_to_string(root.join(".git").join(r)).ok();
            loose.map(|s| s.trim().to_string()).or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40].to_string())
            })
        }
        None => Some(head.to_string()),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
