//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the root of a source checkout and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics for
//! `--trace 0`, the per-layer metrics for `--trace 1`. The line before it
//! records the environment of the run.

use sharoes_perfbench::driver::{Config, Scale};
use sharoes_perfbench::{run_workload, sys};
use std::path::{Path, PathBuf};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, val: &str) -> T {
    val.parse().unwrap_or_else(|_| usage(&format!("bad value {val:?} for {flag}")))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let fixed_layout = sys::fix_address_layout();
    let nproc = sys::nproc();
    let cpu = sys::pin_to_one_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(parse::<u64>(flag, val)),
            "--seconds" => seconds = Some(parse::<f64>(flag, val)),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value {val:?} for {flag}")),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let trace = trace.unwrap_or(false);

    // The benchmark runs from the root of a source checkout: its scratch
    // space lives there, never outside it.
    let root = PathBuf::from(".");
    if !root.join("crates").is_dir() || !root.join("Cargo.toml").is_file() {
        usage("run from the root of the Sharoes source checkout");
    }
    let out = root.join(".perfbench");
    let work_dir = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .unwrap_or_else(|e| usage(&format!("{}: {e}", out.display())));
    let cfg = Config {
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        setup_reps: 3,
        work_dir: work_dir.clone(),
    };

    let env = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {}, \"wal_fs\": \"memory\", \"fixed_layout\": {fixed_layout}, \
         \"cpu\": {}, \"program\": {}}}",
        json_str(&workload),
        nproc,
        cpu.map_or("null".to_string(), |c| c.to_string()),
        json_str(&sys::program_version(Path::new("."))),
    );
    println!("# env {env}");

    let result = run_workload(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    });
    for n in &outcome.notes {
        eprintln!("perfbench: {n}");
    }
    // A metric that is not a finite number is a broken measurement: it is
    // written as null and makes the run incorrect, never passed off as 0.
    let mut correct = outcome.correct;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                eprintln!("perfbench: metric {name} is not a finite number ({v})");
                correct = false;
                "null".into()
            };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    println!("{line}");
}
