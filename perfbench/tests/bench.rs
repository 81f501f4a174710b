//! The benchmark's own checks, at smoke-test scale: runs finish quickly and
//! correctly, count metrics repeat exactly at a fixed seed, and a different
//! seed changes the inputs.
//!
//! Runs share process-wide state (the span recorder, the program's trace
//! filter), so they are serialized.

use sharoes_perfbench::driver::{Config, Outcome, Scale};
use sharoes_perfbench::{run_workload, WORKLOADS};
use std::sync::Mutex;
use std::time::Instant;

static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let work_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    std::fs::create_dir_all(&work_dir).unwrap();
    let cfg = Config { seed, seconds: 2.0, trace, scale: Scale::Tiny, setup_reps: 1, work_dir };
    let out = run_workload(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.correct, "{workload} seed {seed}: {:?}", out.notes);
    assert_eq!(out.failed, 0);
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics.iter().find(|(n, _, _)| *n == name).unwrap_or_else(|| panic!("no metric {name}")).1
}

const E2E_COUNTS: [&str; 3] =
    ["wire_bytes_per_op", "round_trips_per_op", "stored_bytes_per_user_byte"];
const LAYER_COUNTS: [&str; 3] =
    ["ssp.fsyncs_per_op", "core.cache_hit_frac", "cluster.node_calls_per_req"];

#[test]
fn tiny_runs_finish_in_seconds_and_repeat_their_counts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let t = Instant::now();
        let (a, b) = (run(w, 7, false), run(w, 7, false));
        for m in E2E_COUNTS {
            assert_eq!(metric(&a, m), metric(&b, m), "{w}: {m} differs at one seed");
        }
        let (a, b) = (run(w, 7, true), run(w, 7, true));
        for m in LAYER_COUNTS {
            assert_eq!(metric(&a, m), metric(&b, m), "{w}: {m} differs at one seed");
        }
        let secs = t.elapsed().as_secs_f64();
        assert!(secs < 60.0, "{w}: four smoke runs took {secs:.1}s");
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let (a, b) = (run(w, 1, false), run(w, 2, false));
        assert_ne!(
            metric(&a, "wire_bytes_per_op"),
            metric(&b, "wire_bytes_per_op"),
            "{w}: seeds 1 and 2 moved the same bytes"
        );
    }
}

#[test]
fn every_declared_metric_is_reported() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = |section: &str| -> Vec<String> {
        let start = spec.find(&format!("\"{section}\"")).expect("section present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    };
    let out = run("cluster_rpc", 3, false);
    let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names, declared("end_to_end"));
    let out = run("cluster_rpc", 3, true);
    let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names, declared("per_layer"));
}

#[test]
fn the_host_reference_measures_a_finite_positive_slowdown() {
    use sharoes_perfbench::calib::{slowdown_of, Reference};
    let mut r = Reference::new();
    assert_eq!(slowdown_of(r.slices()), 1.0, "no slice yet reads as the reference speed");
    for _ in 0..3 {
        let s = r.slice();
        assert!(s.table > 0 && s.mul > 0, "{s:?}");
    }
    let slow = slowdown_of(r.slices());
    assert!(slow.is_finite() && slow > 0.0, "slowdown {slow}");
}
