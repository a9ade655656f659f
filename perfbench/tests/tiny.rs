//! A tiny size of every workload runs and passes its checks, on two seeds,
//! and the count metrics repeat exactly across two traced runs.

use perfbench::workload::{Inputs, Scale, Workload};
use perfbench::{bench, Options, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::sync::Once;

/// Points kernel tuning at a file under the test target directory, once,
/// before any test resolves a kernel.
fn out_dir(tag: &str) -> PathBuf {
    static TUNE: Once = Once::new();
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    TUNE.call_once(|| {
        std::fs::create_dir_all(&base).expect("test output directory");
        std::env::set_var("HPLAI_TUNE_FILE", base.join("tune-v1.json"));
    });
    let dir = base.join(tag);
    std::fs::create_dir_all(&dir).expect("test output directory");
    dir
}

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let out = bench(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir: out_dir(tag),
        extra_setup: Vec::new(),
    });
    assert_eq!(
        out.failed,
        0,
        "{} seed {seed}: {:?}",
        workload.name(),
        out.failures
    );
    assert!(out.attempted > out.units);
    out
}

/// Counts that must repeat exactly across runs of the same seed. Fiber
/// resumes are not among them: with two shards a fiber blocked on a
/// cross-shard message is resumed as often as the interleaving of the
/// shard threads dictates (see `event_resumes_repeat_on_one_shard`).
const COUNTS: [&str; 5] = [
    "msgsim.event.local_msgs",
    "msgsim.event.cross_msgs",
    "core.cache.misses",
    "core.factor.steps",
    "core.ir.sweeps",
];

fn check_workload(workload: Workload) {
    let tag = workload.name();
    let e2e = tiny(workload, 1, false, tag);
    for (name, _) in END_TO_END {
        let v = e2e
            .value(name)
            .expect("every end-to-end metric is reported");
        assert!(v > 0.0, "{tag}: {name} = {v}");
    }
    let first = tiny(workload, 1, true, tag);
    let second = tiny(workload, 1, true, tag);
    assert_eq!(first.metrics.len(), PER_LAYER.len());
    for name in COUNTS {
        assert_eq!(first.value(name), second.value(name), "{tag}: {name}");
    }
    assert!(first.value("core.factor.steps").unwrap() > 0.0);
    // Every output check also passes on another seed.
    tiny(workload, 2, true, tag);
}

#[test]
fn solve_tiny() {
    check_workload(Workload::SolveN4096);
}

#[test]
fn service_tiny() {
    check_workload(Workload::ServiceSmall);
}

#[test]
fn event_tiny() {
    check_workload(Workload::EventSummit6912);
}

#[test]
fn ckpt_tiny() {
    check_workload(Workload::CkptRestart);
    let out = tiny(Workload::CkptRestart, 3, true, "ckpt-restart");
    assert_eq!(out.value("core.supervisor.attempts"), Some(2.0));
    assert!(out.value("core.checkpoint.files").unwrap() > 0.0);
}

/// `BENCHMARK.json` names exactly the workloads and metrics the benchmark
/// reports, with the same units.
#[test]
fn benchmark_json_matches_the_benchmark() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        let list = spec[key].as_array().expect("a list");
        list.iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

/// On one shard the event scheduler's resume count is a pure function of
/// the run; on two it also depends on how the shard threads interleave.
#[test]
fn event_resumes_repeat_on_one_shard() {
    let inp = Inputs::generate(
        Workload::EventSummit6912,
        Scale::Tiny,
        1,
        &out_dir("event-one-shard"),
    );
    let cfg = inp
        .cfg
        .to_builder()
        .event_shards(1)
        .build()
        .expect("valid configuration");
    let resumes = || {
        hplai_core::run(&cfg);
        mxp_msgsim::last_event_stats()
            .expect("an event-backend run")
            .resumes
    };
    assert_eq!(resumes(), resumes());
}
