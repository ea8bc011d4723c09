//! Every workload, on the default seed and on one other seed, emits
//! every metric `BENCHMARK.json` names and passes every output and
//! replay-consistency check. Run with `cargo test --release`.

use perfbench::workload::Workload;
use perfbench::{Args, Report, DEFAULT_SEED};
use std::path::Path;

const OTHER_SEED: u64 = 7;

/// The metric names listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section closed");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn bench(workload: Workload, seed: u64, trace: bool) -> Report {
    let args = Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
        child: None,
    };
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let io_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("perfbench-test");
    perfbench::run(&args, exe, &io_root)
}

fn assert_complete(workload: Workload, seed: u64) {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = bench(workload, seed, trace);
        assert!(
            report.failed() == 0,
            "{} seed {seed}: failed checks {:?}, failed campaigns {}",
            workload.name(),
            report.failed_checks,
            report.failed_campaigns
        );
        assert!(report.attempted > 0);
        let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(emitted, declared(key), "{} {key}", workload.name());
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
        }
        if !trace {
            for m in &report.metrics {
                assert!(m.value > 0.0, "end-to-end metric {} is {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn sweep_default_seed() {
    assert_complete(Workload::Sweep, DEFAULT_SEED);
}

#[test]
fn sweep_other_seed() {
    assert_complete(Workload::Sweep, OTHER_SEED);
}

#[test]
fn adaptive_default_seed() {
    assert_complete(Workload::Adaptive, DEFAULT_SEED);
}

#[test]
fn adaptive_other_seed() {
    assert_complete(Workload::Adaptive, OTHER_SEED);
}

#[test]
fn hardened_default_seed() {
    assert_complete(Workload::Hardened, DEFAULT_SEED);
}

#[test]
fn hardened_other_seed() {
    assert_complete(Workload::Hardened, OTHER_SEED);
}

#[test]
fn arguments_parse() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = perfbench::parse_args(
        argv("--workload hardened --seed 9 --seconds 2 --trace 1").into_iter(),
    )
    .expect("valid arguments");
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Workload::Hardened, 9, 2.0, true)
    );
    for bad in [
        "",
        "--workload nope",
        "--workload sweep --trace 2",
        "--workload sweep --seed",
    ] {
        assert!(
            perfbench::parse_args(argv(bad).into_iter()).is_err(),
            "{bad:?} accepted"
        );
    }
}
