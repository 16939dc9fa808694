//! Quick-scale self-test of the benchmark: every workload prints every
//! metric `BENCHMARK.json` names, with its unit, in plain and traced runs,
//! and the correctness gate trips on a corrupted digest.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dstress::ExperimentScale;
use dstress_perfbench::search::{recorded_digest, DEFAULT_SEED};
use dstress_perfbench::{run, Config, Report, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn config(trace: bool, tag: &str) -> Config {
    Config {
        scale: ExperimentScale::quick(),
        seed: DEFAULT_SEED,
        seconds: 0.5,
        trace,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
        expected_digest: None,
    }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn assert_prints(report: &Report, expected: &[(&str, &str)], workload: Workload) {
    let json = report.to_json();
    let listed = benchmark_json();
    let printed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(printed, expected, "{} metrics", workload.name());
    for (name, unit) in expected {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {json}"
        );
        assert!(
            listed.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json does not list {name} in {unit}"
        );
    }
    assert!(json.ends_with("}}"), "one JSON object: {json}");
    assert!(!json.contains('\n'), "one line: {json}");
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        let plain = run(workload, &config(false, workload.name())).expect("plain run");
        assert!(plain.correct(), "{}: {:?}", workload.name(), plain.problems);
        assert!(plain.attempted >= 1);
        assert_prints(&plain, &END_TO_END, workload);
        for (name, value) in plain.metrics.iter().map(|m| (m.name, m.value)) {
            assert!(value > 0.0, "{}: {name} reads {value}", workload.name());
        }

        let traced = run(workload, &config(true, workload.name())).expect("traced run");
        assert!(
            traced.correct(),
            "{}: {:?}",
            workload.name(),
            traced.problems
        );
        assert_prints(&traced, &PER_LAYER, workload);
    }
}

#[test]
fn a_corrupted_digest_trips_the_gate() {
    for workload in [Workload::Word64, Workload::Access] {
        let recorded = recorded_digest(workload, "quick").expect("a recorded quick digest");
        let mut corrupted = config(false, "corrupted");
        corrupted.expected_digest = Some(recorded ^ 1);
        let report = run(workload, &corrupted).expect("run");
        assert!(
            !report.correct(),
            "{} passed a corrupted digest",
            workload.name()
        );
        assert!(
            report.problems.iter().any(|p| p.contains("digest")),
            "{}: {:?}",
            workload.name(),
            report.problems
        );
        assert!(report.to_json().starts_with("{\"correct\": false,"));
    }
}
