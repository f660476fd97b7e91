//! Smoke-size runs of every workload: the deterministic work counters
//! repeat exactly, every reply passes its checks, and each mode emits
//! exactly the metrics `BENCHMARK.json` names, with the same units.

use std::path::PathBuf;

use kpj_servebench::json::{self, Value};
use kpj_servebench::workload::{self, Kind, Scale};
use kpj_servebench::{run, Args, Outcome, END_TO_END, PER_LAYER};

fn smoke(kind: Kind, seed: u64, trace: bool) -> Outcome {
    let args = Args {
        kind,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Smoke,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("servebench-test"),
    };
    let outcome = run(&args).expect("smoke run");
    assert!(
        outcome.correct,
        "{} failed its checks: {}",
        kind.name(),
        outcome.stamp
    );
    assert!(outcome.attempted > 0);
    outcome
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `(key_a, key_b)` string fields of each entry of list `section`.
fn listed(section: &str, key_a: &str, key_b: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field(key_a), field(key_b))
        })
        .collect()
}

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    listed(section, "name", "unit")
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    let workloads = listed("workloads", "name", "why");
    assert!(workloads.len() >= 2);
    for (name, _) in workloads {
        assert!(Kind::parse(&name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn every_workload_emits_every_metric_and_replays_exactly() {
    for kind in workload::ALL {
        let e2e = smoke(kind, 7, false);
        assert_eq!(emitted(&e2e), declared("end_to_end"), "{}", kind.name());

        let first = smoke(kind, 7, true);
        let second = smoke(kind, 7, true);
        assert_eq!(emitted(&first), declared("per_layer"), "{}", kind.name());
        assert!(!first.counters.is_empty());
        assert_eq!(first.counters, second.counters, "{}", kind.name());
        // Every count the replay derives repeats bit for bit too.
        let deterministic = |o: &Outcome| -> Vec<(String, u64)> {
            o.metrics
                .iter()
                .filter(|m| {
                    m.name.ends_with("_per_query")
                        || m.name.ends_with("bounded_ratio")
                        || m.name.ends_with("splice_ratio")
                        || m.name == "landmark.bound_ratio"
                        || m.name == "core.trace_dropped"
                })
                .map(|m| (m.name.to_string(), m.value.to_bits()))
                .collect()
        };
        assert_eq!(
            deterministic(&first),
            deterministic(&second),
            "{}",
            kind.name()
        );
        let dropped = first
            .metrics
            .iter()
            .find(|m| m.name == "core.trace_dropped")
            .expect("trace_dropped is reported");
        assert_eq!(
            dropped.value,
            0.0,
            "{} overflowed the span ring",
            kind.name()
        );
    }
}
