//! Slow-query flight-recorder round trip: force the `kpj-service` flight
//! recorder to dump a query (threshold 0 ms ⇒ everything is "slow"),
//! then prove the `.kpjcase` it wrote is a faithful reproducer —
//!
//! 1. it parses with the oracle's own [`parse_case`],
//! 2. rebuilding the graph from the case and re-running the query yields
//!    the *identical* path lengths the service answered with, and
//! 3. the real `kpj-fuzz --replay` binary accepts it end to end.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use kpj_core::{Algorithm, QueryEngine};
use kpj_oracle::parse_case;
use kpj_service::{KpjService, PoolConfig, QueryRequest, ServiceConfig};
use kpj_workload::road::RoadConfig;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("kpj-flight-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn recorded_slow_query_replays_to_the_identical_answer() {
    let dir = temp_dir("oracle");
    let graph = Arc::new(RoadConfig::new(200, 520, 13).generate());
    let service = KpjService::new(
        Arc::clone(&graph),
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 8,
            },
            // No cache: the query must reach the pool (and the recorder).
            cache_capacity: 0,
            // Threshold 0 ⇒ every completed query counts as slow.
            slow_query_ms: Some(0),
            flight_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServiceConfig::default()
        },
    );
    assert!(service.flight_recorder().is_some(), "recorder not armed");

    let request = QueryRequest {
        algorithm: Algorithm::IterBoundI,
        sources: vec![4],
        targets: vec![150, 190],
        k: 7,
        timeout_ms: None,
    };
    let answer = service.execute(&request).unwrap();
    let served: Vec<u64> = answer.paths.iter().map(|p| p.length).collect();
    assert_eq!(served.len(), 7, "query under-filled; pick other endpoints");

    // The record is written by the worker before the reply is published,
    // so it must exist by now.
    let records = kpj_service::flight::list_records(&dir).unwrap();
    assert_eq!(records.len(), 1, "expected exactly one flight record");
    let record = &records[0];
    let text = std::fs::read_to_string(record).unwrap();
    assert!(text.contains("# algorithm IterBoundI"), "{text}");

    // (1) + (2): parse with the oracle and re-run the query on the graph
    // rebuilt purely from the file.
    let case = parse_case(&text).unwrap();
    assert_eq!(case.sources, request.sources);
    assert_eq!(case.targets, request.targets);
    assert_eq!(case.k, request.k);
    assert_eq!(case.timeout_ms, None, "deadlines must not be replayed");
    let rebuilt = case.graph();
    let mut engine = QueryEngine::new(&rebuilt);
    let replayed = engine
        .query_multi(request.algorithm, &case.sources, &case.targets, case.k)
        .unwrap();
    let replayed: Vec<u64> = replayed.paths.iter().map(|p| p.length).collect();
    assert_eq!(replayed, served, "replay diverged from the served answer");

    // (3): the shipped replay tool accepts the record.
    let output = Command::new(env!("CARGO_BIN_EXE_kpj-fuzz"))
        .arg("--replay")
        .arg(record)
        .output()
        .expect("run kpj-fuzz");
    assert!(
        output.status.success(),
        "kpj-fuzz --replay rejected the record:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
