//! Metrics-exposition smoke test: a real TCP `kpj-serve`-shaped server,
//! a few queries across algorithms, then `{"cmd":"metrics"}` — the
//! response must carry a Prometheus text block with one histogram series
//! per (algorithm, stage) cell and one work-counter series per
//! (algorithm, QueryStats field), all with parseable values. This is the
//! check `ci.sh` runs against the protocol end to end.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use kpj_core::{Algorithm, QueryStats};
use kpj_obs::Stage;
use kpj_service::json::Json;
use kpj_service::{serve, KpjService, PoolConfig, ServiceConfig};
use kpj_workload::road::RoadConfig;

fn start_server() -> String {
    let graph = Arc::new(RoadConfig::new(500, 1_200, 3).generate());
    let service = Arc::new(KpjService::new(
        graph,
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 32,
            },
            cache_capacity: 32,
            ..ServiceConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = serve(listener, service);
    });
    addr
}

fn roundtrip(addr: &str, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut responses = Vec::new();
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        responses.push(resp.trim().to_string());
    }
    responses
}

#[test]
fn metrics_exposition_covers_every_algorithm_and_stage() {
    let addr = start_server();

    // Exercise a few distinct algorithms so some cells are non-zero.
    let queries: Vec<String> = ["da", "bestfirst", "iterboundi"]
        .iter()
        .enumerate()
        .map(|(i, alg)| {
            format!(
                "{{\"id\":{i},\"op\":\"query\",\"algorithm\":\"{alg}\",\"sources\":[7],\"targets\":[200,400],\"k\":5}}"
            )
        })
        .collect();
    for resp in roundtrip(&addr, &queries) {
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert!(v.get("server_us").unwrap().as_u64().is_some(), "{resp}");
    }

    let resp = &roundtrip(&addr, &[r#"{"id":99,"cmd":"metrics"}"#.to_string()])[0];
    let v = Json::parse(resp).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
    let prom = v
        .get("prometheus")
        .expect("metrics response carries a prometheus block")
        .as_str()
        .unwrap()
        .to_string();

    // One _count series per (algorithm, stage) — even untouched cells.
    for alg in Algorithm::ALL {
        for stage in Stage::ALL {
            let series = format!(
                "kpj_stage_duration_seconds_count{{algorithm=\"{}\",stage=\"{}\"}}",
                alg.name(),
                stage.name()
            );
            assert!(prom.contains(&series), "missing series {series}");
        }
        for counter in QueryStats::FIELD_NAMES {
            let series = format!(
                "kpj_engine_work_total{{algorithm=\"{}\",counter=\"{counter}\"}}",
                alg.name()
            );
            assert!(prom.contains(&series), "missing series {series}");
        }
    }

    // Every sample line parses: `name{labels} value` with a numeric value.
    let mut samples = 0usize;
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        // Labelled series end in `}`; scalar families (uptime, snapshot
        // sequence) are bare metric names.
        assert!(
            series.ends_with('}')
                || series
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "malformed series: {line}"
        );
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable value in: {line}"
        );
        samples += 1;
    }
    // |Algorithm::ALL| × |Stage::ALL| × (buckets + sum + count) plus
    // counters and events — the exact number is large; just require real
    // coverage, with the floor derived from the authoritative lists so a
    // new algorithm or stage raises it automatically.
    assert!(
        samples > Algorithm::ALL.len() * Stage::ALL.len() * 3,
        "suspiciously few samples: {samples}"
    );

    // The queried algorithms actually recorded work.
    for alg in ["DA", "BestFirst", "IterBoundI"] {
        let needle = format!("kpj_engine_work_total{{algorithm=\"{alg}\",counter=\"settled\"}} ");
        let line = prom
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("no settled counter for {alg}"));
        let value: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(value > 0, "{alg} settled no nodes: {line}");
    }
}
