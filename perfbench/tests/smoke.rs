//! Smoke test of the benchmark itself: every workload runs briefly in both
//! modes, prints exactly the metrics `BENCHMARK.json` declares with their
//! units, passes its correctness gates, and draws inputs from its seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::json::{parse, Value};
use std::process::Command;

/// Run the benchmark; returns the `info` object and the result object.
fn run(workload: &str, seed: u64, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "expected an info line and a result line");
    let info = parse(lines[lines.len() - 2]).expect("info line is JSON");
    let result = parse(lines[lines.len() - 1]).expect("result line is JSON");
    (info.get("info").expect("info object").clone(), result)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Check the result line against the contract and the declared metrics.
fn check_result(result: &Value, list: &str) {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let attempted = result
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(valid_name(name), "bad metric name {name}");
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            assert!(value.is_finite(), "{name} = {value}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(emitted, declared(list), "emitted {list} metrics differ");
}

fn gates(info: &Value) -> Vec<String> {
    info.get("gates")
        .and_then(Value::as_array)
        .expect("gates")
        .iter()
        .map(|g| g.as_str().expect("gate name").to_string())
        .collect()
}

fn smoke(workload: &str, durable: bool) {
    let (info, result) = run(workload, 1, 0);
    check_result(&result, "end_to_end");
    assert_eq!(gates(&info), ["invariants"]);
    assert_eq!(info.get("workers").and_then(Value::as_f64), Some(2.0));
    assert!(info.get("detected_parallelism").is_some());

    let (info, result) = run(workload, 1, 1);
    check_result(&result, "per_layer");
    let mut expect = vec!["invariants", "traced_invariants", "checker"];
    if durable {
        expect.push("recovered_invariants");
    }
    assert_eq!(gates(&info), expect);
    assert_eq!(
        info.get("traced_complete").and_then(Value::as_bool),
        Some(true)
    );
    let metrics = result.get("metrics").expect("metrics");
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect(name)
    };
    assert_eq!(value("checker.violations"), 0.0);
    assert_eq!(value("obs.trace_dropped"), 0.0);
    assert_eq!(value("cc.aborts.migration_stale_route_per_kcommit"), 0.0);
    let wal_bytes = value("storage.wal.bytes_per_commit");
    assert_eq!(wal_bytes > 0.0, durable, "WAL bytes {wal_bytes}");
}

#[test]
fn tpcc_contended_emits_every_metric() {
    smoke("tpcc_contended", false);
}

#[test]
fn transfer_scaleout_emits_every_metric() {
    smoke("transfer_scaleout", false);
}

#[test]
fn smallbank_durable_emits_every_metric() {
    smoke("smallbank_durable", true);
}

#[test]
fn the_seed_reaches_the_generated_inputs() {
    let fingerprint = |seed| {
        let (info, _) = run("smallbank_durable", seed, 0);
        info.get("input_fingerprint")
            .and_then(Value::as_str)
            .expect("fingerprint")
            .to_string()
    };
    let a = fingerprint(7);
    assert_eq!(a, fingerprint(7), "equal seeds must draw equal inputs");
    assert_ne!(
        a,
        fingerprint(8),
        "different seeds must draw different inputs"
    );
}

#[test]
fn a_behaviour_changing_knob_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "tpcc_contended", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .env("CHILLER_FSYNC_BATCH", "1")
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
