//! Runs every workload in the `--smoke` tier, untraced and traced, and
//! holds the output to the manifest: every promised metric exactly once,
//! in order, finite, with its unit; nothing refused, nothing wrong; and
//! a trace whose spans nest and whose self times add up.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use spq_benchmark::json::Json;
use spq_benchmark::manifest::{END_TO_END, PER_LAYER};

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_spq-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line of stdout is one JSON object")
}

fn check_result(workload: &str, result: &Json, expected: &[(&str, &str)]) {
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = result.get("metrics").unwrap().members();
    let printed: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| (name.as_str(), m.get("unit").and_then(Json::as_str).unwrap()))
        .collect();
    assert_eq!(printed, expected, "{workload}: names, order and units");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} is missing"))
}

/// Parents exist and precede their children, children lie inside their
/// parent, and the self times of a request sum to its root's duration.
fn check_trace(workload: &str) -> usize {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).expect("the traced run wrote its spans");
    let field = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).unwrap() as u64;
    let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(!spans.is_empty(), "{workload}: empty trace");
    let mut by_id: BTreeMap<u64, &Json> = BTreeMap::new();
    let mut own: BTreeMap<u64, u64> = BTreeMap::new();
    for span in &spans {
        let (id, parent) = (field(span, "id"), field(span, "parent"));
        let (start, end) = (field(span, "start_ns"), field(span, "end_ns"));
        assert!(start <= end && span.get("name").and_then(Json::as_str).is_some());
        if parent != 0 {
            let p = by_id.get(&parent).expect("a parent precedes its children");
            assert_eq!(field(p, "request"), field(span, "request"));
            assert!(field(p, "start_ns") <= start && end <= field(p, "end_ns"));
            *own.get_mut(&parent).unwrap() -= end - start;
        }
        by_id.insert(id, span);
        own.insert(id, end - start);
    }
    let mut per_request: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for span in &spans {
        let entry = per_request.entry(field(span, "request")).or_default();
        entry.0 += own[&field(span, "id")];
        if field(span, "parent") == 0 {
            entry.1 = field(span, "end_ns") - field(span, "start_ns");
        }
    }
    for (request, (self_sum, duration)) in per_request {
        assert_eq!(self_sum, duration, "{workload}: request {request}");
    }
    spans.len()
}

fn smoke(workload: &str, served: bool) {
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();

    let plain = run(workload, false);
    check_result(workload, &plain, &end_to_end);
    assert_eq!(metric(&plain, "ok_ratio"), 1.0);
    for name in [
        "setup_s",
        "qps",
        "lat_p50_us",
        "lat_p95_us",
        "rss_peak_mb",
        "index_mb",
    ] {
        assert!(metric(&plain, name) > 0.0, "{workload}: {name} is never 0");
    }

    let traced = run(workload, true);
    check_result(workload, &traced, &per_layer);
    assert_eq!(
        metric(&traced, "trace.spans") as usize,
        check_trace(workload)
    );
    assert!(metric(&traced, "graph.vertices") > 10_000.0);
    assert!(metric(&traced, "dijkstra.distance.p50_ns") > 0.0);
    for counter in [
        "server.shed",
        "server.client_timeouts",
        "server.worker_restarts",
    ] {
        assert_eq!(metric(&traced, counter), 0.0, "{workload}: {counter}");
    }
    // A layer off the workload's path reports 0; one on it does not.
    assert_eq!(metric(&traced, "server.start_s") > 0.0, served);
    assert_eq!(metric(&traced, "server.self_share") > 0.0, served);
    assert!(metric(&traced, "loadgen.cpu_share") <= if served { 0.8 } else { 1.01 });
}

#[test]
fn paper_ch() {
    smoke("paper-ch", false);
}

#[test]
fn served_point() {
    smoke("served-point", true);
}

#[test]
fn served_mixed() {
    smoke("served-mixed", true);
}

#[test]
fn served_many() {
    smoke("served-many", true);
}
