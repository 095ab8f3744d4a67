//! The benchmark's contract: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is generated from
//! these tables (`spq-benchmark manifest`) and a test keeps the two
//! byte-identical, so what the binary prints and what the manifest
//! promises cannot drift apart.

/// Seconds one run measures (`--seconds` when the driver calls).
pub const RUN_SECONDS: u32 = 15;

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper-ch",
        "in-process CH distance+path over the paper's Q1-Q10, no sockets: the kernel is ~100% of the time, so kernel work shows here and a serve change must leave it flat",
    ),
    (
        "served-point",
        "HL DISTANCE over TCP, cache off, 32 in flight: the kernel is <10% of a request, so this isolates per-request parse/hand-off/encode/flush cost; largest index (set-up, load, RSS)",
    ),
    (
        "served-mixed",
        "CH slot, 32 in flight: 60% cache hits, 20% misses (insert+evict), 20% PATH; kernel and serve share the work; cache reads beside writes, 13-byte beside multi-KB frames",
    ),
    (
        "served-many",
        "CH slot, 1 in flight, 16-slot cycle of one-to-many, kNN, range and table requests: sweep/bucket/lane kernels are >80% of a round trip, the serve layer only moves big frames",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: `(name, unit, better, bound)`. `bound` is the
/// share of the parent's median by which it may worsen.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("setup_s", "s", Lower, 0.25),
    ("qps", "1/s", Higher, 0.2),
    ("lat_p50_us", "us", Lower, 0.25),
    ("lat_p95_us", "us", Lower, 0.25),
    ("ok_ratio", "ratio", Higher, 0.001),
    ("rss_peak_mb", "MB", Lower, 0.1),
    ("index_mb", "MB", Lower, 0.01),
];

/// A per-layer metric: `(name, unit, better)`. Printed by `--trace 1`;
/// a layer that is not on a workload's path reports 0 there.
pub const PER_LAYER: [(&str, &str, Better); 97] = [
    // machine: speed relative to nominal during the run's windows
    ("machine.speed", "ratio", Higher),
    // synth, graph
    ("synth.generate_s", "s", Lower),
    ("graph.vertices", "count", Lower),
    ("graph.edges", "count", Lower),
    ("graph.write_s", "s", Lower),
    // dijkstra: the normaliser — a shift here means the machine moved
    ("dijkstra.distance.p50_ns", "ns", Lower),
    // ch: build and persist
    ("ch.build_s", "s", Lower),
    ("ch.build_par_s", "s", Lower),
    ("ch.shortcuts", "count", Lower),
    ("ch.container_mb", "MB", Lower),
    ("ch.write_s", "s", Lower),
    ("ch.load_s", "s", Lower),
    // ch: point kernels
    ("ch.distance.p50_ns", "ns", Lower),
    ("ch.distance.p95_ns", "ns", Lower),
    ("ch.distance.p99_ns", "ns", Lower),
    ("ch.distance.q1_p50_ns", "ns", Lower),
    ("ch.distance.q5_p50_ns", "ns", Lower),
    ("ch.distance.q10_p50_ns", "ns", Lower),
    ("ch.path.p50_ns", "ns", Lower),
    ("ch.path.p95_ns", "ns", Lower),
    ("ch.path.p99_ns", "ns", Lower),
    ("ch.path.q10_p50_ns", "ns", Lower),
    ("ch.legacy.distance.p50_ns", "ns", Lower),
    ("ch.legacy.path.p50_ns", "ns", Lower),
    // ch: table kernels, nanoseconds per table entry
    ("ch.m2m.square32.entry_ns", "ns", Lower),
    ("ch.m2m.skinny1x1024.entry_ns", "ns", Lower),
    ("ch.m2m.ragged8x128.entry_ns", "ns", Lower),
    ("ch.batch.square32.entry_ns", "ns", Lower),
    ("ch.batch.skinny1x1024.entry_ns", "ns", Lower),
    ("ch.batch.ragged8x128.entry_ns", "ns", Lower),
    // hl
    ("hl.build_s", "s", Lower),
    ("hl.build_par_s", "s", Lower),
    ("hl.label_entries", "count", Lower),
    ("hl.avg_label_len", "count", Lower),
    ("hl.container_mb", "MB", Lower),
    ("hl.write_s", "s", Lower),
    ("hl.load_s", "s", Lower),
    ("hl.distance.p50_ns", "ns", Lower),
    ("hl.distance.p99_ns", "ns", Lower),
    ("hl.distance.q1_p50_ns", "ns", Lower),
    ("hl.distance.q10_p50_ns", "ns", Lower),
    // many
    ("many.poi.build_s", "s", Lower),
    ("many.o2m64.p50_us", "us", Lower),
    ("many.o2m1024.p50_us", "us", Lower),
    ("many.knn8.p50_us", "us", Lower),
    ("many.range.p50_us", "us", Lower),
    ("many.range.results_avg", "count", Lower),
    // serve::protocol
    ("protocol.encode_distance_ns", "ns", Lower),
    ("protocol.decode_distance_ns", "ns", Lower),
    ("protocol.decode_o2m1024_ns", "ns", Lower),
    ("protocol.encode_resp_o2m1024_ns", "ns", Lower),
    ("protocol.encode_resp_path_ns", "ns", Lower),
    // serve::cache
    ("cache.get_hit_ns", "ns", Lower),
    ("cache.get_miss_ns", "ns", Lower),
    ("cache.insert_evict_ns", "ns", Lower),
    ("cache.hit_ratio", "ratio", Higher),
    ("cache.evictions", "count", Lower),
    // serve::server + eventloop
    ("server.start_s", "s", Lower),
    ("server.selfcheck_s", "s", Lower),
    ("server.shutdown_s", "s", Lower),
    ("server.connect_us", "us", Lower),
    ("server.ping_p50_us", "us", Lower),
    ("server.rtt_d1_p50_us", "us", Lower),
    ("server.rtt_d1_p99_us", "us", Lower),
    ("server.self_p50_us", "us", Lower),
    ("server.self_share", "ratio", Lower),
    ("server.cpu_us_per_req", "us", Lower),
    ("server.rss_serving_mb", "MB", Lower),
    ("server.shed", "count", Lower),
    ("server.client_timeouts", "count", Lower),
    ("server.worker_restarts", "count", Lower),
    ("server.pipelined_frames", "count", Higher),
    // wire: the client's view, per op
    ("wire.distance_hl.p50_us", "us", Lower),
    ("wire.distance_ch_hit.p50_us", "us", Lower),
    ("wire.distance_ch_miss.p50_us", "us", Lower),
    ("wire.path_ch.p50_us", "us", Lower),
    ("wire.o2m64.p50_us", "us", Lower),
    ("wire.o2m1024.p50_us", "us", Lower),
    ("wire.knn8.p50_us", "us", Lower),
    ("wire.range.p50_us", "us", Lower),
    ("wire.table_square32.p50_us", "us", Lower),
    ("wire.table_skinny1x1024.p50_us", "us", Lower),
    ("wire.table_ragged8x128.p50_us", "us", Lower),
    ("wire.p99_us", "us", Lower),
    ("wire.p999_us", "us", Lower),
    ("wire.max_us", "us", Lower),
    ("wire.resp_bytes_avg", "B", Lower),
    ("wire.open8k.p50_us", "us", Lower),
    ("wire.open8k.p99_us", "us", Lower),
    ("wire.open8k.backlog_max", "count", Lower),
    // generator: validity checks
    ("loadgen.cpu_share", "ratio", Lower),
    ("loadgen.pinned", "count", Higher),
    ("loadgen.sent", "count", Higher),
    ("loadgen.completed", "count", Higher),
    ("loadgen.late_p99_us", "us", Lower),
    // trace
    ("trace.spans", "count", Higher),
    ("trace.overhead_ratio", "ratio", Lower),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of one object per line, under `key`.
fn json_array(key: &str, objects: Vec<String>) -> String {
    format!("  \"{key}\": [\n    {}\n  ]", objects.join(",\n    "))
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let metric = |name: &str, unit: &str, better: Better| {
        format!(
            "\"name\": {}, \"unit\": {}, \"better\": {}",
            json_str(name),
            json_str(unit),
            json_str(better.as_str())
        )
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            format!("{{{}, \"bound\": {bound}}}", metric(name, unit, better))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| format!("{{{}}}", metric(name, unit, better)))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n{},\n{},\n{}\n}}\n",
        json_array("workloads", workloads),
        json_array("end_to_end", end_to_end),
        json_array("per_layer", per_layer),
    )
}

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` (which must be a manifest name) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not in the manifest"
        );
        assert!(value.is_finite(), "{name} measured {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one run reports as the last line of its standard output.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer checked was right and nothing was refused.
    pub correct: bool,
    /// Ops issued in the measured phase.
    pub attempted: u64,
    /// Of those: refused, errored, malformed or oracle-inconsistent.
    pub failed: u64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
    /// The measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Judges a run: `refused` ops came back with a non-OK status and
    /// `wrong` sampled answers disagreed with the oracle; both count as
    /// failed, and a single one makes the run incorrect. An untraced run
    /// reports the share that did not fail as `ok_ratio`.
    pub fn judge(
        traced: bool,
        attempted: u64,
        refused: u64,
        wrong: u64,
        mut metrics: Metrics,
    ) -> Outcome {
        let attempted = attempted.max(1);
        let failed = (refused + wrong).min(attempted);
        if !traced {
            metrics.set("ok_ratio", (attempted - failed) as f64 / attempted as f64);
        }
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            traced,
            metrics,
        }
    }

    /// The process exit code: 0 only when nothing failed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every end-to-end metric (untraced)
    /// or every per-layer metric (traced) in manifest order. A per-layer
    /// metric nobody measured is a layer off this workload's path: 0.
    pub fn to_json(&self) -> String {
        let names: Vec<(&str, &str)> = if self.traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        };
        let body: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => v,
                    None if self.traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_manifest_keeps_the_contracts_limits() {
        let mut names = BTreeSet::new();
        let valid_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let valid_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        for (name, unit, _, bound) in END_TO_END {
            assert!(valid_name(name) && names.insert(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!((0.0..=0.25).contains(&bound), "{name}: {bound}");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && names.insert(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 << 10);
    }
}
