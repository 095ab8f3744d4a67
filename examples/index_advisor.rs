//! Reproduces the paper's §5 selection guidelines as a runnable advisor:
//! given a network and a workload mix, it measures each technique's
//! preprocessing time, space, and query latency, then prints a
//! recommendation following the paper's conclusions:
//!
//! * CH when both space and time efficiency matter;
//! * TNR(+CH) for distance-heavy workloads with far-apart endpoints;
//! * SILC for shortest-path-heavy workloads when space is no concern;
//! * PCPD — dominated by SILC, never recommended.
//!
//! Run with: `cargo run --release -p spq-core --example index_advisor`

use std::time::Instant;

use spq_queries::{linf_query_sets, QueryGenParams};
use spq_serve::BackendKind;
use spq_synth::SynthParams;

fn main() {
    let net = spq_synth::generate(&SynthParams::with_target_vertices(5_000, 3));
    let sets = linf_query_sets(
        &net,
        &QueryGenParams {
            per_set: 300,
            ..QueryGenParams::default()
        },
    );
    // Workload: a near band, a mid band and a far band, mixed.
    let mut workload: Vec<(u32, u32)> = Vec::new();
    for set in [&sets[2], &sets[5], &sets[8]] {
        workload.extend(set.pairs.iter().take(200));
    }
    println!(
        "network: {} vertices; workload: {} queries across near/mid/far bands\n",
        net.num_nodes(),
        workload.len()
    );

    println!(
        "{:<9} {:>12} {:>12} {:>16} {:>16}",
        "technique", "prep (ms)", "index (MB)", "distance (µs)", "path (µs)"
    );
    let mut rows = Vec::new();
    for kind in BackendKind::PAPER {
        let built = kind.build(&net);
        let mut q = built.backend.session(&net);

        let t0 = Instant::now();
        for &(s, t) in &workload {
            let _ = q.distance(s, t);
        }
        let dist_us = t0.elapsed().as_secs_f64() * 1e6 / workload.len() as f64;

        let t0 = Instant::now();
        for &(s, t) in &workload {
            let _ = q.shortest_path(s, t);
        }
        let path_us = t0.elapsed().as_secs_f64() * 1e6 / workload.len() as f64;

        let mb = built.index_bytes as f64 / (1024.0 * 1024.0);
        println!(
            "{:<9} {:>12.1} {:>12.2} {:>16.2} {:>16.2}",
            built.backend.backend_name(),
            built.build_time.as_secs_f64() * 1e3,
            mb,
            dist_us,
            path_us
        );
        rows.push((kind, mb, dist_us, path_us));
    }

    // The paper's guidance, applied to the measurements.
    println!("\nadvice (per the paper's conclusions):");
    println!("  balanced space/time ................ CH");
    let tnr = rows.iter().find(|r| r.0 == BackendKind::Tnr).unwrap();
    let ch = rows.iter().find(|r| r.0 == BackendKind::Ch).unwrap();
    if tnr.2 < ch.2 {
        println!(
            "  distance-query heavy, far pairs .... TNR (measured {:.2}µs vs CH {:.2}µs)",
            tnr.2, ch.2
        );
    } else {
        println!("  distance-query heavy ............... CH (TNR gains need farther pairs)");
    }
    let silc = rows.iter().find(|r| r.0 == BackendKind::Silc).unwrap();
    println!(
        "  path-query heavy, space-rich ....... SILC (measured {:.2}µs/path at {:.1} MB)",
        silc.3, silc.1
    );
    println!("  PCPD ............................... dominated by SILC; not recommended");
}
