//! Quick start: build a synthetic road network, preprocess every
//! technique, and answer one query with each.
//!
//! Run with: `cargo run --release -p spq-core --example quickstart`

use spq_graph::size::IndexSize;
use spq_serve::BackendKind;
use spq_synth::SynthParams;

fn main() {
    // A ~2,000-vertex network resembling a small state extract.
    let net = spq_synth::generate(&SynthParams::with_target_vertices(2_000, 42));
    println!(
        "network: {} vertices, {} edges, max degree {}",
        net.num_nodes(),
        net.num_edges(),
        net.max_degree()
    );
    let _ = &net as &dyn IndexSize; // the network itself reports its footprint

    let s = 0u32;
    let t = (net.num_nodes() - 1) as u32;

    for kind in BackendKind::PAPER {
        let built = kind.build(&net);
        let mut q = built.backend.session(&net);
        let d = q.distance(s, t).expect("connected network");
        let (pd, path) = q.shortest_path(s, t).expect("connected network");
        assert_eq!(d, pd);
        assert_eq!(net.path_length(&path), Some(pd), "path must be valid");
        println!(
            "{:<9} preprocessing {:>9.3?}  index {:>10} B  dist(s,t) = {:>7}  path = {} vertices",
            built.backend.backend_name(),
            built.build_time,
            built.index_bytes,
            d,
            path.len()
        );
    }
    println!("all five techniques agree.");
}
