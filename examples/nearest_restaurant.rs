//! The paper's §2 motivating scenario: "assume that a user has a list of
//! her favorite Italian restaurants, and she wants to identify the
//! restaurant that is closest to her working place q. She may issue a
//! distance query from q to each of the restaurants."
//!
//! Distance queries — not path queries — are the right tool here, and
//! this is where TNR shines (paper Figures 8–9): most restaurants are
//! far from q, so the tables answer in a few lookups.
//!
//! Run with: `cargo run --release -p spq-core --example nearest_restaurant`

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spq_serve::BackendKind;
use spq_synth::SynthParams;

fn main() {
    let net = spq_synth::generate(&SynthParams::with_target_vertices(8_000, 7));
    let n = net.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(99);

    // The workplace and fifty candidate restaurants, scattered anywhere.
    let workplace = rng.random_range(0..n);
    let restaurants: Vec<u32> = (0..50).map(|_| rng.random_range(0..n)).collect();

    println!(
        "network: {} vertices; workplace = v{workplace}; {} candidate restaurants",
        net.num_nodes(),
        restaurants.len()
    );

    for kind in [BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Tnr] {
        let built = kind.build(&net);
        let mut q = built.backend.session(&net);
        let t0 = Instant::now();
        let (best, dist) = restaurants
            .iter()
            .map(|&r| (r, q.distance(workplace, r).expect("connected")))
            .min_by_key(|&(_, d)| d)
            .expect("non-empty candidate list");
        let elapsed = t0.elapsed();
        println!(
            "{:<9} prep {:>9.3?} | 50 distance queries in {:>9.3?} ({:>8.2?}/query) -> nearest v{best} at distance {dist}",
            built.backend.backend_name(),
            built.build_time,
            elapsed,
            elapsed / restaurants.len() as u32,
        );
    }
}
