//! Where does a restricted sweep start to pay? The measurement behind
//! `spq_many::O2M_SWEEP_CUTOFF` and the table routing rule of
//! `ManySession::distances` (EXPERIMENTS.md, "Restricted sweeps").
//!
//! For each network it prints, as markdown rows,
//!
//! * one source against |T| targets: |T| CH point queries, a **cold**
//!   sweep (a target set never seen before — selection built, then
//!   swept) and a **warm** one (the set is in the memo);
//! * |S|×|T| tables: `BatchDistances` against cold sweeps from the
//!   shorter side over the selection of the longer one.
//!
//! Target sets are uniform random vertices, the worst case for a
//! selection (nearby targets share most of their closure).
//!
//! Run with: `cargo run --release -p spq-core --example sweep_crossover`
//! (the four full-mode bench proxies), or `-- 100000` for one synthetic
//! network of about that many vertices (the benchmark's is `100000`).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spq_ch::{BatchDistances, ChQuery, ContractionHierarchy};
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;
use spq_many::OneToMany;
use spq_synth::{Dataset, Scale, SynthParams};

/// Timed repetitions per cell; the median is printed.
const REPS: usize = 31;

fn median_us(mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<u128> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    ns[REPS / 2] as f64 / 1e3
}

fn measure(name: &str, net: &RoadNetwork) {
    let n = net.num_nodes() as NodeId;
    let ch = ContractionHierarchy::build(net);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut pick =
        |count: usize| -> Vec<NodeId> { (0..count).map(|_| rng.random_range(0..n)).collect() };
    let mut point = ChQuery::new(&ch);
    let mut sweep = OneToMany::new(&ch);
    let mut batch = BatchDistances::new(&ch);
    let mut row = Vec::new();

    println!("\n{name}: {n} vertices\n");
    println!("| targets | pointwise µs | sweep, cold µs | sweep, warm µs |");
    println!("|---:|---:|---:|---:|");
    for count in [1usize, 2, 4, 8, 16, 32, 64] {
        let pointwise = median_us(|| {
            let s = pick(1)[0];
            for t in pick(count) {
                std::hint::black_box(point.distance(s, t));
            }
        });
        let cold = median_us(|| {
            let (s, targets) = (pick(1), pick(count));
            sweep.table(&s, &targets, &mut row);
        });
        let targets = pick(count);
        let warm = median_us(|| {
            sweep.table(&pick(1), &targets, &mut row);
        });
        println!("| {count} | {pointwise:.1} | {cold:.1} | {warm:.1} |");
    }

    println!("\n| table | `BatchDistances` µs | sweeps, cold µs |");
    println!("|---:|---:|---:|");
    for (rows, cols) in [
        (8usize, 128usize),
        (128, 8),
        (32, 32),
        (64, 64),
        (64, 512),
        (128, 128),
        (256, 256),
        (512, 512),
    ] {
        let batched = median_us(|| {
            std::hint::black_box(batch.table(&pick(rows), &pick(cols)));
        });
        // Sweep from the shorter side: the network is undirected.
        let (few, many) = (rows.min(cols), rows.max(cols));
        let swept = median_us(|| {
            sweep.table(&pick(few), &pick(many), &mut row);
        });
        println!("| {rows}×{cols} | {batched:.1} | {swept:.1} |");
    }
}

fn main() {
    match std::env::args().nth(1) {
        Some(target) => {
            let target: usize = target.parse().expect("vertex count");
            let net = spq_synth::generate(&SynthParams::with_target_vertices(target, 1));
            measure("synthetic", &net);
        }
        None => {
            for name in ["DE", "NH", "ME", "CO"] {
                let dataset = Dataset::by_name(name).expect("registered dataset");
                measure(name, &dataset.build(Scale::Paper));
            }
        }
    }
}
