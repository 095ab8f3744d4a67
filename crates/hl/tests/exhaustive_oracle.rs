//! Exhaustive small-world oracle for hub labels.
//!
//! Every connected simple graph on n labelled vertices, under every
//! weight vector in {1, 2}^m ([`every_small_graph`]), contracted in both
//! the heuristic and the identity order and labelled: for every ordered
//! pair, `HubLabels::distance` must equal Dijkstra's. Equal-length
//! alternatives are common at these weights, which is where the stall
//! test and the pruning against finished labels could drop the one
//! entry a pair needs.
//!
//! The tier-1 test covers n ≤ 4; the ignored one adds n = 5 (55 248
//! weighted graphs) and runs as a CI step in release.

use spq_ch::ContractionHierarchy;
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::every_small_graph;
use spq_graph::par;
use spq_graph::types::NodeId;
use spq_hl::HubLabels;

/// Checks every graph on exactly `n` vertices; returns how many
/// weighted graphs it built.
fn check_all_graphs(n: u32) -> usize {
    let mut oracle = Dijkstra::new(n as usize);
    let identity: Vec<NodeId> = (0..n).collect();
    every_small_graph(n, |g, edges, weights| {
        for ch in [
            ContractionHierarchy::build(g),
            ContractionHierarchy::build_with_order(g, &identity),
        ] {
            // One worker: the labels are the same at any thread count
            // (`wave_build_equals_the_two_pass_reference`), and a pool
            // per wave of a tiny graph would dominate the run.
            let labels = par::with_threads(1, || HubLabels::build(&ch));
            for s in 0..n {
                oracle.run(g, s);
                for t in 0..n {
                    assert_eq!(
                        labels.distance(s, t),
                        oracle.distance(t),
                        "edges {edges:?} weights {weights:#b}, ({s},{t})"
                    );
                }
            }
        }
    })
}

#[test]
fn every_weighted_graph_up_to_four_vertices() {
    let graphs: usize = (1..=4).map(check_all_graphs).sum();
    assert_eq!(graphs, 647);
}

#[test]
#[ignore = "55 248 weighted graphs; a CI step runs it in release"]
fn every_weighted_graph_on_five_vertices() {
    assert_eq!(check_all_graphs(5), 55_248);
}
