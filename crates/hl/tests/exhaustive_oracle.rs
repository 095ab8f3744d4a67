//! Exhaustive small-world oracle for hub labels.
//!
//! Every connected simple graph on n labelled vertices, under every
//! weight vector in {1, 2}^m ([`every_small_graph`]), contracted in both
//! the heuristic and the identity order and labelled: every label must
//! equal the definition entry for entry ([`reference_labels`]), and for
//! every ordered pair `HubLabels::distance` must equal Dijkstra's.
//! Equal-length alternatives are common at these weights, which is where
//! merging the upward neighbours' labels and pruning against finished
//! labels could drop or keep one entry too many.
//!
//! The tier-1 test covers n ≤ 4; the ignored one adds n = 5 (55 248
//! weighted graphs) and runs as a CI step in release.

mod reference;

use reference::reference_labels;
use spq_ch::ContractionHierarchy;
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::every_small_graph;
use spq_graph::par;
use spq_graph::types::{Dist, NodeId};
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
            let sg = ch.search_graph();
            let expect = reference_labels(sg);
            for v in 0..n {
                let got: Vec<(u32, Dist)> = labels
                    .label(v)
                    .iter()
                    .map(|e| (e.hub, e.dist as Dist))
                    .collect();
                assert_eq!(
                    got,
                    expect[sg.rank_of(v) as usize],
                    "edges {edges:?} weights {weights:#b}, label of {v}"
                );
            }
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
