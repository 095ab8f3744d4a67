//! Property test: hub-labeling distances equal the Dijkstra oracle on
//! arbitrary connected networks — exhaustively, over every (s, t) pair.
//!
//! This is the labeling analogue of `tests/proptest_exactness.rs`: the
//! generator explores degenerate shapes (two-vertex paths, stars,
//! parallel-heavy multigraphs after dedup) that the curated toy graphs
//! never hit, and the label query must agree with the ground truth on
//! all of them.

use proptest::prelude::*;
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::{connected_network, NetworkStrategyParams};
use spq_graph::backend::Backend;
use spq_graph::{NodeId, RoadNetwork};
use spq_hl::Hl;

fn small_network() -> impl Strategy<Value = RoadNetwork> {
    connected_network(NetworkStrategyParams {
        min_nodes: 2,
        max_nodes: 40,
        ..NetworkStrategyParams::default()
    })
}

/// Few vertices, weights up to 2³¹: single label distances still fit
/// the 32-bit store (checked per case), sums of two routinely do not.
fn heavy_network() -> impl Strategy<Value = RoadNetwork> {
    connected_network(NetworkStrategyParams {
        min_nodes: 3,
        max_nodes: 5,
        extra_edge_factor: 1,
        max_weight: 1 << 31,
        ..NetworkStrategyParams::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sums_past_u32_stay_exact(net in heavy_network()) {
        let n = net.num_nodes() as NodeId;
        let mut oracle = Dijkstra::new(net.num_nodes());
        let mut truth = Vec::new();
        for s in 0..n {
            oracle.run(&net, s);
            truth.extend((0..n).map(|t| oracle.distance(t)));
        }
        // Every stored distance (and every shortcut) is a shortest
        // distance: a diameter within u32 keeps the build in range, and
        // nine cases in ten have one.
        if truth.iter().flatten().any(|&d| d > u32::MAX as u64) {
            return;
        }

        let hl = Hl::build(&net);
        let all: Vec<NodeId> = (0..n).collect();
        let mut table = Vec::new();
        hl.session(&net).distances(&all, &all, &mut table);
        prop_assert_eq!(&table, &truth, "scatter-scan table");
        for s in 0..n {
            for t in 0..n {
                prop_assert_eq!(
                    hl.labels().distance(s, t),
                    truth[(s * n + t) as usize],
                    "merge-scan ({}, {})", s, t
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn labels_match_dijkstra_on_every_pair(net in small_network()) {
        let hl = Hl::build(&net);
        let mut oracle = Dijkstra::new(net.num_nodes());
        for s in 0..net.num_nodes() as NodeId {
            oracle.run(&net, s);
            for t in 0..net.num_nodes() as NodeId {
                prop_assert_eq!(
                    hl.labels().distance(s, t),
                    oracle.distance(t),
                    "HL disagrees with Dijkstra on ({}, {})", s, t
                );
            }
        }
    }

    #[test]
    fn label_store_is_symmetric(net in small_network()) {
        // The network is undirected, so the merge of L(s) and L(t) must
        // be order-insensitive.
        let hl = Hl::build(&net);
        for s in 0..net.num_nodes() as NodeId {
            for t in s..net.num_nodes() as NodeId {
                prop_assert_eq!(hl.labels().distance(s, t), hl.labels().distance(t, s));
            }
        }
    }
}
