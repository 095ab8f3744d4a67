//! Property: the batch kernel [`BatchDistances::table_into`] is a pure
//! execution-strategy change — on arbitrary connected networks it
//! returns bit-identical answers to the pointwise CH query and to the
//! Dijkstra oracle, for ragged batch shapes (sizes not dividing the lane
//! width) and duplicate endpoints as well as lane-aligned ones, and a
//! budget-interrupted table never fabricates an entry.

use proptest::prelude::*;
use spq_ch::{BatchDistances, ChQuery, ContractionHierarchy, LANES};
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::small_connected_network;
use spq_graph::backend::QueryBudget;
use spq_graph::types::{Dist, NodeId, INFINITY};

/// Endpoint sets carved out of `0..n` with co-prime strides so shapes
/// are ragged with respect to the lane width whenever `n` allows.
fn endpoint_sets(n: usize) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    let all: Vec<NodeId> = (0..n as NodeId).collect();
    let mut shapes = vec![
        // Lane-aligned and full.
        (all.clone(), all.clone()),
        // Ragged: strides 3 and 5 rarely produce multiples of LANES.
        (
            all.iter().copied().step_by(3).collect(),
            all.iter().copied().step_by(5).collect(),
        ),
        // Degenerate rows and columns.
        (all[..1].to_vec(), all.clone()),
        (all.clone(), all[..1].to_vec()),
    ];
    // One shape that is ragged by construction: LANES + 1 sources (when
    // the network is big enough), with duplicates in the target list.
    if n > LANES {
        let mut targets: Vec<NodeId> = all.iter().copied().take(5).collect();
        targets.push(targets[0]);
        shapes.push((all.iter().copied().take(LANES + 1).collect(), targets));
    }
    shapes
}

/// A table cell as the point kernel reports it.
fn cell(d: Dist) -> Option<Dist> {
    (d < INFINITY).then_some(d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_distances_bit_identical_to_pointwise_and_oracle(net in small_connected_network()) {
        let ch = ContractionHierarchy::build(&net);
        let mut batch = BatchDistances::new(&ch);
        let mut point = ChQuery::new(&ch);
        let mut oracle = Dijkstra::new(net.num_nodes());
        let mut out = Vec::new();
        for (sources, targets) in endpoint_sets(net.num_nodes()) {
            prop_assert!(batch.table_into(&sources, &targets, &mut out));
            prop_assert!(!batch.budget_exhausted());
            prop_assert_eq!(out.len(), sources.len() * targets.len());
            for (i, &s) in sources.iter().enumerate() {
                oracle.run(&net, s);
                for (j, &t) in targets.iter().enumerate() {
                    let got = cell(out[i * targets.len() + j]);
                    prop_assert_eq!(got, oracle.distance(t), "oracle ({}, {})", s, t);
                    prop_assert_eq!(got, point.distance(s, t), "pointwise ({}, {})", s, t);
                }
            }
        }
    }

    #[test]
    fn interrupted_batch_fabricates_nothing(net in small_connected_network()) {
        let ch = ContractionHierarchy::build(&net);
        let mut batch = BatchDistances::new(&ch);
        let n = net.num_nodes() as NodeId;
        let sources: Vec<NodeId> = (0..n).step_by(2).collect();
        let targets: Vec<NodeId> = (0..n).collect();
        // A one-node cap trips inside the first sweep.
        batch.set_budget(&QueryBudget::unlimited().with_node_cap(1));
        let mut out = vec![0; 3];
        prop_assert!(!batch.table_into(&sources, &targets, &mut out));
        prop_assert!(batch.budget_exhausted());
        prop_assert!(out.is_empty(), "no fabricated entries");
        // A fresh budget fully recovers the same workspace.
        batch.set_budget(&QueryBudget::unlimited());
        prop_assert!(batch.table_into(&sources, &targets, &mut out));
        prop_assert!(!batch.budget_exhausted());
        let mut oracle = Dijkstra::new(net.num_nodes());
        for (i, &s) in sources.iter().enumerate() {
            oracle.run(&net, s);
            for (j, &t) in targets.iter().enumerate() {
                prop_assert_eq!(cell(out[i * targets.len() + j]), oracle.distance(t));
            }
        }
    }
}
