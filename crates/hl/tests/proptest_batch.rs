//! Property: HL's batched DISTANCES path (the dense scatter-scan) is
//! bit-identical to the pointwise merge-scan and to the Dijkstra oracle
//! on arbitrary connected networks, and a budget-interrupted batch
//! never fabricates an entry — every answered cell is exact, every
//! unanswered cell is `None`.

use proptest::prelude::*;
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::small_connected_network;
use spq_graph::backend::{Backend, QueryBudget};
use spq_graph::types::NodeId;
use spq_hl::Hl;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_distances_bit_identical_to_pointwise_and_oracle(net in small_connected_network()) {
        let hl = Hl::build(&net);
        let mut session = hl.session(&net);
        let mut oracle = Dijkstra::new(net.num_nodes());
        let all: Vec<NodeId> = (0..net.num_nodes() as NodeId).collect();
        let ragged: Vec<NodeId> = all.iter().copied().step_by(3).collect();
        for (sources, targets) in [(all.clone(), all.clone()), (ragged.clone(), all.clone())] {
            let mut out = Vec::new();
            session.distances(&sources, &targets, &mut out);
            prop_assert!(!session.interrupted());
            prop_assert_eq!(out.len(), sources.len() * targets.len());
            for (i, &s) in sources.iter().enumerate() {
                oracle.run(&net, s);
                for (j, &t) in targets.iter().enumerate() {
                    let cell = out[i * targets.len() + j];
                    prop_assert_eq!(cell, oracle.distance(t), "oracle ({}, {})", s, t);
                    prop_assert_eq!(cell, session.distance(s, t), "pointwise ({}, {})", s, t);
                }
            }
        }
    }

    #[test]
    fn interrupted_batch_fabricates_nothing(net in small_connected_network()) {
        let hl = Hl::build(&net);
        let mut session = hl.session(&net);
        let sources: Vec<NodeId> = (0..net.num_nodes() as NodeId).collect();
        let targets = sources.clone();
        if sources.len() < 2 {
            return;
        }
        // HL charges once per pair, so a mid-table cap answers a prefix
        // exactly and the rest None — never a wrong distance.
        let cap = (sources.len() * targets.len() / 2) as u64;
        session.set_budget(&QueryBudget::unlimited().with_node_cap(cap));
        let mut out = Vec::new();
        session.distances(&sources, &targets, &mut out);
        prop_assert!(session.interrupted());
        prop_assert_eq!(out.len(), sources.len() * targets.len());
        let mut oracle = Dijkstra::new(net.num_nodes());
        for (i, &s) in sources.iter().enumerate() {
            oracle.run(&net, s);
            for (j, &t) in targets.iter().enumerate() {
                let k = i * targets.len() + j;
                if (k as u64) < cap {
                    prop_assert_eq!(out[k], oracle.distance(t), "answered prefix ({}, {})", s, t);
                } else {
                    prop_assert_eq!(out[k], None, "cell {} after the trip", k);
                }
            }
        }
    }
}
