//! Property: CH is exact on arbitrary connected positively-weighted
//! graphs — distances equal Dijkstra's, paths are edge-valid and optimal
//! — and the hierarchy it answers from has the shape unpacking relies on.

use proptest::prelude::*;
use spq_ch::search_graph::NO_MIDDLE;
use spq_ch::{ChQuery, ContractionHierarchy};
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::{small_connected_network, tie_heavy_network};
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;

/// The whole contract of the point kernel against the Dijkstra oracle:
/// every distance, and for every pair a path with the right endpoints
/// whose edges exist and sum to that distance.
fn check_exact(net: &RoadNetwork) {
    let ch = ContractionHierarchy::build(net);
    let mut q = ChQuery::new(&ch);
    let mut d = Dijkstra::new(net.num_nodes());
    for s in 0..net.num_nodes() as NodeId {
        d.run(net, s);
        for t in 0..net.num_nodes() as NodeId {
            prop_assert_eq!(q.distance(s, t), d.distance(t));
            let (pd, path) = q.shortest_path(s, t).unwrap();
            prop_assert_eq!(Some(pd), d.distance(t));
            prop_assert_eq!(net.path_length(&path), Some(pd));
            prop_assert_eq!((path[0], path[path.len() - 1]), (s, t));
        }
    }
}

/// The hierarchy-shape property: ranks form a permutation, upward
/// targets ascend strictly above their source, and every shortcut's two
/// halves are upward edges of its tag whose weights sum to its own.
fn check_shape(net: &RoadNetwork) {
    let ch = ContractionHierarchy::build(net);
    let sg = ch.search_graph();
    let weight_of = |from: u32, to: u32| {
        let mut hits = sg.up(from).iter().filter(|e| e.target == to);
        let weight = hits.next().map(|e| e.weight as u64);
        assert!(hits.next().is_none(), "one record per pair");
        weight
    };
    let mut stored_shortcuts = 0;
    for v in 0..net.num_nodes() as NodeId {
        let a = sg.rank_of(v);
        prop_assert_eq!(sg.orig_of(a), v);
        let mut above = a;
        for e in sg.up(a) {
            prop_assert!(e.target > above, "targets ascend strictly above the source");
            above = e.target;
            if e.middle == NO_MIDDLE {
                let (u, w) = (sg.orig_of(a), sg.orig_of(e.target));
                prop_assert_eq!(net.edge_weight(u, w), Some(e.weight), "a road edge");
            } else {
                stored_shortcuts += 1;
                prop_assert!(e.middle < a);
                let halves = weight_of(e.middle, a).zip(weight_of(e.middle, e.target));
                prop_assert_eq!(halves.map(|(x, y)| x + y), Some(e.weight as u64));
            }
        }
    }
    prop_assert!(stored_shortcuts <= ch.num_shortcuts());
}

/// The heuristic build is its own order replayed: contracting the ranks
/// `build` chose, in rank order, through `build_with_order` yields the
/// same hierarchy and the same shortcut count.
fn check_replay(net: &RoadNetwork) {
    let ch = ContractionHierarchy::build(net);
    let sg = ch.search_graph();
    let order: Vec<NodeId> = (0..net.num_nodes() as u32).map(|r| sg.orig_of(r)).collect();
    let replayed = ContractionHierarchy::build_with_order(net, &order);
    prop_assert_eq!(replayed.search_graph(), sg);
    prop_assert_eq!(replayed.num_shortcuts(), ch.num_shortcuts());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_on_arbitrary_graphs(net in small_connected_network()) {
        check_exact(&net);
    }

    #[test]
    fn exact_under_parallel_edges_and_ties(net in tie_heavy_network()) {
        check_exact(&net);
    }

    #[test]
    fn upward_graph_invariants(net in small_connected_network()) {
        check_shape(&net);
    }

    #[test]
    fn upward_graph_invariants_under_ties(net in tie_heavy_network()) {
        check_shape(&net);
    }

    #[test]
    fn replaying_the_heuristic_order_rebuilds_the_same_hierarchy(net in small_connected_network()) {
        check_replay(&net);
    }

    #[test]
    fn replaying_the_heuristic_order_rebuilds_the_same_hierarchy_under_ties(
        net in tie_heavy_network()
    ) {
        check_replay(&net);
    }
}
