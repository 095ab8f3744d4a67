//! Property: restriction is a pure execution-strategy change. On
//! arbitrary connected networks a restricted sweep, the sweep over
//! every vertex and a Dijkstra oracle agree for every way of writing a target set down;
//! range equals a truncated Dijkstra at every radius; early-terminated
//! kNN equals brute force, ties included.
//!
//! (Unreachable targets cannot be generated: `GraphBuilder::build`
//! rejects a disconnected network, and nothing public builds a
//! hierarchy over anything else.)

use std::sync::Arc;

use proptest::prelude::*;
use spq_ch::{ContractionHierarchy, UpwardSearch};
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::{connected_network, small_connected_network, NetworkStrategyParams};
use spq_graph::backend::Backend;
use spq_graph::types::{Dist, NodeId};
use spq_many::{KnnWorkspace, ManyBackend, OneToMany, PoiIndex, PoiSet, PoiTable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restricted_equals_full_sweep_equals_dijkstra(
        net in small_connected_network(),
        picks in proptest::collection::vec(0u32..u32::MAX, 1..24),
        rotate in 0usize..24,
    ) {
        let n = net.num_nodes() as NodeId;
        let ch = ContractionHierarchy::build(&net);
        let mut restricted = OneToMany::new(&ch);
        let mut full = OneToMany::new(&ch);
        let mut oracle = Dijkstra::new(net.num_nodes());
        // One set written four ways, then the two extremes.
        let base: Vec<NodeId> = picks.iter().map(|&p| p % n).collect();
        let mut rotated = base.clone();
        rotated.rotate_left(rotate % base.len());
        let mut doubled = base.clone();
        doubled.extend(base.iter().rev());
        let mut distinct = base.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let lists = [
            base.clone(),
            rotated,
            doubled,
            distinct,
            vec![base[0]],
            (0..n).collect(),
        ];
        let everyone: Vec<NodeId> = (0..n).collect();
        let (mut got, mut all) = (Vec::new(), Vec::new());
        for s in 0..n {
            oracle.run(&net, s);
            prop_assert!(full.table(&[s], &everyone, &mut all));
            for targets in &lists {
                prop_assert!(restricted.table(&[s], targets, &mut got));
                let swept: Vec<_> = targets.iter().map(|&t| all[t as usize]).collect();
                prop_assert_eq!(&got, &swept, "restricted vs full from {}", s);
                for (&t, &d) in targets.iter().zip(&got) {
                    prop_assert_eq!(d, oracle.distance(t), "({}, {})", s, t);
                }
            }
        }
        // Four spellings of one set, a singleton, everything: at most
        // three selections, however many sources asked.
        prop_assert!(restricted.selections_built() <= 3);
    }

    /// Tables through the serving session: N×1 is the transpose of 1×N,
    /// and every routed shape agrees with the oracle.
    #[test]
    fn session_tables_match_oracle(
        net in small_connected_network(),
        rows in proptest::collection::vec(0u32..u32::MAX, 0..12),
        cols in proptest::collection::vec(0u32..u32::MAX, 0..12),
    ) {
        let n = net.num_nodes() as NodeId;
        let backend = ManyBackend::new(Arc::new(ContractionHierarchy::build(&net)), PoiTable::empty());
        let mut session = backend.session(&net);
        let mut oracle = Dijkstra::new(net.num_nodes());
        let sources: Vec<NodeId> = rows.iter().map(|&p| p % n).collect();
        let targets: Vec<NodeId> = cols.iter().map(|&p| p % n).collect();
        let mut out = Vec::new();
        session.distances(&sources, &targets, &mut out);
        prop_assert_eq!(out.len(), sources.len() * targets.len());
        for (i, &s) in sources.iter().enumerate() {
            oracle.run(&net, s);
            for (j, &t) in targets.iter().enumerate() {
                prop_assert_eq!(out[i * targets.len() + j], oracle.distance(t), "({}, {})", s, t);
            }
        }
        if let Some(&t) = targets.first() {
            let (mut row, mut column) = (Vec::new(), Vec::new());
            session.distances(&[t], &sources, &mut row);
            session.distances(&sources, &[t], &mut column);
            prop_assert_eq!(row, column);
        }
    }

    /// Limits 0, a fraction of the eccentricity, the eccentricity itself
    /// and beyond it.
    #[test]
    fn range_matches_truncated_dijkstra(net in small_connected_network(), percent in 1u64..100) {
        let ch = ContractionHierarchy::build(&net);
        let mut o2m = OneToMany::new(&ch);
        let mut oracle = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as NodeId;
        let mut got = Vec::new();
        for s in 0..n {
            oracle.run(&net, s);
            let ecc = (0..n).filter_map(|v| oracle.distance(v)).max().unwrap_or(0);
            for limit in [0, ecc * percent / 100, ecc, ecc + 1, Dist::MAX] {
                let expect: Vec<(NodeId, Dist)> = (0..n)
                    .filter_map(|v| oracle.distance(v).filter(|&d| d <= limit).map(|d| (v, d)))
                    .collect();
                prop_assert!(o2m.range(s, limit, &mut got));
                prop_assert_eq!(&got, &expect, "range({}, {})", s, limit);
            }
        }
    }

    /// Unit weights make distance ties the rule, so the `(distance,
    /// vertex)` order and the strictly-greater stopping tests are what
    /// is being checked.
    #[test]
    fn early_terminated_knn_matches_brute_force_with_ties(
        net in connected_network(NetworkStrategyParams { max_weight: 2, ..Default::default() }),
        picks in proptest::collection::vec(0u32..u32::MAX, 1..16),
        k in 1usize..8,
    ) {
        let n = net.num_nodes() as NodeId;
        let set = PoiSet::new("p", net.num_nodes(), picks.iter().map(|&p| p % n).collect()).unwrap();
        let ch = ContractionHierarchy::build(&net);
        let index = PoiIndex::build(&ch, &set).unwrap();
        let mut ws = KnnWorkspace::new();
        let mut search = UpwardSearch::new(ch.search_graph());
        let mut oracle = Dijkstra::new(net.num_nodes());
        let mut got = Vec::new();
        for s in 0..n {
            oracle.run(&net, s);
            let mut expect: Vec<(Dist, NodeId)> = set
                .nodes()
                .iter()
                .filter_map(|&p| oracle.distance(p).map(|d| (d, p)))
                .collect();
            expect.sort_unstable();
            expect.truncate(k);
            prop_assert!(index.knn(&mut search, &mut ws, s, k, &mut got));
            let got: Vec<(Dist, NodeId)> = got.iter().map(|&(v, d)| (d, v)).collect();
            prop_assert_eq!(got, expect, "knn({}, k={})", s, k);
        }
    }
}
