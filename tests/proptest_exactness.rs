//! Property tests: on arbitrary connected degree-bounded graphs, every
//! technique's answers equal Dijkstra's, and every returned path is
//! edge-valid with optimal length.

use proptest::prelude::*;
use spq_dijkstra::Dijkstra;
use spq_graph::geo::Point;
use spq_graph::{GraphBuilder, NodeId, RoadNetwork};
use spq_serve::BackendKind;

/// A connected graph with random planar-ish coordinates: a random spine
/// guarantees connectivity, extra edges add alternative routes.
fn arb_network() -> impl Strategy<Value = RoadNetwork> {
    (3usize..28).prop_flat_map(|n| {
        let coords = proptest::collection::vec((-500i32..500, -500i32..500), n);
        let spine = proptest::collection::vec((0u32..u32::MAX, 1u32..500), n - 1);
        let extra = proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u32..500), 0..n);
        (coords, spine, extra).prop_map(move |(coords, spine, extra)| {
            let mut b = GraphBuilder::new();
            for (x, y) in &coords {
                b.add_node(Point::new(*x, *y));
            }
            for (i, (r, w)) in spine.iter().enumerate() {
                let child = (i + 1) as u32;
                b.add_edge(r % child, child, *w);
            }
            for (u, v, w) in extra {
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build().expect("spine guarantees connectivity")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_techniques_exact_on_arbitrary_graphs(net in arb_network()) {
        let mut reference = Dijkstra::new(net.num_nodes());
        let built: Vec<_> = BackendKind::PAPER.iter().map(|k| k.build(&net)).collect();
        let n = net.num_nodes() as NodeId;
        for s in 0..n {
            reference.run(&net, s);
            for t in 0..n {
                let expect = reference.distance(t);
                for b in &built {
                    let mut q = b.backend.session(&net);
                    prop_assert_eq!(
                        q.distance(s, t), expect,
                        "{} disagrees on ({},{})", b.backend.backend_name(), s, t
                    );
                    let (d, path) = q.shortest_path(s, t).expect("connected");
                    prop_assert_eq!(Some(d), expect);
                    prop_assert_eq!(path.first().copied(), Some(s));
                    prop_assert_eq!(path.last().copied(), Some(t));
                    prop_assert_eq!(net.path_length(&path), expect);
                }
            }
        }
    }

    #[test]
    fn index_sizes_are_reported(net in arb_network()) {
        for kind in BackendKind::PAPER {
            let built = kind.build(&net);
            if kind == BackendKind::Dijkstra {
                prop_assert_eq!(built.index_bytes, 0);
            } else {
                prop_assert!(built.index_bytes > 0);
            }
        }
    }

    /// PHAST one-to-many equals |T| independent Dijkstra distances,
    /// from every source, over the full vertex set as targets.
    #[test]
    fn phast_one_to_many_matches_dijkstra(net in arb_network()) {
        let ch = spq_ch::ContractionHierarchy::build(&net);
        let mut o2m = spq_many::OneToMany::new(&ch);
        let mut reference = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as NodeId;
        let targets: Vec<NodeId> = (0..n).collect();
        let mut out = Vec::new();
        for s in 0..n {
            prop_assert!(o2m.table(&[s], &targets, &mut out));
            reference.run(&net, s);
            for (&t, &got) in targets.iter().zip(out.iter()) {
                prop_assert_eq!(got, reference.distance(t), "o2m({}, {})", s, t);
            }
        }
    }

    /// Bucket-CH kNN equals brute force over the POI set: same
    /// neighbours, same distances, same (distance, vertex) order.
    #[test]
    fn bucket_knn_matches_brute_force(
        net in arb_network(),
        picks in proptest::collection::vec(0u32..u32::MAX, 1..8),
        k in 0usize..10,
    ) {
        let n = net.num_nodes() as NodeId;
        let mut nodes: Vec<NodeId> = picks.iter().map(|&p| p % n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let set = spq_many::PoiSet::new("p", net.num_nodes(), nodes).unwrap();
        let ch = spq_ch::ContractionHierarchy::build(&net);
        let index = spq_many::PoiIndex::build(&ch, &set).unwrap();
        let mut ws = spq_many::KnnWorkspace::new();
        let mut search = spq_ch::UpwardSearch::new(ch.search_graph());
        let mut reference = Dijkstra::new(net.num_nodes());
        let mut got = Vec::new();
        for s in 0..n {
            reference.run(&net, s);
            let mut expect: Vec<(u64, NodeId)> = set
                .nodes()
                .iter()
                .filter_map(|&p| reference.distance(p).map(|d| (d, p)))
                .collect();
            expect.sort_unstable();
            expect.truncate(k);
            prop_assert!(index.knn(&mut search, &mut ws, s, k, &mut got));
            let got_kv: Vec<(u64, NodeId)> = got.iter().map(|&(v, d)| (d, v)).collect();
            prop_assert_eq!(&got_kv, &expect, "knn({}, k={})", s, k);
        }
    }

    /// Range through every backend that serves it equals a truncated
    /// Dijkstra: exactly the vertices within the limit, ascending by
    /// vertex id, with exact distances. Limits are drawn around real
    /// eccentricities so both empty-ish and all-inclusive ranges occur.
    #[test]
    fn range_matches_truncated_dijkstra(net in arb_network(), frac in 0u32..120) {
        let built: Vec<_> = [BackendKind::Dijkstra, BackendKind::Ch]
            .iter()
            .map(|k| k.build(&net))
            .collect();
        let mut sessions: Vec<_> = built.iter().map(|b| b.backend.session(&net)).collect();
        let mut reference = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as NodeId;
        let mut out = Vec::new();
        for s in 0..n {
            reference.run(&net, s);
            let ecc = (0..n).filter_map(|v| reference.distance(v)).max().unwrap_or(0);
            let limit = ecc * u64::from(frac) / 100;
            let expect: Vec<(NodeId, u64)> = (0..n)
                .filter_map(|v| {
                    reference
                        .distance(v)
                        .filter(|&d| d <= limit)
                        .map(|d| (v, d))
                })
                .collect();
            for (b, session) in built.iter().zip(&mut sessions) {
                prop_assert!(session.range(s, limit, &mut out));
                prop_assert_eq!(
                    &out, &expect,
                    "{} range({}, {})", b.backend.backend_name(), s, limit
                );
            }
        }
    }
}
