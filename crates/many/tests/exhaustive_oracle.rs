//! Exhaustive small-world oracle for the batched query shapes.
//!
//! Every connected simple graph on n labelled vertices, under every
//! weight vector in {1, 2}^m ([`every_small_graph`]), contracted in both
//! the heuristic and the identity order, against all-pairs Dijkstra:
//!
//! - `OneToMany::table` from every source to every vertex;
//! - `ManySession::range` and `BaselineSession::range` (the CH and the
//!   Dijkstra serving sessions' range, one `spq_dijkstra::Ball` each)
//!   from every source at every distinct radius (a distance some vertex
//!   has from the source) and one below it;
//! - `PoiIndex::knn` from every source over every non-empty POI subset
//!   and every k from 0 to one past the subset's size, ties ordered by
//!   `(distance, vertex)`;
//! - `ManySession` requests that name a whole registered set, every
//!   non-empty subset registered at once: one-to-many from every source
//!   to the set in reverse order, and the flipped table from the set to
//!   two vertices.
//!
//! One `OneToMany` and one kNN workspace answer every table and kNN
//! query of a hierarchy, the kNN queries on the `OneToMany`'s own upward
//! search as a serving session runs them, and one session of each kind
//! every range and registered-set request, so state one query leaves
//! behind is in the way of the next.
//!
//! The tier-1 test covers n ≤ 4; the ignored one adds n = 5 (55 248
//! weighted graphs) and runs as a CI step in release.

use std::sync::Arc;

use spq_ch::ContractionHierarchy;
use spq_dijkstra::{Baseline, Dijkstra};
use spq_graph::arbitrary::every_small_graph;
use spq_graph::backend::Backend;
use spq_graph::par;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_many::{KnnWorkspace, ManyBackend, OneToMany, PoiEntry, PoiIndex, PoiSet, PoiTable};

/// Checks every graph on exactly `n` vertices; returns how many
/// weighted graphs it built.
fn check_all_graphs(n: u32) -> usize {
    let mut oracle = Dijkstra::new(n as usize);
    let identity: Vec<NodeId> = (0..n).collect();
    every_small_graph(n, |g, edges, weights| {
        let case = format!("edges {edges:?} weights {weights:#b}");
        let rows: Vec<Vec<Dist>> = (0..n)
            .map(|s| {
                oracle.run(g, s);
                (0..n)
                    .map(|t| oracle.distance(t).expect("connected"))
                    .collect()
            })
            .collect();
        for ch in [
            ContractionHierarchy::build(g),
            ContractionHierarchy::build_with_order(g, &identity),
        ] {
            check_hierarchy(g, ch, &rows, &case);
        }
    })
}

fn check_hierarchy(g: &RoadNetwork, ch: ContractionHierarchy, rows: &[Vec<Dist>], case: &str) {
    let n = rows.len() as NodeId;
    let everyone: Vec<NodeId> = (0..n).collect();
    let pois = PoiTable::empty();
    pois.install(
        (1u32..1 << n)
            .map(|subset| {
                let nodes = (0..n).filter(|&v| subset >> v & 1 == 1).collect();
                let set =
                    PoiSet::new(&format!("p{subset}"), n as usize, nodes).expect("valid subset");
                // One worker: the build is the same at any thread count
                // (its own tests), and a pool per tiny set would
                // dominate the run.
                let index =
                    par::with_threads(1, || PoiIndex::build(&ch, &set)).expect("same network");
                PoiEntry { set, index }
            })
            .collect(),
    )
    .expect("fresh table");
    let backend = ManyBackend::new(Arc::new(ch), Arc::clone(&pois));
    let ch = &**backend.hierarchy();
    let mut session = backend.session(g);
    let mut baseline = Baseline.session(g);
    let mut o2m = OneToMany::new(ch);
    let mut out = Vec::new();
    let mut ball = Vec::new();
    for s in 0..n {
        let row = &rows[s as usize];
        assert!(o2m.table(&[s], &everyone, &mut out));
        let expect: Vec<Option<Dist>> = row.iter().map(|&d| Some(d)).collect();
        assert_eq!(out, expect, "table row {s}: {case}");

        let mut radii = row.clone();
        radii.extend(row.iter().filter(|&&d| d > 0).map(|&d| d - 1));
        radii.sort_unstable();
        radii.dedup();
        for limit in radii {
            let expect: Vec<(NodeId, Dist)> = (0..n)
                .map(|v| (v, row[v as usize]))
                .filter(|&(_, d)| d <= limit)
                .collect();
            for (name, session) in [("CH", &mut session), ("Dijkstra", &mut baseline)] {
                assert!(session.range(s, limit, &mut ball));
                assert!(!session.interrupted());
                assert_eq!(ball, expect, "{name} range({s}, {limit}): {case}");
            }
        }
    }

    let mut knn = KnnWorkspace::new();
    let mut hits = Vec::new();
    let mut cells = Vec::new();
    for PoiEntry { set, index } in pois.entries() {
        let nodes = set.nodes();
        let reversed: Vec<NodeId> = nodes.iter().rev().copied().collect();
        for s in 0..n {
            session.one_to_many(s, &reversed, &mut cells);
            let expect: Vec<Option<Dist>> = reversed
                .iter()
                .map(|&p| Some(rows[s as usize][p as usize]))
                .collect();
            assert_eq!(cells, expect, "one_to_many({s}) to {reversed:?}: {case}");
            let others = [s, (s + 1) % n];
            session.distances(&reversed, &others, &mut cells);
            let expect: Vec<Option<Dist>> = reversed
                .iter()
                .flat_map(|&p| others.map(|t| Some(rows[p as usize][t as usize])))
                .collect();
            assert_eq!(cells, expect, "table {reversed:?} x {others:?}: {case}");
            assert!(!session.interrupted());
        }
        for s in 0..n {
            let mut by_distance: Vec<(Dist, NodeId)> = nodes
                .iter()
                .map(|&p| (rows[s as usize][p as usize], p))
                .collect();
            by_distance.sort_unstable();
            for k in 0..=nodes.len() + 1 {
                assert!(index.knn(o2m.search(), &mut knn, s, k, &mut hits));
                let expect: Vec<(NodeId, Dist)> =
                    by_distance.iter().take(k).map(|&(d, p)| (p, d)).collect();
                assert_eq!(hits, expect, "knn({s}, {k}) over {nodes:?}: {case}");
            }
        }
    }
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
