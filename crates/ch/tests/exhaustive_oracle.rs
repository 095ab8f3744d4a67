//! Exhaustive small-world oracle for the CH kernels of this crate.
//!
//! Every connected simple graph on n labelled vertices, under every
//! weight vector in {1, 2}^m ([`every_small_graph`]), contracted in both
//! the heuristic and the identity order:
//!
//! - the point kernel: for every ordered pair, `distance` must equal
//!   Dijkstra's, and `shortest_path` must return that length along edges
//!   that exist, from `s` to `t`;
//! - the tables: `ManyToMany::table`, `par_table` and
//!   `BatchDistances::table` over every vertex both ways must equal the
//!   all-pairs Dijkstra matrix.
//!
//! One workspace of each kind answers everything of a hierarchy in
//! turn, so state one query leaves behind is in the way of the next.
//!
//! The tier-1 test covers n ≤ 4; the ignored one adds n = 5 (55 248
//! weighted graphs) and runs as a CI step in release.

use spq_ch::{par_table, BatchDistances, ChQuery, ContractionHierarchy, ManyToMany};
use spq_dijkstra::Dijkstra;
use spq_graph::arbitrary::every_small_graph;
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;

/// Checks every graph on exactly `n` vertices; returns how many
/// weighted graphs it built.
fn check_all_graphs(n: u32) -> usize {
    let mut oracle = Dijkstra::new(n as usize);
    let identity: Vec<NodeId> = (0..n).collect();
    every_small_graph(n, |g, edges, weights| {
        let case = format!("edges {edges:?} weights {weights:#b}");
        let matrix: Vec<Dist> = (0..n)
            .flat_map(|s| {
                oracle.run(g, s);
                (0..n)
                    .map(|t| oracle.distance(t).unwrap_or(INFINITY))
                    .collect::<Vec<_>>()
            })
            .collect();
        for ch in [
            ContractionHierarchy::build(g),
            ContractionHierarchy::build_with_order(g, &identity),
        ] {
            check_point_queries(g, &ch, &matrix, &case);
            check_tables(&ch, &identity, &matrix, &case);
        }
    })
}

fn check_point_queries(g: &RoadNetwork, ch: &ContractionHierarchy, matrix: &[Dist], case: &str) {
    let n = g.num_nodes() as NodeId;
    let mut q = ChQuery::new(ch);
    for s in 0..n {
        for t in 0..n {
            let expect = Some(matrix[(s * n + t) as usize]);
            let case = format!("{case}, ({s},{t})");
            assert_eq!(q.distance(s, t), expect, "distance: {case}");
            let (d, path) = q.shortest_path(s, t).expect("connected");
            assert_eq!(Some(d), expect, "path length: {case}");
            assert_eq!((path[0], path[path.len() - 1]), (s, t), "endpoints: {case}");
            assert_eq!(g.path_length(&path), expect, "path {path:?}: {case}");
        }
    }
}

/// The three table kernels over every vertex, each twice on one
/// workspace (the second table sees what the first left behind).
fn check_tables(ch: &ContractionHierarchy, all: &[NodeId], matrix: &[Dist], case: &str) {
    let mut m2m = ManyToMany::new(ch);
    let mut batch = BatchDistances::new(ch);
    for _ in 0..2 {
        assert_eq!(m2m.table(all, all), matrix, "ManyToMany::table: {case}");
        assert_eq!(
            batch.table(all, all).expect("unlimited budget"),
            matrix,
            "BatchDistances::table: {case}"
        );
    }
    assert_eq!(par_table(ch, all, all), matrix, "par_table: {case}");
}

#[test]
fn every_weighted_graph_up_to_four_vertices() {
    let graphs: usize = (1..=4).map(check_all_graphs).sum();
    // 1 + 2 + 20 + 624 weighted connected graphs on 1..=4 vertices.
    assert_eq!(graphs, 647);
}

#[test]
#[ignore = "55 248 weighted graphs; a CI step runs it in release"]
fn every_weighted_graph_on_five_vertices() {
    assert_eq!(check_all_graphs(5), 55_248);
}
