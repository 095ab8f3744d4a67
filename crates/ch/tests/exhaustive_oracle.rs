//! Exhaustive small-world oracle for the CH point kernel.
//!
//! Every connected simple graph on n labelled vertices, under every
//! weight vector in {1, 2}^m, contracted in both the heuristic and the
//! identity order: for every ordered pair, `distance` must equal
//! Dijkstra's, and `shortest_path` must return that length along edges
//! that exist, from `s` to `t`. One workspace answers all pairs of a
//! hierarchy in turn, so state one query leaves behind is in the way of
//! the next. Weights of 1 and 2 make equal-length alternatives common,
//! which is where shortcut tags and witness searches go wrong.
//!
//! The tier-1 test covers n ≤ 4; the ignored one adds n = 5 (55 248
//! weighted graphs) and runs as its own CI step in release.

use spq_ch::{ChQuery, ContractionHierarchy};
use spq_dijkstra::Dijkstra;
use spq_graph::geo::Point;
use spq_graph::types::NodeId;
use spq_graph::{GraphBuilder, RoadNetwork};

/// Checks every graph on exactly `n` vertices; returns how many
/// weighted graphs it built.
fn check_all_graphs(n: u32) -> usize {
    let slots: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let mut oracle = Dijkstra::new(n as usize);
    let identity: Vec<NodeId> = (0..n).collect();
    let mut graphs = 0;
    for mask in 0u32..1 << slots.len() {
        let edges: Vec<(u32, u32)> = slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        if !connected(n, &edges) {
            continue;
        }
        for weights in 0u32..1 << edges.len() {
            let mut b = GraphBuilder::new();
            for v in 0..n {
                // A small lattice, so coordinates are distinct but close.
                b.add_node(Point::new((v % 3) as i32, (v / 3) as i32));
            }
            for (i, &(u, v)) in edges.iter().enumerate() {
                b.add_edge(u, v, 1 + (weights >> i & 1));
            }
            let g = b.build().expect("connected simple graph");
            for ch in [
                ContractionHierarchy::build(&g),
                ContractionHierarchy::build_with_order(&g, &identity),
            ] {
                check_all_pairs(&g, &ch, &mut oracle, &edges, weights);
            }
            graphs += 1;
        }
    }
    graphs
}

fn check_all_pairs(
    g: &RoadNetwork,
    ch: &ContractionHierarchy,
    oracle: &mut Dijkstra,
    edges: &[(u32, u32)],
    weights: u32,
) {
    let n = g.num_nodes() as NodeId;
    let mut q = ChQuery::new(ch);
    for s in 0..n {
        oracle.run(g, s);
        for t in 0..n {
            let expect = oracle.distance(t);
            let case = format!("edges {edges:?} weights {weights:#b}, ({s},{t})");
            assert_eq!(q.distance(s, t), expect, "distance: {case}");
            let (d, path) = q.shortest_path(s, t).expect("connected");
            assert_eq!(Some(d), expect, "path length: {case}");
            assert_eq!((path[0], path[path.len() - 1]), (s, t), "endpoints: {case}");
            assert_eq!(g.path_length(&path), expect, "path {path:?}: {case}");
        }
    }
}

fn connected(n: u32, edges: &[(u32, u32)]) -> bool {
    let mut reached = 1u32;
    loop {
        let grown = edges.iter().fold(reached, |r, &(u, v)| {
            if r >> u & 1 == 1 || r >> v & 1 == 1 {
                r | 1 << u | 1 << v
            } else {
                r
            }
        });
        if grown == reached {
            return reached == (1 << n) - 1;
        }
        reached = grown;
    }
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
