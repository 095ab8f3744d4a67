//! The definition of a hierarchy's hub labels, computed the slow way,
//! for tests to hold the build to.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spq_ch::SearchGraph;
use spq_graph::types::{Dist, INFINITY};

/// Rank `root`'s full upward search space, sorted by rank: a textbook
/// Dijkstra along upward edges with its own arrays, sharing no code
/// with the kernels under test.
fn upward_space(sg: &SearchGraph, root: u32) -> Vec<(u32, Dist)> {
    let mut dist = vec![INFINITY; sg.num_nodes()];
    let mut heap = BinaryHeap::from([Reverse((0, root))]);
    dist[root as usize] = 0;
    let mut space = Vec::new();
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        space.push((u, d));
        for e in sg.up(u) {
            let nd = d + e.weight as Dist;
            if nd < dist[e.target as usize] {
                dist[e.target as usize] = nd;
                heap.push(Reverse((nd, e.target)));
            }
        }
    }
    space.sort_unstable();
    space
}

/// The labels by rank: every rank's full upward search space, keeping
/// `(h, d)` only where the raw-against-raw label query — the minimum
/// over common hubs `x` of `S(r)[x] + S(h)[x]` — confirms `d`. Each
/// label is sorted by hub.
pub fn reference_labels(sg: &SearchGraph) -> Vec<Vec<(u32, Dist)>> {
    let raw: Vec<Vec<(u32, Dist)>> = (0..sg.num_nodes() as u32)
        .map(|r| upward_space(sg, r))
        .collect();
    let query = |a: &[(u32, Dist)], b: &[(u32, Dist)]| {
        a.iter()
            .filter_map(|&(x, d)| b.iter().find(|e| e.0 == x).map(|e| d + e.1))
            .min()
    };
    raw.iter()
        .map(|space| {
            space
                .iter()
                .copied()
                .filter(|&(h, d)| query(space, &raw[h as usize]) == Some(d))
                .collect()
        })
        .collect()
}
