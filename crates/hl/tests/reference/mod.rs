//! The definition of a hierarchy's hub labels, computed the slow way,
//! for tests to hold the build to.

use spq_ch::{SearchGraph, UpwardSearch};
use spq_graph::types::Dist;

/// The labels by rank: every rank's full upward search space, keeping
/// `(h, d)` only where the raw-against-raw label query — the minimum
/// over common hubs `x` of `S(r)[x] + S(h)[x]` — confirms `d`. Each
/// label is sorted by hub.
pub fn reference_labels(sg: &SearchGraph) -> Vec<Vec<(u32, Dist)>> {
    let mut search = UpwardSearch::new(sg);
    let raw: Vec<Vec<(u32, Dist)>> = (0..sg.num_nodes() as u32)
        .map(|r| {
            let mut space = Vec::new();
            search.search_space(r, &mut space);
            space.sort_unstable();
            space
        })
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
