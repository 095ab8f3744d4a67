//! Proptest strategies for random road networks (behind the
//! `arbitrary` feature).
//!
//! Every technique crate's property tests exercise the same contract —
//! "exact on arbitrary connected, positively-weighted, degree-bounded
//! graphs" — so the graph strategy lives here once. Connectivity comes
//! from a random spanning arborescence (vertex `i` links to a random
//! earlier vertex), which is also how real road extracts stay connected.

use proptest::prelude::*;

use crate::builder::GraphBuilder;
use crate::csr::RoadNetwork;
use crate::geo::Point;

/// Parameters of [`connected_network`].
#[derive(Debug, Clone, Copy)]
pub struct NetworkStrategyParams {
    /// Minimum vertex count (≥ 2).
    pub min_nodes: usize,
    /// Maximum vertex count.
    pub max_nodes: usize,
    /// Maximum extra (non-spine) edges as a multiple of n.
    pub extra_edge_factor: usize,
    /// Maximum edge weight (weights are 1..=max_weight).
    pub max_weight: u32,
    /// Coordinate range: points land in `[-span, span]²`.
    pub span: i32,
}

impl Default for NetworkStrategyParams {
    fn default() -> Self {
        NetworkStrategyParams {
            min_nodes: 2,
            max_nodes: 40,
            extra_edge_factor: 2,
            max_weight: 1000,
            span: 1000,
        }
    }
}

/// A connected random network with planar-ish coordinates.
pub fn connected_network(params: NetworkStrategyParams) -> impl Strategy<Value = RoadNetwork> {
    (params.min_nodes.max(2)..=params.max_nodes).prop_flat_map(move |n| {
        let coords =
            proptest::collection::vec((-params.span..=params.span, -params.span..=params.span), n);
        let spine = proptest::collection::vec((0u32..u32::MAX, 1u32..=params.max_weight), n - 1);
        let extra = proptest::collection::vec(
            (0u32..n as u32, 0u32..n as u32, 1u32..=params.max_weight),
            0..=params.extra_edge_factor * n,
        );
        (coords, spine, extra).prop_map(move |(coords, spine, extra)| {
            let mut b = GraphBuilder::with_capacity(coords.len(), spine.len() + extra.len());
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

/// The default strategy: 2..=40 vertices.
pub fn small_connected_network() -> impl Strategy<Value = RoadNetwork> {
    connected_network(NetworkStrategyParams::default())
}

/// Dense little networks with weights in 1..=3: a builder is handed many
/// parallel edges, and equal-weight ties — several shortest paths, or a
/// detour exactly as long as the direct route — are the rule rather than
/// the exception.
pub fn tie_heavy_network() -> impl Strategy<Value = RoadNetwork> {
    connected_network(NetworkStrategyParams {
        max_nodes: 14,
        extra_edge_factor: 4,
        max_weight: 3,
        ..NetworkStrategyParams::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #[test]
        fn strategy_yields_valid_networks(net in small_connected_network()) {
            prop_assert!(net.num_nodes() >= 2);
            // Connected: reachable count from 0 equals n (simple BFS).
            let mut seen = vec![false; net.num_nodes()];
            let mut stack = vec![0u32];
            seen[0] = true;
            let mut count = 1;
            while let Some(v) = stack.pop() {
                for (u, w) in net.neighbors(v) {
                    prop_assert!(w >= 1);
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        count += 1;
                        stack.push(u);
                    }
                }
            }
            prop_assert_eq!(count, net.num_nodes());
        }
    }
}
