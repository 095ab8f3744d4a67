//! The network range query — the one range search every backend
//! serves: every `(v, dist(s, v))` within a limit, in id order.
//!
//! A ball needs distances and nothing else, so [`Ball`] keeps the least
//! state a Dijkstra can: the label, stored as the bitwise complement of
//! the distance so that 0 means "not reached" and an unreached vertex
//! reads as `u64::MAX`, above every tentative distance; and the queue's
//! slot ([`SlotHeap`] over `[u32]`). That is 12 bytes per vertex, with
//! no parents, first hops or version stamps. The arrays are allocated on
//! the first search — constructing a workspace allocates nothing — and
//! each search starts by zeroing only what the previous one touched:
//! the vertices it settled and the entries still queued when its budget
//! tripped.
//!
//! The search relaxes an edge only while `d + w <= limit`, so nothing
//! past the limit is ever queued and every vertex it settles is in the
//! ball: the budget is charged once per vertex of the ball. The ball is
//! emitted in id order by setting one bit per member in a bitset of
//! `n / 64` words and scanning it, each word zeroed as it is read,
//! instead of sorting.

use spq_graph::backend::QueryBudget;
use spq_graph::heap::SlotHeap;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

/// A reusable range-query workspace (module docs). One per worker
/// thread.
#[derive(Debug, Default)]
pub struct Ball {
    /// `!dist` per vertex, 0 where not reached; empty until the first
    /// search.
    labels: Vec<Dist>,
    /// The queue's slot per vertex (see [`spq_graph::heap::Slots`]).
    slots: Vec<u32>,
    /// Vertices settled since the last reset: the ball, in settle order.
    settled: Vec<NodeId>,
    /// One bit per vertex, all clear between searches.
    bits: Vec<u64>,
    heap: SlotHeap,
}

impl Ball {
    /// A workspace; allocates nothing until the first search.
    pub fn new() -> Self {
        Ball::default()
    }

    /// Fills `out` with every `(v, dist(source, v))` within `limit`,
    /// ascending by vertex id, charging `budget` once per vertex of the
    /// ball. Returns `false` (with `out` cleared) if the budget tripped.
    pub fn range(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        limit: Dist,
        budget: &mut QueryBudget,
        out: &mut Vec<(NodeId, Dist)>,
    ) -> bool {
        out.clear();
        self.reset(net.num_nodes());
        self.reach(source, 0);
        while let Some((d, u)) = self.heap.pop_min(&mut self.slots[..]) {
            // Recorded before the charge: a trip here leaves `u`'s label
            // for the next reset to find.
            self.settled.push(u);
            if !budget.charge() {
                return false;
            }
            for (v, w) in net.neighbors(u) {
                let nd = d + w as Dist;
                // An unreached head reads as `u64::MAX`.
                if nd <= limit && nd < !self.labels[v as usize] {
                    self.reach(v, nd);
                }
            }
        }
        for &v in &self.settled {
            self.bits[v as usize / 64] |= 1 << (v % 64);
        }
        for (i, word) in self.bits.iter_mut().enumerate() {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                let v = (i * 64) as NodeId + rest.trailing_zeros();
                out.push((v, !self.labels[v as usize]));
                rest &= rest - 1;
            }
        }
        true
    }

    /// Records `v` as reached at `d` and queues or re-keys it.
    #[inline]
    fn reach(&mut self, v: NodeId, d: Dist) {
        self.labels[v as usize] = !d;
        self.heap.push_or_decrease(&mut self.slots[..], v, d);
    }

    /// Sizes the arrays on first use, and zeroes what the last search
    /// touched: every vertex it reached was settled or is still queued.
    fn reset(&mut self, n: usize) {
        if self.labels.len() < n {
            let capacity = 1024.min(n);
            self.labels = vec![0; n];
            self.slots = vec![0; n];
            self.bits = vec![0; n.div_ceil(64)];
            self.settled = Vec::with_capacity(capacity);
            self.heap = SlotHeap::with_capacity(capacity);
            return;
        }
        for &v in &self.settled {
            self.labels[v as usize] = 0;
        }
        for v in self.heap.nodes() {
            self.labels[v as usize] = 0;
            self.slots[v as usize] = 0;
        }
        self.settled.clear();
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dijkstra;
    use spq_graph::toy::grid_graph;

    /// The ball of a full run, cut at `limit`, in id order.
    fn truncated(d: &mut Dijkstra, g: &RoadNetwork, s: NodeId, limit: Dist) -> Vec<(NodeId, Dist)> {
        d.run(g, s);
        (0..g.num_nodes() as NodeId)
            .filter_map(|v| d.distance(v).filter(|&x| x <= limit).map(|x| (v, x)))
            .collect()
    }

    #[test]
    fn construction_allocates_nothing() {
        let ball = Ball::new();
        assert_eq!(ball.labels.capacity(), 0);
        assert_eq!(ball.slots.capacity(), 0);
        assert_eq!(ball.bits.capacity(), 0);
        assert_eq!(ball.settled.capacity(), 0);
    }

    #[test]
    fn range_matches_truncated_dijkstra() {
        let g = grid_graph(8, 8);
        let mut ball = Ball::new();
        let mut oracle = Dijkstra::new(g.num_nodes());
        for (s, limit) in [
            (0u32, 0u64),
            (0, 3),
            (27, 5),
            (63, 1_000_000),
            (9, u64::MAX),
        ] {
            let mut got = vec![(0, 0)];
            let mut budget = QueryBudget::unlimited();
            assert!(ball.range(&g, s, limit, &mut budget, &mut got));
            assert_eq!(
                got,
                truncated(&mut oracle, &g, s, limit),
                "source {s} limit {limit}"
            );
        }
    }

    /// Trips the budget after every possible number of charges: the
    /// answer is cleared, and the next range on the workspace is exact.
    #[test]
    fn range_budget_trip_anywhere_clears_out() {
        let g = grid_graph(10, 10);
        let mut ball = Ball::new();
        let mut oracle = Dijkstra::new(g.num_nodes());
        let expect = truncated(&mut oracle, &g, 20, 4);
        let mut got = Vec::new();
        let mut cap = 0;
        loop {
            let mut budget = QueryBudget::unlimited().with_node_cap(cap);
            if ball.range(&g, 20, 4, &mut budget, &mut got) {
                break;
            }
            assert!(budget.exhausted());
            assert!(
                got.is_empty(),
                "cap {cap}: interrupted range leaked entries"
            );
            let mut fresh = QueryBudget::unlimited();
            assert!(ball.range(&g, 99, 3, &mut fresh, &mut got));
            assert_eq!(got, truncated(&mut oracle, &g, 99, 3), "after cap {cap}");
            cap += 1;
        }
        assert_eq!(
            cap as usize,
            expect.len(),
            "one charge per vertex of the ball"
        );
        assert_eq!(got, expect);
    }

    /// Nothing past the limit is ever queued, and a finished search
    /// leaves no bit set.
    #[test]
    fn the_search_never_reaches_past_the_limit() {
        let g = grid_graph(9, 9);
        let mut ball = Ball::new();
        let mut got = Vec::new();
        assert!(ball.range(&g, 40, 2, &mut QueryBudget::unlimited(), &mut got));
        let reached = ball.labels.iter().filter(|&&l| l != 0).count();
        assert_eq!(reached, got.len());
        assert!(got.iter().all(|&(_, d)| d <= 2));
        assert!(ball.bits.iter().all(|&w| w == 0));
    }
}
