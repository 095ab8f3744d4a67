//! SILC query processing: first-hop walking (paper §3.4).

use spq_graph::backend::QueryBudget;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

use crate::index::Silc;

/// Reusable SILC query workspace.
pub struct SilcQuery<'a> {
    silc: &'a Silc,
    net: &'a RoadNetwork,
    /// Budget charged once per first-hop step. Besides deadlines, this
    /// bounds the walk on a defective colour map (whose `while cur != t`
    /// would otherwise never terminate).
    budget: QueryBudget,
    /// Number of colour lookups performed by the most recent query (= k,
    /// the number of edges on the path).
    pub last_lookups: usize,
}

impl<'a> SilcQuery<'a> {
    /// Creates a workspace over an index and the network it was built
    /// from.
    pub fn new(silc: &'a Silc, net: &'a RoadNetwork) -> Self {
        assert_eq!(silc.num_nodes(), net.num_nodes(), "index/network mismatch");
        SilcQuery {
            silc,
            net,
            budget: QueryBudget::unlimited(),
            last_lookups: 0,
        }
    }

    /// Installs the cancellation budget subsequent queries run under
    /// (one charge per walk step). The default is unlimited.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`SilcQuery::set_budget`] was cut
    /// short by the budget (its `None` is an abort, not "unreachable").
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Neighbour of `cur` that starts the shortest path to `t`.
    #[inline]
    fn first_hop(&self, cur: NodeId, t: NodeId) -> (NodeId, Dist) {
        let color = self.silc.color_of(cur, t);
        let (v, w) = self
            .net
            .neighbors(cur)
            .nth(color as usize)
            .expect("colour indexes a live neighbour");
        (v, w as Dist)
    }

    /// Shortest-path query (§2): O(k log n) colour lookups.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.last_lookups = 0;
        let mut path = vec![s];
        let mut total: Dist = 0;
        let mut cur = s;
        while cur != t {
            if !self.budget.charge() {
                return None;
            }
            let (v, w) = self.first_hop(cur, t);
            self.last_lookups += 1;
            total += w;
            path.push(v);
            cur = v;
        }
        Some((total, path))
    }

    /// Distance query (§2). SILC "needs to first compute the shortest
    /// path from s to t, and then return the sum of the lengths of the
    /// edges in the path" (§3.4) — there is no shortcut, which is why CH
    /// and TNR dominate SILC on distance queries for far-apart pairs.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.last_lookups = 0;
        let mut total: Dist = 0;
        let mut cur = s;
        while cur != t {
            if !self.budget.charge() {
                return None;
            }
            let (v, w) = self.first_hop(cur, t);
            self.last_lookups += 1;
            total += w;
            cur = v;
        }
        Some(total)
    }
}

// ---------------------------------------------------------------------------
// spq-serve integration: SILC behind the unified backend interface.

impl spq_graph::backend::Backend for Silc {
    fn backend_name(&self) -> &'static str {
        "SILC"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn spq_graph::backend::Session + 'a> {
        Box::new(self.query(net))
    }
}

impl spq_graph::backend::Session for SilcQuery<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        SilcQuery::distance(self, s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        SilcQuery::shortest_path(self, s, t)
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        SilcQuery::set_budget(self, budget);
    }

    fn interrupted(&self) -> bool {
        self.budget_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};

    fn check_all_pairs(net: &RoadNetwork) {
        let silc = Silc::build(net);
        let mut q = silc.query(net);
        let mut d = Dijkstra::new(net.num_nodes());
        for s in 0..net.num_nodes() as NodeId {
            d.run(net, s);
            for t in 0..net.num_nodes() as NodeId {
                let expect = d.distance(t);
                assert_eq!(q.distance(s, t), expect, "distance ({s},{t})");
                let (pd, path) = q.shortest_path(s, t).unwrap();
                assert_eq!(Some(pd), expect, "length ({s},{t})");
                assert_eq!(path.first().copied(), Some(s));
                assert_eq!(path.last().copied(), Some(t));
                assert_eq!(net.path_length(&path), expect, "valid ({s},{t})");
            }
        }
    }

    #[test]
    fn figure1_all_pairs_exact() {
        check_all_pairs(&figure1());
    }

    #[test]
    fn grid_all_pairs_exact() {
        check_all_pairs(&grid_graph(9, 7));
    }

    #[test]
    fn synthetic_random_pairs_exact() {
        let net = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(700, 61));
        let silc = Silc::build(&net);
        let mut q = silc.query(&net);
        let mut d = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as u64;
        let mut state = 42u64;
        for _ in 0..80 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(9);
            let s = ((state >> 33) % n) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(9);
            let t = ((state >> 33) % n) as NodeId;
            d.run_to_target(&net, s, t);
            assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
        }
    }

    #[test]
    fn lookup_count_equals_path_edges() {
        let net = grid_graph(12, 3);
        let silc = Silc::build(&net);
        let mut q = silc.query(&net);
        let (d, path) = q.shortest_path(0, 11).unwrap();
        assert_eq!(d, 11);
        assert_eq!(q.last_lookups, path.len() - 1);
        q.distance(5, 5).unwrap();
        assert_eq!(q.last_lookups, 0);
    }
}
