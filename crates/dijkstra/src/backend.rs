//! [`Backend`] implementation for the index-free baseline.
//!
//! Bidirectional Dijkstra needs no preprocessing, so the backend is a
//! unit struct; each session owns one [`BiDijkstra`] workspace sized for
//! the network, reused across every query the worker serves, and
//! creates its one-to-all [`Dijkstra`] and its range [`Ball`] on first
//! use.

use spq_graph::backend::{Backend, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

use crate::ball::Ball;
use crate::bidirectional::BiDijkstra;
use crate::onetoall::{Dijkstra, SearchScope};

/// The index-free bidirectional-Dijkstra backend (§3.1).
pub struct Baseline;

/// Per-thread baseline workspace: the search state plus the network.
/// The one-to-all workspace is created lazily and the range workspace
/// allocates on its first search — point-to-point-only workers never
/// pay for either.
pub struct BaselineSession<'a> {
    net: &'a RoadNetwork,
    search: BiDijkstra,
    oneall: Option<Dijkstra>,
    ball: Ball,
    /// The budget the one-to-all searches and ranges charge, re-armed
    /// by each.
    budget: QueryBudget,
}

impl Backend for Baseline {
    fn backend_name(&self) -> &'static str {
        "Dijkstra"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(BaselineSession {
            net,
            search: BiDijkstra::new(net.num_nodes()),
            oneall: None,
            ball: Ball::new(),
            budget: QueryBudget::unlimited(),
        })
    }
}

impl Session for BaselineSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search.distance(self.net, s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.search.shortest_path(self.net, s, t)
    }

    /// One full-graph search beats `targets.len()` bidirectional
    /// searches as soon as the target set is non-trivial; the search
    /// stops as early as the last requested target.
    fn one_to_many(&mut self, s: NodeId, targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        let d = self
            .oneall
            .get_or_insert_with(|| Dijkstra::new(self.net.num_nodes()));
        let mut sorted: Vec<NodeId> = targets.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut remaining = sorted.len();
        let budget = &mut self.budget;
        budget.reset();
        d.run_scoped(self.net, s, SearchScope::Full, |v, _| {
            if !budget.charge() {
                return true;
            }
            if sorted.binary_search(&v).is_ok() {
                remaining -= 1;
                remaining == 0
            } else {
                false
            }
        });
        out.clear();
        out.extend(targets.iter().map(|&t| d.distance(t)));
    }

    /// The bounded search of [`Ball::range`].
    fn range(&mut self, s: NodeId, limit: Dist, out: &mut Vec<(NodeId, Dist)>) -> bool {
        self.budget.reset();
        self.ball.range(self.net, s, limit, &mut self.budget, out);
        true
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
        self.search.set_budget(budget);
    }

    fn interrupted(&self) -> bool {
        self.search.budget_exhausted() || self.budget.exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::figure1;

    #[test]
    fn baseline_session_answers_like_the_workspace() {
        let g = figure1();
        let backend = Baseline;
        let mut session = backend.session(&g);
        let mut reference = BiDijkstra::new(g.num_nodes());
        for s in 0..g.num_nodes() as NodeId {
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(session.distance(s, t), reference.distance(&g, s, t));
            }
        }
        let (d, path) = session.shortest_path(2, 6).unwrap();
        assert_eq!(d, 6);
        assert_eq!(g.path_length(&path), Some(6));
    }

    #[test]
    fn one_to_many_matches_point_queries() {
        let g = figure1();
        let backend = Baseline;
        let mut session = backend.session(&g);
        let targets: Vec<NodeId> = (0..g.num_nodes() as NodeId).rev().collect();
        let mut out = Vec::new();
        session.one_to_many(2, &targets, &mut out);
        assert!(!session.interrupted());
        for (j, &t) in targets.iter().enumerate() {
            assert_eq!(out[j], session.distance(2, t), "target {t}");
        }
    }

    #[test]
    fn range_is_exact_and_sorted() {
        let g = figure1();
        let backend = Baseline;
        let mut session = backend.session(&g);
        let mut out = Vec::new();
        assert!(session.range(2, 3, &mut out));
        assert!(!session.interrupted());
        // Exactly the vertices whose distance from v3 is <= 3.
        for v in 0..g.num_nodes() as NodeId {
            let d = session.distance(2, v);
            let expect = d.filter(|&d| d <= 3).map(|d| (v, d));
            assert_eq!(out.iter().find(|&&(u, _)| u == v).copied(), expect);
        }
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
    }

    #[test]
    fn range_respects_budget() {
        let g = figure1();
        let backend = Baseline;
        let mut session = backend.session(&g);
        session.set_budget(&QueryBudget::unlimited().with_node_cap(2));
        let mut out = Vec::new();
        assert!(session.range(2, 100, &mut out));
        assert!(session.interrupted(), "node cap must trip mid-search");
    }

    /// A server installs a fresh budget before every request: a range
    /// cut short must not mark the next, answered query as interrupted.
    #[test]
    fn a_fresh_budget_clears_a_tripped_range() {
        let g = figure1();
        let backend = Baseline;
        let mut session = backend.session(&g);
        session.set_budget(&QueryBudget::unlimited().with_node_cap(2));
        let mut out = Vec::new();
        session.range(2, 100, &mut out);
        assert!(session.interrupted());
        session.set_budget(&QueryBudget::unlimited());
        assert_eq!(session.distance(2, 6), Some(6));
        assert!(
            !session.interrupted(),
            "the range's trip outlived its budget"
        );
    }
}
