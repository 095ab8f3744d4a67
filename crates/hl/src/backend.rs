//! [`Backend`] implementation for hub labeling.
//!
//! Distance queries go straight through the label store's merge-scan —
//! constant small cost, no search state at all. Shortest-*path* queries
//! need shortcut unpacking, which labels cannot do, so the session
//! keeps a [`ChQuery`] over the embedded hierarchy for them; HL path
//! queries therefore cost exactly what the `ch` backend's do.
//!
//! Budgets: a label scan is O(|L(s)| + |L(t)|) with no expansion to
//! bound, so a distance query charges its budget once — a tripped
//! budget (deadline passed, kill flag set) still aborts before the
//! scan, and the serving layer's `interrupted` contract holds.

use spq_ch::ChQuery;
use spq_graph::backend::{Backend, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

use crate::labels::{BatchScan, Hl, HubLabels};

/// Per-thread HL workspace: a borrowed label store, the CH query state
/// that answers path queries, and a lazily created batch scatter array
/// (O(n), only paid by sessions that actually serve dense batches).
pub struct HlSession<'a> {
    labels: &'a HubLabels,
    budget: QueryBudget,
    paths: ChQuery<'a>,
    batch: Option<BatchScan>,
}

impl Backend for Hl {
    fn backend_name(&self) -> &'static str {
        "HL"
    }

    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(HlSession {
            labels: self.labels(),
            budget: QueryBudget::unlimited(),
            paths: ChQuery::new(self.hierarchy()),
            batch: None,
        })
    }

    /// A distance query is one merge-scan over two labels; a path
    /// query is the embedded hierarchy's upward search plus unpacking.
    fn bounded_point_queries(&self) -> bool {
        true
    }
}

impl Session for HlSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.budget.reset();
        if !self.budget.charge() {
            return None;
        }
        self.labels.distance(s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.paths.shortest_path(s, t)
    }

    fn distances(&mut self, sources: &[NodeId], targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        self.budget.reset();
        if sources.len() < 2 || targets.len() < 2 {
            // Degenerate rows/columns: the scatter never amortises, so
            // keep the plain merge-scan loop.
            out.clear();
            out.reserve(sources.len() * targets.len());
            for &s in sources {
                for &t in targets {
                    if !self.budget.charge() {
                        out.push(None);
                        continue;
                    }
                    out.push(self.labels.distance(s, t));
                }
            }
            return;
        }
        let batch = self
            .batch
            .get_or_insert_with(|| BatchScan::new(self.labels));
        batch.table_into(self.labels, sources, targets, &mut self.budget, out);
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        self.paths.set_budget(budget);
        self.budget.clone_from(budget);
    }

    fn interrupted(&self) -> bool {
        self.budget.exhausted() || self.paths.budget_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::figure1;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn backend_answers_both_query_kinds() {
        let g = figure1();
        let hl = Hl::build(&g);
        let backend: &dyn Backend = &hl;
        assert_eq!(backend.backend_name(), "HL");
        assert!(
            backend.bounded_point_queries(),
            "a label scan and a CH unpack never search the network"
        );
        let mut session = backend.session(&g);
        assert_eq!(session.distance(2, 6), Some(6));
        let (d, path) = session.shortest_path(2, 6).expect("connected");
        assert_eq!(d, 6);
        assert_eq!(path.first(), Some(&2));
        assert_eq!(path.last(), Some(&6));
        assert!(!session.interrupted());

        let mut out = Vec::new();
        session.distances(&[2, 0], &[6, 2], &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], Some(6));
        assert_eq!(out[3], session.distance(0, 2));
    }

    #[test]
    fn a_path_cut_by_its_budget_leaves_the_next_paths_exact() {
        let g = spq_graph::toy::grid_graph(9, 9);
        let hl = Hl::build(&g);
        let mut session = hl.session(&g);
        let mut oracle = spq_dijkstra::Dijkstra::new(g.num_nodes());
        for cap in 0..12 {
            session.set_budget(&QueryBudget::unlimited().with_node_cap(cap));
            assert_eq!(session.shortest_path(0, 80), None, "cap {cap}");
            assert!(session.interrupted());
            session.set_budget(&QueryBudget::unlimited());
            for (s, t) in [(80, 0), (4, 76), (cap as NodeId, 40)] {
                oracle.run_to_target(&g, s, t);
                let (d, path) = session.shortest_path(s, t).expect("connected");
                assert_eq!(Some(d), oracle.distance(t), "({s},{t}) after cap {cap}");
                assert_eq!((path[0], path[path.len() - 1]), (s, t));
                assert_eq!(g.path_length(&path), Some(d));
            }
            assert!(!session.interrupted());
        }
    }

    #[test]
    fn killed_budget_interrupts_instead_of_answering_none() {
        let g = figure1();
        let hl = Hl::build(&g);
        let mut session = hl.session(&g);
        let kill = Arc::new(AtomicBool::new(true));
        // A pre-set kill flag with a zero node cap trips on the first
        // charge; the None answer must be flagged as interrupted.
        session.set_budget(
            &QueryBudget::unlimited()
                .with_node_cap(0)
                .with_kill_flag(kill.clone()),
        );
        assert_eq!(session.distance(2, 6), None);
        assert!(session.interrupted());
        kill.store(false, Ordering::Relaxed);
        session.set_budget(&QueryBudget::unlimited());
        assert_eq!(session.distance(2, 6), Some(6));
        assert!(!session.interrupted());
    }
}
