//! [`Backend`] implementation for Contraction Hierarchies.
//!
//! Point-to-point queries go through the regular [`ChQuery`] workspace.
//! Batched distance queries are routed to the SoA-lane batch kernel
//! ([`BatchDistances`]) whenever the batch is *dense* — both sides have
//! at least two vertices — because the multi-source sweep amortises the
//! upward searches across lanes and the bucket combine amortises the
//! backward side across the whole target set, which a loop of
//! point-to-point queries cannot. Degenerate (1×k or k×1) batches fall
//! back to the default per-pair loop, which is cheaper than paying the
//! batch setup for a single row. Both paths poll the same
//! [`QueryBudget`], so deadlines and forced shutdown interrupt batches
//! exactly like point queries.

use spq_graph::backend::{Backend, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;

use crate::batch::BatchDistances;
use crate::contraction::ContractionHierarchy;
use crate::query::ChQuery;

/// Per-thread CH workspace: the point-to-point query state plus a
/// lazily created batch workspace (its lane slab is `O(n)`, so workers
/// that never see a batch never pay for it).
pub struct ChSession<'a> {
    ch: &'a ContractionHierarchy,
    query: ChQuery<'a>,
    batch: Option<BatchDistances<'a>>,
    budget: QueryBudget,
}

impl Backend for ContractionHierarchy {
    fn backend_name(&self) -> &'static str {
        "CH"
    }

    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(ChSession {
            ch: self,
            query: ChQuery::new(self),
            batch: None,
            budget: QueryBudget::unlimited(),
        })
    }

    /// Both point queries are one bidirectional upward search (plus
    /// unpacking): they settle the hierarchy's search space, not n.
    fn bounded_point_queries(&self) -> bool {
        true
    }
}

impl Session for ChSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.query.distance(s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.query.shortest_path(s, t)
    }

    fn distances(&mut self, sources: &[NodeId], targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        if sources.len() < 2 || targets.len() < 2 {
            out.clear();
            out.extend(
                sources
                    .iter()
                    .flat_map(|&s| targets.iter().map(move |&t| (s, t)))
                    .map(|(s, t)| self.query.distance(s, t)),
            );
            return;
        }
        let batch = self
            .batch
            .get_or_insert_with(|| BatchDistances::new(self.ch));
        batch.set_budget(&self.budget);
        out.clear();
        match batch.table(sources, targets) {
            Some(table) => {
                out.extend(
                    table
                        .into_iter()
                        .map(|d| if d >= INFINITY { None } else { Some(d) }),
                )
            }
            // Budget tripped mid-batch: report every pair unanswered
            // rather than fabricating entries; `interrupted` tells the
            // caller the batch was cut short, not unreachable.
            None => out.resize(sources.len() * targets.len(), None),
        }
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        self.query.set_budget(budget);
        if let Some(batch) = &mut self.batch {
            batch.set_budget(budget);
        }
        self.budget.clone_from(budget);
    }

    fn interrupted(&self) -> bool {
        self.query.budget_exhausted() || self.batch.as_ref().is_some_and(|b| b.budget_exhausted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::figure1;

    #[test]
    fn dense_batch_matches_point_to_point() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut session = ch.session(&g);
        let sources: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let targets = sources.clone();
        let mut out = Vec::new();
        session.distances(&sources, &targets, &mut out);
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    out[i * targets.len() + j],
                    session.distance(s, t),
                    "batch ({s},{t})"
                );
            }
        }
        // Degenerate one-row batch takes the loop path; same answers.
        let mut row = Vec::new();
        session.distances(&sources[..1], &targets, &mut row);
        assert_eq!(row, out[..targets.len()].to_vec());
    }

    #[test]
    fn interrupted_batch_answers_nothing() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut session = ch.session(&g);
        session.set_budget(&QueryBudget::unlimited().with_node_cap(1));
        let sources: Vec<NodeId> = (0..4).collect();
        let targets: Vec<NodeId> = (4..8).collect();
        let mut out = Vec::new();
        session.distances(&sources, &targets, &mut out);
        assert!(session.interrupted());
        assert_eq!(out.len(), sources.len() * targets.len());
        assert!(out.iter().all(Option::is_none));
    }
}
