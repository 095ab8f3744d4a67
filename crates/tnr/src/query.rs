//! TNR query processing (paper §3.3).

use spq_ch::ChQuery;
use spq_dijkstra::BiDijkstra;
use spq_graph::backend::QueryBudget;
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;

use crate::index::{unpack, Fallback, Tnr};

/// How the most recent query was answered — the harness reports, per
/// query set, how often TNR used its tables vs. the fallback (this is
/// what makes the paper's Q5/Q6/Q7 transition visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answered {
    /// Pure table lookups (Equation 1).
    Tables,
    /// Greedy access-node walk plus a local fallback tail (path queries).
    WalkWithTail,
    /// Entirely by the fallback technique.
    Fallback,
}

/// Reusable TNR query workspace.
pub struct TnrQuery<'a> {
    tnr: &'a Tnr,
    net: Option<&'a RoadNetwork>,
    ch_query: ChQuery<'a>,
    bidi: BiDijkstra,
    /// The t-side scratch: `(global_access_index, dist(access, t))`.
    t_side: Vec<(u32, Dist)>,
    /// Budget charged once per greedy-walk step (the fallbacks charge
    /// their own copies per settled vertex).
    budget: QueryBudget,
    /// How the most recent query was answered.
    pub last_answered: Answered,
}

impl<'a> TnrQuery<'a> {
    /// Creates a workspace. Shortest-path queries and the
    /// bidirectional-Dijkstra fallback additionally need the network:
    /// attach it with [`TnrQuery::with_network`].
    pub fn new(tnr: &'a Tnr) -> Self {
        TnrQuery {
            tnr,
            net: None,
            ch_query: ChQuery::new(tnr.hierarchy()),
            bidi: BiDijkstra::new(tnr.net_nodes),
            t_side: Vec::new(),
            budget: QueryBudget::unlimited(),
            last_answered: Answered::Tables,
        }
    }

    /// Installs the cancellation budget subsequent queries run under.
    /// The fallback workspaces get their own copies (a clone shares the
    /// deadline and kill flag; only the node-cap accounting is local).
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.ch_query.set_budget(budget);
        self.bidi.set_budget(budget);
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`TnrQuery::set_budget`] was cut
    /// short by the budget, in the walk or in either fallback.
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted() || self.ch_query.budget_exhausted() || self.bidi.budget_exhausted()
    }

    /// Attaches the road network (required for path queries and for the
    /// bidirectional-Dijkstra fallback).
    pub fn with_network(mut self, net: &'a RoadNetwork) -> Self {
        self.net = Some(net);
        self
    }

    /// Distance query (§2). Uses Equation 1 whenever the locality filter
    /// allows, otherwise the configured fallback.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        if self.tnr.distance_applicable(s, t) {
            self.last_answered = Answered::Tables;
            let d = self.table_distance(s, t);
            if d < INFINITY {
                return Some(d);
            }
            // Incomplete access sets (possible only with the flawed
            // strategy) can leave no covering pair; fall through so the
            // demonstration binary can still compare against the truth.
        }
        self.last_answered = Answered::Fallback;
        self.fallback_distance(s, t)
    }

    /// Equation 1: min over access pairs. `INFINITY` if either side has
    /// no access nodes.
    pub fn table_distance(&mut self, s: NodeId, t: NodeId) -> Dist {
        self.prepare_t_side(t);
        self.eval_source_side(s)
    }

    /// Fills the t-side scratch with `(access_index, dist(access, t))`.
    fn prepare_t_side(&mut self, t: NodeId) {
        self.t_side.clear();
        let ct = self.tnr.access.grid.cell_index_of(t);
        let dists = self.tnr.access.vertex_access_dists(t);
        for (k, &bi) in self.tnr.access.cell_access_of(ct).iter().enumerate() {
            let d = unpack(dists[k]);
            if d < INFINITY {
                self.t_side.push((bi, d));
            }
        }
    }

    /// min over a ∈ A(cell(v)), (b, db) in scratch of
    /// `dist(v, a) + I1[a][b] + db`.
    fn eval_source_side(&mut self, v: NodeId) -> Dist {
        let cv = self.tnr.access.grid.cell_index_of(v);
        let dists = self.tnr.access.vertex_access_dists(v);
        let mut best = INFINITY;
        for (k, &ai) in self.tnr.access.cell_access_of(cv).iter().enumerate() {
            let da = unpack(dists[k]);
            if da >= best {
                continue;
            }
            for &(bi, db) in &self.t_side {
                let total = da + self.tnr.access_pair_dist(ai, bi) + db;
                if total < best {
                    best = total;
                }
            }
        }
        best
    }

    fn fallback_distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        match self.tnr.params().fallback {
            Fallback::Ch => self.ch_query.distance(s, t),
            Fallback::BiDijkstra => {
                let net = self
                    .net
                    .expect("bidirectional-Dijkstra fallback needs with_network()");
                self.bidi.distance(net, s, t)
            }
        }
    }

    /// Shortest-path query (§2). When the outer shells of the two cells
    /// are disjoint, the path is retrieved by the paper's greedy
    /// traversal: repeatedly move to the neighbour `v` of the current
    /// vertex minimising `w(cur, v) + dist(v, t)`, with `dist(v, t)`
    /// evaluated from the pre-computed tables (Equation 1). Once the walk
    /// enters the region where the tables no longer apply, the local tail
    /// is completed by the fallback technique.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        let net = self.net.expect("shortest-path queries need with_network()");
        if !self.tnr.path_applicable(s, t) {
            self.last_answered = Answered::Fallback;
            return self.fallback_path(s, t);
        }
        self.last_answered = Answered::WalkWithTail;
        self.prepare_t_side(t);

        let mut path = vec![s];
        let mut cur = s;
        let mut total: Dist = 0;
        loop {
            if !self.budget.charge() {
                return None;
            }
            if !self.tnr.distance_applicable(cur, t) {
                break;
            }
            // Pick the neighbour on a shortest path to t.
            let mut best: Option<(Dist, NodeId, Dist)> = None; // (w + d, v, w)
            for (v, w) in net.neighbors(cur) {
                let dv = if self.tnr.distance_applicable(v, t) {
                    let d = self.eval_source_side(v);
                    if d < INFINITY {
                        d
                    } else {
                        match self.fallback_distance(v, t) {
                            Some(d) => d,
                            None => continue,
                        }
                    }
                } else {
                    // Near the boundary the tables stop applying for some
                    // neighbours; their exact distance comes from the
                    // fallback so the walk stays on a shortest path.
                    match self.fallback_distance(v, t) {
                        Some(d) => d,
                        None => continue,
                    }
                };
                let cand = (w as Dist + dv, v, w as Dist);
                if best.map_or(true, |(bd, bv, _)| cand.0 < bd || (cand.0 == bd && v < bv)) {
                    best = Some(cand);
                }
            }
            let (_, v, w) = best?;
            path.push(v);
            total += w;
            cur = v;
            if cur == t {
                return Some((total, path));
            }
        }

        // Local tail.
        let (tail_d, tail) = self.fallback_path(cur, t)?;
        path.extend_from_slice(&tail[1..]);
        Some((total + tail_d, path))
    }

    fn fallback_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        match self.tnr.params().fallback {
            Fallback::Ch => self.ch_query.shortest_path(s, t),
            Fallback::BiDijkstra => {
                let net = self.net.expect("fallback path needs with_network()");
                self.bidi.shortest_path(net, s, t)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// spq-serve integration: TNR behind the unified backend interface.

impl spq_graph::backend::Backend for Tnr {
    fn backend_name(&self) -> &'static str {
        "TNR"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn spq_graph::backend::Session + 'a> {
        Box::new(self.query().with_network(net))
    }
}

impl spq_graph::backend::Session for TnrQuery<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        TnrQuery::distance(self, s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        TnrQuery::shortest_path(self, s, t)
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        TnrQuery::set_budget(self, budget);
    }

    fn interrupted(&self) -> bool {
        self.budget_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TnrParams;
    use spq_dijkstra::Dijkstra;
    use spq_synth::SynthParams;

    fn check_exact(net: &RoadNetwork, tnr: &Tnr, pairs: usize) {
        let mut q = tnr.query().with_network(net);
        let mut d = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as u64;
        let mut state = 0x5151_5151u64;
        let mut used_tables = 0usize;
        for _ in 0..pairs {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            let s = ((state >> 33) % n) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            let t = ((state >> 33) % n) as NodeId;
            d.run_to_target(net, s, t);
            let expect = d.distance(t);
            assert_eq!(q.distance(s, t), expect, "distance ({s},{t})");
            if q.last_answered == Answered::Tables {
                used_tables += 1;
            }
            let (pd, path) = q.shortest_path(s, t).expect("path exists");
            assert_eq!(Some(pd), expect, "path length ({s},{t})");
            assert_eq!(path.first().copied(), Some(s));
            assert_eq!(path.last().copied(), Some(t));
            assert_eq!(net.path_length(&path), expect, "path validity ({s},{t})");
        }
        // On a 16-grid most random pairs are non-local: the tables must
        // actually be exercised, not just the fallback.
        assert!(
            used_tables * 3 > pairs,
            "only {used_tables}/{pairs} used tables"
        );
    }

    #[test]
    fn exact_with_ch_fallback() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(800, 31));
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 16,
                ..TnrParams::default()
            },
        );
        check_exact(&net, &tnr, 60);
    }

    #[test]
    fn exact_with_bidijkstra_fallback() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(800, 32));
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 16,
                fallback: Fallback::BiDijkstra,
                ..TnrParams::default()
            },
        );
        check_exact(&net, &tnr, 40);
    }

    #[test]
    fn local_queries_fall_back() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(800, 33));
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 16,
                ..TnrParams::default()
            },
        );
        let mut q = tnr.query().with_network(&net);
        // A vertex and its neighbour are always in overlapping shells.
        let s = 0u32;
        let (t, w) = net.neighbors(s).next().unwrap();
        let d = q.distance(s, t).unwrap();
        assert_eq!(q.last_answered, Answered::Fallback);
        assert!(d <= w as Dist);
    }

    #[test]
    fn trivial_and_identical_queries() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(400, 34));
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 8,
                ..TnrParams::default()
            },
        );
        let mut q = tnr.query().with_network(&net);
        assert_eq!(q.distance(5, 5), Some(0));
        let (d, p) = q.shortest_path(5, 5).unwrap();
        assert_eq!(d, 0);
        assert_eq!(p, vec![5]);
    }
}
