//! PCPD query processing: recursive decomposition at ψ (paper §3.5).

use spq_graph::backend::QueryBudget;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

use crate::index::{Pcpd, Psi};

/// Work items of the iterative in-order decomposition.
enum Item {
    /// A path segment still to be decomposed.
    Seg(NodeId, NodeId),
    /// An edge endpoint ready to be appended.
    Emit(NodeId, Dist),
}

/// Reusable PCPD query workspace.
pub struct PcpdQuery<'a> {
    pcpd: &'a Pcpd,
    net: &'a RoadNetwork,
    stack: Vec<Item>,
    /// Budget charged once per ψ lookup. Besides deadlines, this bounds
    /// the decomposition on a defective index (whose recursion would
    /// otherwise never bottom out).
    budget: QueryBudget,
    /// Pair lookups performed by the most recent query (the paper's
    /// O(k) bound).
    pub last_lookups: usize,
}

impl<'a> PcpdQuery<'a> {
    /// Creates a workspace over an index and its network.
    pub fn new(pcpd: &'a Pcpd, net: &'a RoadNetwork) -> Self {
        PcpdQuery {
            pcpd,
            net,
            stack: Vec::new(),
            budget: QueryBudget::unlimited(),
            last_lookups: 0,
        }
    }

    /// Installs the cancellation budget subsequent queries run under
    /// (one charge per ψ lookup). The default is unlimited.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`PcpdQuery::set_budget`] was cut
    /// short by the budget (its `None` is an abort, not "unreachable").
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Shortest-path query (§2): O(k) pair lookups.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.last_lookups = 0;
        let mut path = vec![s];
        let mut total: Dist = 0;
        self.stack.clear();
        self.stack.push(Item::Seg(s, t));
        while let Some(item) = self.stack.pop() {
            match item {
                Item::Emit(v, w) => {
                    path.push(v);
                    total += w;
                }
                Item::Seg(a, b) => {
                    if a == b {
                        continue;
                    }
                    if !self.budget.charge() {
                        return None;
                    }
                    self.last_lookups += 1;
                    match self.pcpd.lookup(a, b) {
                        Psi::Vertex(m) => {
                            // In-order: expand (a, m) first.
                            self.stack.push(Item::Seg(m, b));
                            self.stack.push(Item::Seg(a, m));
                        }
                        Psi::Edge(u, v) => {
                            let w = self
                                .net
                                .edge_weight(u, v)
                                .expect("ψ edges exist in the network")
                                as Dist;
                            self.stack.push(Item::Seg(v, b));
                            self.stack.push(Item::Emit(v, w));
                            self.stack.push(Item::Seg(a, u));
                        }
                    }
                }
            }
        }
        Some((total, path))
    }

    /// Distance query (§2): like SILC, PCPD "first computes the shortest
    /// path between s and t, and then returns the length of the path"
    /// (§3.5).
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.shortest_path(s, t).map(|(d, _)| d)
    }
}

// ---------------------------------------------------------------------------
// spq-serve integration: PCPD behind the unified backend interface.

impl spq_graph::backend::Backend for Pcpd {
    fn backend_name(&self) -> &'static str {
        "PCPD"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn spq_graph::backend::Session + 'a> {
        Box::new(self.query(net))
    }
}

impl spq_graph::backend::Session for PcpdQuery<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        PcpdQuery::distance(self, s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        PcpdQuery::shortest_path(self, s, t)
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        PcpdQuery::set_budget(self, budget);
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
        let pcpd = Pcpd::build(net);
        let mut q = pcpd.query(net);
        let mut d = Dijkstra::new(net.num_nodes());
        for s in 0..net.num_nodes() as NodeId {
            d.run(net, s);
            for t in 0..net.num_nodes() as NodeId {
                let expect = d.distance(t);
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
        check_all_pairs(&grid_graph(8, 6));
    }

    #[test]
    fn synthetic_random_pairs_exact() {
        let net = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(500, 71));
        let pcpd = Pcpd::build(&net);
        let mut q = pcpd.query(&net);
        let mut d = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as u64;
        let mut state = 1234u64;
        for _ in 0..60 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let s = ((state >> 33) % n) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let t = ((state >> 33) % n) as NodeId;
            d.run_to_target(&net, s, t);
            assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
        }
    }

    #[test]
    fn lookups_scale_with_path_length() {
        let net = grid_graph(16, 4);
        let pcpd = Pcpd::build(&net);
        let mut q = pcpd.query(&net);
        let (_, path) = q.shortest_path(0, 63).unwrap();
        // O(k): each edge costs at most a couple of lookups.
        assert!(
            q.last_lookups <= 3 * path.len(),
            "{} lookups for {} vertices",
            q.last_lookups,
            path.len()
        );
        q.shortest_path(3, 3).unwrap();
        assert_eq!(q.last_lookups, 0);
    }
}
