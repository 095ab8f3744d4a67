//! A* query processing with the landmark potential.

use spq_graph::backend::QueryBudget;
use spq_graph::heap::IndexedHeap;
use spq_graph::types::{Dist, NodeId, INFINITY, INVALID_NODE};
use spq_graph::RoadNetwork;

use crate::landmarks::Alt;
use spq_dijkstra::SearchStats;

/// Reusable ALT query workspace: an A* search keyed by
/// `g(v) + h(v)` where `h` is the landmark lower bound toward `t`.
pub struct AltQuery<'a> {
    alt: &'a Alt,
    net: &'a RoadNetwork,
    dist: Vec<Dist>,
    parent: Vec<NodeId>,
    reached_stamp: Vec<u32>,
    settled_stamp: Vec<u32>,
    version: u32,
    heap: IndexedHeap,
    budget: QueryBudget,
    /// Statistics of the most recent query.
    pub stats: SearchStats,
}

impl<'a> AltQuery<'a> {
    /// Creates a workspace over the index and its network.
    pub fn new(alt: &'a Alt, net: &'a RoadNetwork) -> Self {
        assert_eq!(alt.num_nodes(), net.num_nodes(), "index/network mismatch");
        let n = net.num_nodes();
        AltQuery {
            alt,
            net,
            dist: vec![INFINITY; n],
            parent: vec![INVALID_NODE; n],
            reached_stamp: vec![0; n],
            settled_stamp: vec![0; n],
            version: 0,
            heap: IndexedHeap::new(n),
            budget: QueryBudget::unlimited(),
            stats: SearchStats::default(),
        }
    }

    /// Installs the cancellation budget subsequent queries run under
    /// (one charge per settled vertex). The default is unlimited.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`AltQuery::set_budget`] was cut
    /// short by the budget (its `None` is an abort, not "unreachable").
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Distance query: goal-directed A*, exact because the potential is
    /// consistent.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search(s, t)
    }

    /// Shortest-path query: the A* tree gives the path directly.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        let d = self.search(s, t)?;
        let mut path = vec![t];
        let mut cur = t;
        while cur != s {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some((d, path))
    }

    fn search(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.reached_stamp.fill(0);
            self.settled_stamp.fill(0);
            self.version = 1;
        }
        let version = self.version;
        self.stats = SearchStats::default();
        self.heap.clear();
        self.dist[s as usize] = 0;
        self.parent[s as usize] = INVALID_NODE;
        self.reached_stamp[s as usize] = version;
        self.heap.push_or_decrease(s, self.alt.lower_bound(s, t));

        while let Some((_, u)) = self.heap.pop_min() {
            if self.settled_stamp[u as usize] == version {
                continue;
            }
            if !self.budget.charge() {
                return None;
            }
            self.settled_stamp[u as usize] = version;
            self.stats.settled += 1;
            if u == t {
                return Some(self.dist[u as usize]);
            }
            let du = self.dist[u as usize];
            for (v, w) in self.net.neighbors(u) {
                self.stats.relaxed += 1;
                let nd = du + w as Dist;
                let vi = v as usize;
                if self.reached_stamp[vi] != version || nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.parent[vi] = u;
                    self.reached_stamp[vi] = version;
                    self.heap
                        .push_or_decrease(v, nd + self.alt.lower_bound(v, t));
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// spq-serve integration: ALT behind the unified backend interface.

impl spq_graph::backend::Backend for Alt {
    fn backend_name(&self) -> &'static str {
        "ALT"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn spq_graph::backend::Session + 'a> {
        Box::new(self.query(net))
    }
}

impl spq_graph::backend::Session for AltQuery<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        AltQuery::distance(self, s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        AltQuery::shortest_path(self, s, t)
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        AltQuery::set_budget(self, budget);
    }

    fn interrupted(&self) -> bool {
        self.budget_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::AltParams;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};

    #[test]
    fn figure1_all_pairs_exact() {
        let g = figure1();
        let alt = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 4,
                seed: 7,
                ..AltParams::default()
            },
        );
        let mut q = alt.query(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        for s in 0..8u32 {
            d.run(&g, s);
            for t in 0..8u32 {
                assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
                let (pd, path) = q.shortest_path(s, t).unwrap();
                assert_eq!(Some(pd), d.distance(t));
                assert_eq!(g.path_length(&path), d.distance(t));
            }
        }
    }

    #[test]
    fn synthetic_random_pairs_exact() {
        let net = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(900, 17));
        let alt = Alt::build(&net, &AltParams::default());
        let mut q = alt.query(&net);
        let mut d = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as u64;
        let mut state = 77u64;
        for _ in 0..80 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            let s = ((state >> 33) % n) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            let t = ((state >> 33) % n) as NodeId;
            d.run_to_target(&net, s, t);
            assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
        }
    }

    #[test]
    fn goal_direction_shrinks_the_search() {
        let g = grid_graph(40, 40);
        let alt = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 8,
                seed: 9,
                ..AltParams::default()
            },
        );
        let mut q = alt.query(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        let (s, t) = (20u32 * 40 + 5, 20u32 * 40 + 35);
        q.distance(s, t);
        d.run_to_target(&g, s, t);
        assert!(
            q.stats.settled * 2 < d.stats.settled,
            "ALT settled {} vs Dijkstra {}",
            q.stats.settled,
            d.stats.settled
        );
    }

    #[test]
    fn trivial_query() {
        let g = figure1();
        let alt = Alt::build(&g, &AltParams::default());
        let mut q = alt.query(&g);
        assert_eq!(q.distance(3, 3), Some(0));
        assert_eq!(q.shortest_path(3, 3).unwrap().1, vec![3]);
    }
}
