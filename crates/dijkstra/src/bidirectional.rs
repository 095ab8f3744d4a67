//! The bidirectional Dijkstra baseline (paper §3.1).

use spq_graph::backend::QueryBudget;
use spq_graph::heap::IndexedHeap;
use spq_graph::types::{Dist, NodeId, INFINITY, INVALID_NODE};
use spq_graph::RoadNetwork;

use crate::SearchStats;

/// One direction's workspace.
#[derive(Debug, Clone)]
struct Side {
    dist: Vec<Dist>,
    parent: Vec<NodeId>,
    reached_stamp: Vec<u32>,
    settled_stamp: Vec<u32>,
    heap: IndexedHeap,
}

impl Side {
    fn new(n: usize) -> Self {
        Side {
            dist: vec![INFINITY; n],
            parent: vec![INVALID_NODE; n],
            reached_stamp: vec![0; n],
            settled_stamp: vec![0; n],
            heap: IndexedHeap::new(n),
        }
    }

    fn begin(&mut self, root: NodeId, version: u32) {
        self.heap.clear();
        self.dist[root as usize] = 0;
        self.parent[root as usize] = INVALID_NODE;
        self.reached_stamp[root as usize] = version;
        self.heap.push_or_decrease(root, 0);
    }

    #[inline]
    fn reached(&self, v: NodeId, version: u32) -> bool {
        self.reached_stamp[v as usize] == version
    }
}

/// Bidirectional Dijkstra with reusable state (§3.1).
///
/// Two simultaneous searches grow shortest-path trees from `s` and from
/// `t`; the tentative best distance `mu` is updated whenever a relaxed
/// edge connects the two search scopes, and the searches stop once the two
/// queue minima together can no longer improve `mu`.
#[derive(Debug, Clone)]
pub struct BiDijkstra {
    fwd: Side,
    bwd: Side,
    version: u32,
    budget: QueryBudget,
    /// Statistics of the most recent query (both directions combined).
    pub stats: SearchStats,
}

impl BiDijkstra {
    /// Creates a workspace for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        BiDijkstra {
            fwd: Side::new(n),
            bwd: Side::new(n),
            version: 0,
            budget: QueryBudget::unlimited(),
            stats: SearchStats::default(),
        }
    }

    /// Installs the cancellation budget subsequent queries run under
    /// (one charge per settled vertex). The default is unlimited.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`BiDijkstra::set_budget`] was cut
    /// short by the budget (its `None` is an abort, not "unreachable").
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Length of the shortest s–t path, or `None` when unreachable
    /// (cannot happen on connected networks, but scoped callers reuse
    /// this). This is the paper's *distance query* (§2).
    pub fn distance(&mut self, net: &RoadNetwork, s: NodeId, t: NodeId) -> Option<Dist> {
        let (mu, _) = self.search(net, s, t)?;
        Some(mu)
    }

    /// The paper's *shortest path query*: the distance plus the vertex
    /// sequence of a shortest path from `s` to `t`.
    pub fn shortest_path(
        &mut self,
        net: &RoadNetwork,
        s: NodeId,
        t: NodeId,
    ) -> Option<(Dist, Vec<NodeId>)> {
        let (mu, meet) = self.search(net, s, t)?;
        let mut path = Vec::new();
        // Forward half: meet back to s, reversed.
        let mut cur = meet;
        loop {
            path.push(cur);
            if cur == s {
                break;
            }
            cur = self.fwd.parent[cur as usize];
        }
        path.reverse();
        // Backward half: follow the backward tree from meet to t.
        let mut cur = meet;
        while cur != t {
            cur = self.bwd.parent[cur as usize];
            path.push(cur);
        }
        Some((mu, path))
    }

    /// Runs the two searches; returns `(distance, meeting_vertex)` where
    /// the meeting vertex lies on some shortest path and is settled (or at
    /// least reached) from both sides.
    fn search(&mut self, net: &RoadNetwork, s: NodeId, t: NodeId) -> Option<(Dist, NodeId)> {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.fwd.reached_stamp.fill(0);
            self.fwd.settled_stamp.fill(0);
            self.bwd.reached_stamp.fill(0);
            self.bwd.settled_stamp.fill(0);
            self.version = 1;
        }
        let version = self.version;
        self.stats = SearchStats::default();
        self.fwd.begin(s, version);
        self.bwd.begin(t, version);
        if s == t {
            return Some((0, s));
        }

        let mut mu = INFINITY;
        let mut meet = INVALID_NODE;
        loop {
            let ftop = self.fwd.heap.peek_key();
            let btop = self.bwd.heap.peek_key();
            // Balanced alternation: expand the side with the smaller
            // queue minimum (§3.1's "two traversals grow to ~dist/2").
            let side_is_fwd = match (ftop, btop) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(f), Some(b)) => f <= b,
            };
            // Stopping rule: any undiscovered connecting path costs at
            // least ftop + btop, so once that reaches mu, mu is final.
            if ftop.unwrap_or(INFINITY) + btop.unwrap_or(INFINITY) >= mu {
                break;
            }

            let (this, other) = if side_is_fwd {
                (&mut self.fwd, &mut self.bwd)
            } else {
                (&mut self.bwd, &mut self.fwd)
            };
            if !self.budget.charge() {
                return None;
            }
            let (d, u) = this.heap.pop_min().expect("side chosen non-empty");
            this.settled_stamp[u as usize] = version;
            self.stats.settled += 1;
            for (v, w) in net.neighbors(u) {
                self.stats.relaxed += 1;
                let nd = d + w as Dist;
                let vi = v as usize;
                if this.reached_stamp[vi] != version || nd < this.dist[vi] {
                    this.dist[vi] = nd;
                    this.parent[vi] = u;
                    this.reached_stamp[vi] = version;
                    this.heap.push_or_decrease(v, nd);
                }
                // Connection check: v reached from the other side too.
                if other.reached(v, version) {
                    let total = nd + other.dist[vi];
                    if total < mu {
                        mu = total;
                        meet = v;
                    }
                }
            }
        }

        if meet == INVALID_NODE {
            None
        } else {
            Some((mu, meet))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dijkstra;
    use spq_graph::toy::figure1;

    #[test]
    fn matches_paper_example() {
        let g = figure1();
        let mut bi = BiDijkstra::new(g.num_nodes());
        // §3.2's worked example: dist(v3, v7) = 6.
        assert_eq!(bi.distance(&g, 2, 6), Some(6));
        let (d, p) = bi.shortest_path(&g, 2, 6).unwrap();
        assert_eq!(d, 6);
        assert_eq!(p.first(), Some(&2));
        assert_eq!(p.last(), Some(&6));
        assert_eq!(g.path_length(&p), Some(6));
    }

    #[test]
    fn agrees_with_unidirectional_on_all_pairs() {
        let g = figure1();
        let n = g.num_nodes() as NodeId;
        let mut uni = Dijkstra::new(g.num_nodes());
        let mut bi = BiDijkstra::new(g.num_nodes());
        for s in 0..n {
            uni.run(&g, s);
            for t in 0..n {
                assert_eq!(bi.distance(&g, s, t), uni.distance(t), "pair ({s},{t})");
                let (d, p) = bi.shortest_path(&g, s, t).unwrap();
                assert_eq!(Some(d), g.path_length(&p), "path ({s},{t}) invalid");
            }
        }
    }

    #[test]
    fn trivial_query_s_equals_t() {
        let g = figure1();
        let mut bi = BiDijkstra::new(g.num_nodes());
        assert_eq!(bi.distance(&g, 4, 4), Some(0));
        let (d, p) = bi.shortest_path(&g, 4, 4).unwrap();
        assert_eq!(d, 0);
        assert_eq!(p, vec![4]);
    }

    #[test]
    fn settles_fewer_vertices_than_unidirectional() {
        // §3.1's argument: each frontier grows a ball of radius ~dist/2,
        // so on a 2-d network the bidirectional search touches about half
        // as many vertices.
        let g = spq_graph::toy::grid_graph(80, 80);
        let s = 40 * 80 + 10; // (col 10, row 40)
        let t = 40 * 80 + 70; // (col 70, row 40)
        let mut uni = Dijkstra::new(g.num_nodes());
        let mut bi = BiDijkstra::new(g.num_nodes());
        uni.run_to_target(&g, s, t);
        bi.distance(&g, s, t);
        assert!(
            bi.stats.settled * 10 <= uni.stats.settled * 8,
            "bi settled {} vs uni {}",
            bi.stats.settled,
            uni.stats.settled
        );
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = figure1();
        let mut bi = BiDijkstra::new(g.num_nodes());
        for _ in 0..100 {
            assert_eq!(bi.distance(&g, 0, 6), bi.distance(&g, 6, 0));
        }
    }
}
