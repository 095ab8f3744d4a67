//! Reusable one-to-all / one-to-many Dijkstra search: the canonical
//! shortest-path tree (parents, first hops) that SILC, PCPD, TNR and
//! the oracles read. A network range needs distances only and is
//! served by the leaner [`Ball`](crate::Ball).

use spq_graph::geo::Rect;
use spq_graph::heap::IndexedHeap;
use spq_graph::types::{Dist, NodeId, INFINITY, INVALID_NODE};
use spq_graph::RoadNetwork;

use crate::SearchStats;

/// Where a search is allowed to go.
#[derive(Debug, Clone, Copy, Default)]
pub enum SearchScope<'a> {
    /// Unrestricted search over the whole network.
    #[default]
    Full,
    /// Only vertices whose coordinate lies inside the rectangle may be
    /// *expanded* (their out-edges relaxed). Vertices outside may still be
    /// settled — TNR needs exactly this: the endpoints of edges crossing
    /// the outer shell lie outside the region but terminate its searches
    /// (§3.3, Remarks).
    Rect(&'a Rect),
}

/// A one-to-all Dijkstra search with a reusable workspace.
///
/// After a run, tentative/final distances, predecessors and first hops of
/// all *settled* vertices are available until the next run. Ties are broken
/// deterministically (the optimal predecessor with the smallest id wins),
/// so with strictly positive weights every source induces one canonical
/// shortest-path tree — SILC's colouring and PCPD's common-element tests
/// rely on this.
#[derive(Debug, Clone)]
pub struct Dijkstra {
    dist: Vec<Dist>,
    parent: Vec<NodeId>,
    /// First edge of the tree path: `first_hop[u]` is the neighbour of the
    /// source that the canonical path to `u` starts with.
    first_hop: Vec<NodeId>,
    reached_stamp: Vec<u32>,
    settled_stamp: Vec<u32>,
    version: u32,
    heap: IndexedHeap,
    source: NodeId,
    /// Most recent run's statistics.
    pub stats: SearchStats,
}

impl Dijkstra {
    /// Creates a workspace for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        Dijkstra {
            dist: vec![INFINITY; n],
            parent: vec![INVALID_NODE; n],
            first_hop: vec![INVALID_NODE; n],
            reached_stamp: vec![0; n],
            settled_stamp: vec![0; n],
            version: 0,
            heap: IndexedHeap::new(n),
            source: INVALID_NODE,
            stats: SearchStats::default(),
        }
    }

    fn begin(&mut self, source: NodeId) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.reached_stamp.fill(0);
            self.settled_stamp.fill(0);
            self.version = 1;
        }
        self.heap.clear();
        self.stats = SearchStats::default();
        self.source = source;
        self.dist[source as usize] = 0;
        self.parent[source as usize] = INVALID_NODE;
        self.first_hop[source as usize] = INVALID_NODE;
        self.reached_stamp[source as usize] = self.version;
        self.heap.push_or_decrease(source, 0);
    }

    /// Runs to exhaustion from `source`, settling every vertex.
    pub fn run(&mut self, net: &RoadNetwork, source: NodeId) {
        self.run_scoped(net, source, SearchScope::Full, |_, _| false);
    }

    /// Runs from `source` until `t` is settled; returns its distance.
    pub fn run_to_target(&mut self, net: &RoadNetwork, source: NodeId, t: NodeId) -> Option<Dist> {
        self.run_scoped(net, source, SearchScope::Full, |v, _| v == t);
        self.distance(t)
    }

    /// Runs from `source` until every vertex of `targets` is settled (or
    /// the reachable scope is exhausted). Returns how many were reached.
    pub fn run_to_targets(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        targets: &[NodeId],
        scope: SearchScope<'_>,
    ) -> usize {
        // Target sets are small (shell endpoints); membership is a binary
        // search over a sorted, deduplicated copy.
        let mut sorted: Vec<NodeId> = targets.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut remaining = sorted.len();
        self.run_scoped(net, source, scope, |v, _| {
            if sorted.binary_search(&v).is_ok() {
                remaining -= 1;
                remaining == 0
            } else {
                false
            }
        });
        sorted.len() - remaining
    }

    /// Core loop: settles vertices in distance order, stopping early when
    /// `stop(settled_vertex, its_distance)` returns true.
    pub fn run_scoped(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        scope: SearchScope<'_>,
        mut stop: impl FnMut(NodeId, Dist) -> bool,
    ) {
        self.begin(source);
        while let Some((d, u)) = self.heap.pop_min() {
            self.settled_stamp[u as usize] = self.version;
            self.stats.settled += 1;
            if stop(u, d) {
                return;
            }
            if let SearchScope::Rect(r) = scope {
                if !r.contains(net.coord(u)) && u != source {
                    // Settled but not expanded: endpoints beyond the
                    // region boundary terminate the search frontier.
                    continue;
                }
            }
            for (v, w) in net.neighbors(u) {
                self.stats.relaxed += 1;
                let nd = d + w as Dist;
                let vi = v as usize;
                let fresh = self.reached_stamp[vi] != self.version;
                if fresh || nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.parent[vi] = u;
                    self.first_hop[vi] = if u == source {
                        v
                    } else {
                        self.first_hop[u as usize]
                    };
                    self.reached_stamp[vi] = self.version;
                    self.heap.push_or_decrease(v, nd);
                } else if nd == self.dist[vi]
                    && self.settled_stamp[vi] != self.version
                    && u < self.parent[vi]
                {
                    // Deterministic tie-break: smallest-id predecessor
                    // defines the canonical tree.
                    self.parent[vi] = u;
                    self.first_hop[vi] = if u == source {
                        v
                    } else {
                        self.first_hop[u as usize]
                    };
                }
            }
        }
    }

    /// Runs from `source` to `t` while never expanding or settling the
    /// vertices marked in `excluded` (the source itself is always
    /// allowed). Used for core-disjoint path computation (paper
    /// Appendix C: the δ-redundancy measurement removes the interior of
    /// the shortest path and re-searches). Returns `dist(s, t)` in the
    /// reduced graph, or `None` if `t` became unreachable.
    pub fn run_to_target_excluding(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        t: NodeId,
        excluded: &[bool],
    ) -> Option<Dist> {
        self.begin(source);
        while let Some((d, u)) = self.heap.pop_min() {
            if excluded[u as usize] && u != source {
                continue; // never settle excluded vertices
            }
            self.settled_stamp[u as usize] = self.version;
            self.stats.settled += 1;
            if u == t {
                return Some(d);
            }
            for (v, w) in net.neighbors(u) {
                self.stats.relaxed += 1;
                if excluded[v as usize] && v != t {
                    continue;
                }
                let nd = d + w as Dist;
                let vi = v as usize;
                if self.reached_stamp[vi] != self.version || nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.parent[vi] = u;
                    self.first_hop[vi] = if u == source {
                        v
                    } else {
                        self.first_hop[u as usize]
                    };
                    self.reached_stamp[vi] = self.version;
                    self.heap.push_or_decrease(v, nd);
                }
            }
        }
        None
    }

    /// Source of the most recent run.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance of `v` if it was settled by the last run.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<Dist> {
        if self.settled_stamp[v as usize] == self.version {
            Some(self.dist[v as usize])
        } else {
            None
        }
    }

    /// Whether `v` was settled by the last run.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.settled_stamp[v as usize] == self.version
    }

    /// Predecessor of `v` in the canonical tree (None at the source or if
    /// unsettled).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        if self.settled_stamp[v as usize] == self.version && v != self.source {
            Some(self.parent[v as usize])
        } else {
            None
        }
    }

    /// Neighbour of the source that starts the canonical path to `v`
    /// (the quantity SILC's colouring stores, §3.4).
    #[inline]
    pub fn first_hop(&self, v: NodeId) -> Option<NodeId> {
        if self.settled_stamp[v as usize] == self.version && v != self.source {
            Some(self.first_hop[v as usize])
        } else {
            None
        }
    }

    /// The canonical path source→`v` as a vertex sequence.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.settled_stamp[v as usize] != self.version {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::{figure1, path_graph};

    #[test]
    fn distances_on_figure1() {
        let g = figure1();
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(&g, 7); // from v8
                      // Paper §3.4: paths from v8 to v1 and v3 go via v1.
        assert_eq!(d.distance(0), Some(1)); // v1
        assert_eq!(d.distance(2), Some(2)); // v3 via v1
        assert_eq!(d.first_hop(2), Some(0));
        assert_eq!(d.distance(1), Some(2)); // v2: direct (2) beats v8-v1-v3-v2 (3)
        assert_eq!(d.first_hop(1), Some(1));
        // §3.4: "the paths from v8 to v4, v5, v6, v7 pass through v6".
        for (target, dist) in [(3u32, 3u64), (4, 3), (5, 2), (6, 4)] {
            assert_eq!(d.first_hop(target), Some(5), "target {target}");
            assert_eq!(d.distance(target), Some(dist), "target {target}");
        }
    }

    #[test]
    fn path_reconstruction_is_valid() {
        let g = figure1();
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(&g, 2); // from v3
        for v in 0..g.num_nodes() as NodeId {
            let p = d.path_to(v).unwrap();
            assert_eq!(p.first().copied(), Some(2));
            assert_eq!(p.last().copied(), Some(v));
            assert_eq!(g.path_length(&p), d.distance(v));
        }
    }

    #[test]
    fn early_exit_settles_prefix_only() {
        let g = path_graph(100);
        let mut d = Dijkstra::new(g.num_nodes());
        let dist = d.run_to_target(&g, 0, 10);
        assert_eq!(dist, Some(10));
        assert_eq!(d.stats.settled, 11);
        assert!(!d.is_settled(50));
        assert_eq!(d.distance(50), None);
    }

    #[test]
    fn workspace_reuse_resets_state() {
        let g = figure1();
        let mut d = Dijkstra::new(g.num_nodes());
        d.run_to_target(&g, 0, 2);
        d.run(&g, 6);
        assert_eq!(d.source(), 6);
        assert_eq!(d.distance(6), Some(0));
        // Everything settled again with distances from v7.
        assert_eq!(d.distance(2), Some(6));
    }

    #[test]
    fn multi_target_counts_reached() {
        let g = path_graph(20);
        let mut d = Dijkstra::new(g.num_nodes());
        let reached = d.run_to_targets(&g, 0, &[3, 7, 7, 5], SearchScope::Full);
        assert_eq!(reached, 3); // dedup: {3, 5, 7}
        assert!(d.is_settled(7));
        assert!(!d.is_settled(15));
    }

    #[test]
    fn rect_scope_blocks_expansion() {
        use spq_graph::geo::{Point, Rect};
        let g = path_graph(10); // coords x = 0,10,...,90
        let rect = Rect::new(Point::new(0, 0), Point::new(35, 0));
        let mut d = Dijkstra::new(g.num_nodes());
        d.run_scoped(&g, 0, SearchScope::Rect(&rect), |_, _| false);
        // Nodes 0..=3 are inside; node 4 is settled (frontier endpoint)
        // but never expanded, so node 5 is unreachable.
        assert!(d.is_settled(4));
        assert_eq!(d.distance(4), Some(4));
        assert!(!d.is_settled(5));
    }

    #[test]
    fn excluding_vertices_forces_detours() {
        let g = figure1();
        let mut d = Dijkstra::new(g.num_nodes());
        // v3 -> v7 normally via v1/v8 with distance 6 (§3.2). Excluding
        // v8 (id 7) disconnects the left from the right component
        // entirely (Figure 5's path-coherent pair through v8).
        let mut excluded = vec![false; 8];
        excluded[7] = true;
        assert_eq!(d.run_to_target_excluding(&g, 2, 6, &excluded), None);
        // Excluding v1 (id 0) forces the v2 detour: v3-v2-v8-v6-v5-v7.
        let mut excluded = vec![false; 8];
        excluded[0] = true;
        assert_eq!(d.run_to_target_excluding(&g, 2, 6, &excluded), Some(7));
        // Excluding nothing reproduces the true distance.
        let excluded = vec![false; 8];
        assert_eq!(d.run_to_target_excluding(&g, 2, 6, &excluded), Some(6));
    }

    #[test]
    fn canonical_tie_break_prefers_small_parent() {
        // Diamond: 0-1 (1), 0-2 (1), 1-3 (1), 2-3 (1). Two optimal paths
        // to 3; canonical parent must be 1 (smaller id).
        use spq_graph::geo::Point;
        use spq_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, 0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(2, 3, 1);
        let g = b.build().unwrap();
        let mut d = Dijkstra::new(4);
        d.run(&g, 0);
        assert_eq!(d.parent(3), Some(1));
        assert_eq!(d.first_hop(3), Some(1));
    }
}
