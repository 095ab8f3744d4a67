//! CH distance and shortest-path queries (paper §3.2) over the flattened
//! rank-renumbered [`SearchGraph`].
//!
//! The kernel never touches original vertex ids except at the boundary:
//! endpoints are translated to ranks on entry, unpacked paths back to
//! original ids on exit. In between, every settle scans one contiguous
//! slice of interleaved [`SearchEdge`](crate::search_graph::SearchEdge)
//! records whose targets ascend — the layout the cache wants.

use spq_graph::backend::QueryBudget;
use spq_graph::heap::IndexedHeap;
use spq_graph::types::{Dist, NodeId, INFINITY, INVALID_NODE};

use crate::contraction::ContractionHierarchy;
use crate::search_graph::{edge_to, SearchGraph, NO_MIDDLE};

/// One direction's workspace of the bidirectional upward search.
///
/// Sized lazily on the first query: a freshly constructed [`ChQuery`]
/// owns no n-length arrays, so spinning up a worker pool against a large
/// graph costs nothing until a worker actually serves a query — and from
/// the second query on, a side is allocation-free.
#[derive(Debug)]
struct Side {
    dist: Vec<Dist>,
    /// Rank of the vertex that discovered each vertex (for path
    /// retrieval).
    parent: Vec<u32>,
    /// Middle tag of the discovering edge ([`NO_MIDDLE`] if original).
    parent_middle: Vec<u32>,
    stamp: Vec<u32>,
    heap: IndexedHeap,
}

impl Side {
    fn empty() -> Self {
        Side {
            dist: Vec::new(),
            parent: Vec::new(),
            parent_middle: Vec::new(),
            stamp: Vec::new(),
            heap: IndexedHeap::new(0),
        }
    }

    /// Grows the workspace to cover `n` vertices (no-op once grown).
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist = vec![INFINITY; n];
            self.parent = vec![INVALID_NODE; n];
            self.parent_middle = vec![NO_MIDDLE; n];
            self.stamp = vec![0; n];
            self.heap = IndexedHeap::new(n);
        }
    }

    fn begin(&mut self, root: u32, version: u32) {
        self.heap.clear();
        self.dist[root as usize] = 0;
        self.parent[root as usize] = INVALID_NODE;
        self.parent_middle[root as usize] = NO_MIDDLE;
        self.stamp[root as usize] = version;
        self.heap.push_or_decrease(root, 0);
    }

    #[inline]
    fn reached(&self, r: u32, version: u32) -> bool {
        self.stamp[r as usize] == version
    }
}

/// A reusable CH query workspace.
///
/// Distance queries run the modified bidirectional Dijkstra of §3.2: both
/// traversals only follow edges (and shortcuts) leading to higher-ranked
/// vertices, and — unlike plain bidirectional Dijkstra — they may not stop
/// at the first meeting vertex ("there exist a few conditions that a
/// traversal should fulfill before it can terminate"): each side runs
/// until its queue minimum reaches the best connection found so far.
///
/// Shortest-path queries additionally unpack shortcuts: a shortcut tagged
/// with contracted vertex `m` between `u` and `w` is recursively replaced
/// by the hierarchy edges (u, m) and (m, w), both of them upward edges of
/// `m` and found by scanning its (short) list.
#[derive(Debug)]
pub struct ChQuery<'a> {
    ch: &'a ContractionHierarchy,
    sg: &'a SearchGraph,
    fwd: Side,
    bwd: Side,
    version: u32,
    /// Enables the stall-on-demand optimisation (skip expanding vertices
    /// already proven suboptimal via a higher-ranked neighbour). Always
    /// on outside this crate; the stall/no-stall reference test below
    /// turns it off.
    pub(crate) stall_on_demand: bool,
    /// Vertices settled by the most recent query.
    pub last_settled: usize,
    /// Scratch stack for shortcut unpacking: hierarchy edges still to be
    /// expanded, as `(from, to, middle)` in rank space, next one on top.
    unpack_stack: Vec<(u32, u32, u32)>,
    budget: QueryBudget,
}

impl Clone for ChQuery<'_> {
    /// Cloning yields a fresh workspace against the same hierarchy —
    /// lazily sized, like [`ChQuery::new`] — rather than copying the
    /// megabytes of per-query scratch state.
    fn clone(&self) -> Self {
        let mut q = ChQuery::new(self.ch);
        q.stall_on_demand = self.stall_on_demand;
        q.budget = self.budget.clone();
        q
    }
}

impl<'a> ChQuery<'a> {
    /// Creates a workspace bound to `ch`. Allocation of the n-sized
    /// search arrays is deferred to the first query.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        ChQuery {
            ch,
            sg: ch.search_graph(),
            fwd: Side::empty(),
            bwd: Side::empty(),
            version: 0,
            stall_on_demand: true,
            last_settled: 0,
            unpack_stack: Vec::new(),
            budget: QueryBudget::unlimited(),
        }
    }

    /// The hierarchy this workspace queries.
    pub fn hierarchy(&self) -> &'a ContractionHierarchy {
        self.ch
    }

    /// Installs the cancellation budget subsequent queries run under
    /// (one charge per settled vertex). The default is unlimited.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`ChQuery::set_budget`] was cut
    /// short by the budget (its `None` is an abort, not "unreachable").
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Distance query (§2): length of the shortest s–t path.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search(s, t).map(|(d, _)| d)
    }

    /// Shortest-path query (§2): distance plus the full vertex sequence
    /// in the original network, with all shortcuts unpacked.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        let (d, meet) = self.search(s, t)?;
        let rs = self.sg.rank_of(s);
        let rt = self.sg.rank_of(t);
        // The augmented path: s ..fwd.. meet ..bwd.. t, as hierarchy edges
        // in rank space; original ids appear only as the path is emitted.
        let mut path = vec![s];
        // Forward half (s -> meet): the parents walk back from meet, which
        // stacks the edges with the first one to travel on top.
        debug_assert!(self.unpack_stack.is_empty());
        let mut cur = meet;
        while cur != rs {
            let from = self.fwd.parent[cur as usize];
            self.unpack_stack
                .push((from, cur, self.fwd.parent_middle[cur as usize]));
            cur = from;
        }
        self.unpack_into(&mut path);
        // Backward half (meet -> t): bwd parents walk toward t, in travel
        // order already.
        let mut cur = meet;
        while cur != rt {
            let to = self.bwd.parent[cur as usize];
            self.unpack_stack
                .push((cur, to, self.bwd.parent_middle[cur as usize]));
            self.unpack_into(&mut path);
            cur = to;
        }
        Some((d, path))
    }

    /// Empties the unpack stack onto `path` (original ids): each stacked
    /// hierarchy edge is expanded down to road edges and contributes
    /// every vertex after its `from`. Iterative to survive very long
    /// shortcut chains.
    fn unpack_into(&mut self, path: &mut Vec<NodeId>) {
        while let Some((a, b, m)) = self.unpack_stack.pop() {
            debug_assert_eq!(path.last().copied(), Some(self.sg.orig_of(a)));
            if m == NO_MIDDLE {
                path.push(self.sg.orig_of(b));
            } else {
                // Shortcut tagged m: replace with (a, m) then (m, b). m
                // was contracted before both endpoints, so both halves
                // are upward edges of m; `SearchGraph::from_sections`
                // refused any hierarchy where they are not. Push in
                // reverse order: the stack is LIFO.
                let halves = self.sg.up(m);
                let e1 = edge_to(halves, a).expect("validated: shortcut half (m, a) exists");
                let e2 = edge_to(halves, b).expect("validated: shortcut half (m, b) exists");
                self.unpack_stack.push((m, b, e2.middle));
                self.unpack_stack.push((a, m, e1.middle));
            }
        }
    }

    /// The bidirectional upward search, entirely in rank space. Returns
    /// `(distance, meeting rank)`.
    fn search(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, u32)> {
        let n = self.sg.num_nodes();
        self.fwd.ensure(n);
        self.bwd.ensure(n);
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.fwd.stamp.fill(0);
            self.bwd.stamp.fill(0);
            self.version = 1;
        }
        let version = self.version;
        self.last_settled = 0;
        let rs = self.sg.rank_of(s);
        let rt = self.sg.rank_of(t);
        self.fwd.begin(rs, version);
        self.bwd.begin(rt, version);
        if rs == rt {
            return Some((0, rs));
        }

        let mut mu = INFINITY;
        let mut meet = u32::MAX;
        loop {
            let ftop = self.fwd.heap.peek_key().unwrap_or(INFINITY);
            let btop = self.bwd.heap.peek_key().unwrap_or(INFINITY);
            // Each side keeps running until its own minimum reaches mu:
            // upward searches may improve mu after the frontiers first
            // touch (the "few conditions" §3.2 alludes to).
            if ftop.min(btop) >= mu {
                break;
            }
            let side_is_fwd = if ftop >= mu {
                false
            } else if btop >= mu {
                true
            } else {
                ftop <= btop
            };
            let (this, other) = if side_is_fwd {
                (&mut self.fwd, &mut self.bwd)
            } else {
                (&mut self.bwd, &mut self.fwd)
            };
            if !self.budget.charge() {
                return None;
            }
            let Some((d, u)) = this.heap.pop_min() else {
                break;
            };
            self.last_settled += 1;

            // Meeting check: u reached by the other side.
            if other.reached(u, version) {
                let total = d + other.dist[u as usize];
                if total < mu {
                    mu = total;
                    meet = u;
                }
            }

            let edges = self.sg.up(u);

            // Stall-on-demand: if a higher-ranked, already-settled
            // neighbour offers a shorter way back down to u, u cannot be
            // on a shortest up-down path; skip expanding it.
            if self.stall_on_demand
                && edges.iter().any(|e| {
                    this.reached(e.target, version)
                        && this.dist[e.target as usize] + (e.weight as Dist) < d
                })
            {
                continue;
            }

            for e in edges {
                let nd = d + e.weight as Dist;
                let hi = e.target as usize;
                if this.stamp[hi] != version || nd < this.dist[hi] {
                    this.dist[hi] = nd;
                    this.parent[hi] = u;
                    this.parent_middle[hi] = e.middle;
                    this.stamp[hi] = version;
                    this.heap.push_or_decrease(e.target, nd);
                }
            }
        }

        if meet == u32::MAX {
            None
        } else {
            Some((mu, meet))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contraction::ContractionHierarchy;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};
    use spq_graph::RoadNetwork;

    fn check_all_pairs(g: &RoadNetwork, ch: &ContractionHierarchy) {
        let n = g.num_nodes() as NodeId;
        let mut q = ChQuery::new(ch);
        let mut reference = Dijkstra::new(g.num_nodes());
        for s in 0..n {
            reference.run(g, s);
            for t in 0..n {
                let expect = reference.distance(t);
                assert_eq!(q.distance(s, t), expect, "distance ({s},{t})");
                let (d, path) = q.shortest_path(s, t).expect("path exists");
                assert_eq!(Some(d), expect, "path length ({s},{t})");
                assert_eq!(path.first().copied(), Some(s));
                assert_eq!(path.last().copied(), Some(t));
                assert_eq!(
                    g.path_length(&path),
                    expect,
                    "path ({s},{t}) must be edge-valid and optimal: {path:?}"
                );
            }
        }
    }

    #[test]
    fn figure1_worked_example() {
        let g = figure1();
        let ch = ContractionHierarchy::build_with_order(&g, &(0..8).collect::<Vec<_>>());
        let mut q = ChQuery::new(&ch);
        // §3.2: dist(v3, v7) = w(c1) + w(c3) = 6, met at v8.
        assert_eq!(q.distance(2, 6), Some(6));
        // The unpacked path must be v3 v1 v8 v6 v5 v7 (all real edges).
        let (_, path) = q.shortest_path(2, 6).unwrap();
        assert_eq!(path, vec![2, 0, 7, 5, 4, 6]);
    }

    #[test]
    fn identity_order_all_pairs_exact() {
        let g = figure1();
        let ch = ContractionHierarchy::build_with_order(&g, &(0..8).collect::<Vec<_>>());
        check_all_pairs(&g, &ch);
    }

    #[test]
    fn heuristic_order_all_pairs_exact() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        check_all_pairs(&g, &ch);
    }

    #[test]
    fn grid_all_pairs_exact() {
        let g = grid_graph(7, 5);
        let ch = ContractionHierarchy::build(&g);
        check_all_pairs(&g, &ch);
    }

    #[test]
    fn stalling_does_not_change_answers() {
        let g = grid_graph(9, 9);
        let ch = ContractionHierarchy::build(&g);
        let mut with = ChQuery::new(&ch);
        let mut without = ChQuery::new(&ch);
        without.stall_on_demand = false;
        for s in [0u32, 7, 40, 80] {
            for t in [0u32, 8, 44, 72] {
                assert_eq!(with.distance(s, t), without.distance(s, t));
            }
        }
    }

    #[test]
    fn search_space_shrinks_relative_to_dijkstra() {
        let g = grid_graph(30, 30);
        let ch = ContractionHierarchy::build(&g);
        let mut q = ChQuery::new(&ch);
        let mut d = Dijkstra::new(g.num_nodes());
        let (s, t) = (0u32, (g.num_nodes() - 1) as u32);
        q.distance(s, t);
        d.run_to_target(&g, s, t);
        assert!(
            q.last_settled * 3 < d.stats.settled,
            "CH settled {} vs Dijkstra {}",
            q.last_settled,
            d.stats.settled
        );
    }

    #[test]
    fn clone_starts_lazy_but_answers_identically() {
        let g = grid_graph(6, 6);
        let ch = ContractionHierarchy::build(&g);
        let mut q = ChQuery::new(&ch);
        assert_eq!(q.fwd.dist.len(), 0, "construction must not allocate");
        q.distance(0, 35);
        let mut c = q.clone();
        assert_eq!(c.fwd.dist.len(), 0, "clone must reset to lazy");
        for (s, t) in [(0u32, 35u32), (5, 30), (12, 12)] {
            assert_eq!(c.distance(s, t), q.distance(s, t));
            assert_eq!(c.shortest_path(s, t), q.shortest_path(s, t));
        }
    }

    #[test]
    fn synthetic_network_random_pairs_exact() {
        let g = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(900, 3));
        let ch = ContractionHierarchy::build(&g);
        let mut q = ChQuery::new(&ch);
        let mut d = Dijkstra::new(g.num_nodes());
        let n = g.num_nodes() as u32;
        let mut state = 0xdead_beefu64;
        for _ in 0..60 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = ((state >> 33) % n as u64) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = ((state >> 33) % n as u64) as u32;
            d.run_to_target(&g, s, t);
            assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
            let (dist, path) = q.shortest_path(s, t).unwrap();
            assert_eq!(g.path_length(&path), Some(dist), "({s},{t})");
        }
    }
}
