//! CH distance and shortest-path queries (paper §3.2) over the flattened
//! rank-renumbered [`SearchGraph`].
//!
//! The kernel never touches original vertex ids except at the boundary:
//! endpoints are translated to ranks on entry, unpacked paths back to
//! original ids on exit. In between, every settle scans one contiguous
//! slice of interleaved [`SearchEdge`](crate::search_graph::SearchEdge)
//! records whose targets ascend — the layout the cache wants.

use spq_graph::backend::QueryBudget;
use spq_graph::heap::{SlotHeap, Slots};
use spq_graph::types::{Dist, NodeId, INFINITY};

use crate::contraction::ContractionHierarchy;
use crate::search_graph::{edge_to, SearchGraph, NO_MIDDLE};

/// Index of the forward (from `s`) direction in a [`Rec`]'s pairs.
const FWD: usize = 0;
/// Index of the backward (from `t`) direction.
const BWD: usize = 1;

/// The search state of one rank in both directions, side by side: a
/// relaxation, its decrease-key, the meeting check and the stall test
/// each touch one 32-byte record, which never straddles a cache line.
/// All zeros is "not reached in either direction".
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Rec {
    /// Tentative distance from the direction's root; meaningful only
    /// where `parent` is non-zero.
    dist: [Dist; 2],
    /// Rank plus one of the vertex that discovered this one (the root
    /// is its own parent); 0: not reached in that direction.
    parent: [u32; 2],
    /// The direction's heap slot (see [`Slots`]); 0: not queued.
    heap_pos: [u32; 2],
}

/// Direction `DIR`'s view of the records, as its heap's [`Slots`].
struct Dir<'r, const DIR: usize>(&'r mut [Rec]);

impl<const DIR: usize> Slots for Dir<'_, DIR> {
    #[inline]
    fn slot(&self, v: NodeId) -> u32 {
        self.0[v as usize].heap_pos[DIR]
    }

    #[inline]
    fn set_slot(&mut self, v: NodeId, slot: u32) {
        self.0[v as usize].heap_pos[DIR] = slot;
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
///
/// The n-sized record table is allocated on the first query: a freshly
/// constructed workspace owns no n-length arrays, so spinning up a
/// worker pool against a large graph costs nothing until a worker
/// actually serves a query — and from the second query on, a query is
/// allocation-free. Each query resets only the records the previous one
/// touched, whether it finished or its budget cut it: a rank it reached
/// was either settled (the `settled` list) or is still queued.
#[derive(Debug)]
pub struct ChQuery<'a> {
    ch: &'a ContractionHierarchy,
    sg: &'a SearchGraph,
    /// One record per rank; empty until the first query.
    recs: Vec<Rec>,
    /// Ranks the current query settled, in either direction (a rank
    /// settled in both appears twice).
    settled: Vec<u32>,
    /// The forward and backward queues; positions live in `recs`.
    heaps: [SlotHeap; 2],
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
    /// search records is deferred to the first query.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        ChQuery {
            ch,
            sg: ch.search_graph(),
            recs: Vec::new(),
            settled: Vec::new(),
            heaps: [SlotHeap::default(), SlotHeap::default()],
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
        // Both searches go upward, so each path edge joins a vertex to its
        // parent below it, and its middle tag is read from the parent's
        // upward list.
        let mut path = vec![s];
        // Forward half (s -> meet): the parents walk back from meet, which
        // stacks the edges with the first one to travel on top.
        debug_assert!(self.unpack_stack.is_empty());
        let mut cur = meet;
        while cur != rs {
            let from = self.recs[cur as usize].parent[FWD] - 1;
            self.unpack_stack.push((from, cur, self.middle(from, cur)));
            cur = from;
        }
        self.unpack_into(&mut path);
        // Backward half (meet -> t): bwd parents walk toward t, in travel
        // order already.
        let mut cur = meet;
        while cur != rt {
            let to = self.recs[cur as usize].parent[BWD] - 1;
            self.unpack_stack.push((cur, to, self.middle(to, cur)));
            self.unpack_into(&mut path);
            cur = to;
        }
        Some((d, path))
    }

    /// Middle tag of the hierarchy edge from `lower` up to `upper`
    /// ([`NO_MIDDLE`] for a road edge).
    fn middle(&self, lower: u32, upper: u32) -> u32 {
        edge_to(self.sg.up(lower), upper)
            .expect("a search parent links to its child by an upward edge")
            .middle
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
        let sg = self.sg;
        let n = sg.num_nodes();
        if self.recs.len() < n {
            let capacity = 1024.min(n);
            self.recs = vec![Rec::default(); n];
            self.settled = Vec::with_capacity(capacity);
            self.heaps = [
                SlotHeap::with_capacity(capacity),
                SlotHeap::with_capacity(capacity),
            ];
        }
        // The touched records: every rank the last query reached was
        // settled or is still queued. `dist` is meaningless where
        // `parent` is 0, so it is left as is.
        let recs = &mut self.recs;
        let mut forget = |r: u32| {
            let rec = &mut recs[r as usize];
            rec.parent = [0; 2];
            rec.heap_pos = [0; 2];
        };
        for &r in &self.settled {
            forget(r);
        }
        self.settled.clear();
        for heap in &self.heaps {
            for r in heap.nodes() {
                forget(r);
            }
        }
        self.heaps[FWD].clear();
        self.heaps[BWD].clear();
        self.last_settled = 0;
        let rs = sg.rank_of(s);
        let rt = sg.rank_of(t);
        self.reach::<FWD>(rs, 0, rs);
        self.reach::<BWD>(rt, 0, rt);
        if rs == rt {
            return Some((0, rs));
        }

        let mut best = (INFINITY, u32::MAX);
        loop {
            let ftop = self.heaps[FWD].peek_key().unwrap_or(INFINITY);
            let btop = self.heaps[BWD].peek_key().unwrap_or(INFINITY);
            let mu = best.0;
            // Each side keeps running until its own minimum reaches mu:
            // upward searches may improve mu after the frontiers first
            // touch (the "few conditions" §3.2 alludes to).
            if ftop.min(btop) >= mu {
                break;
            }
            if !self.budget.charge() {
                return None;
            }
            if btop >= mu || (ftop < mu && ftop <= btop) {
                self.settle::<FWD>(&mut best);
            } else {
                self.settle::<BWD>(&mut best);
            }
        }

        if best.1 == u32::MAX {
            None
        } else {
            Some(best)
        }
    }

    /// Settles the minimum of direction `DIR`'s queue (which is not
    /// empty): checks it as a meeting vertex against `best` (distance,
    /// meeting rank) and, unless it stalls, relaxes its upward edges.
    #[inline]
    fn settle<const DIR: usize>(&mut self, best: &mut (Dist, u32)) {
        let sg = self.sg;
        let (d, u) = self.heaps[DIR]
            .pop_min(&mut Dir::<DIR>(&mut self.recs))
            .expect("the queue's minimum is below mu");
        self.last_settled += 1;
        self.settled.push(u);

        // Meeting check: u reached by the other side.
        let rec = &self.recs[u as usize];
        if rec.parent[1 - DIR] != 0 {
            let total = d + rec.dist[1 - DIR];
            if total < best.0 {
                *best = (total, u);
            }
        }

        let edges = sg.up(u);

        // Stall-on-demand: if a higher-ranked, already-reached neighbour
        // offers a shorter way back down to u, u cannot be on a shortest
        // up-down path; skip expanding it. The lists are short, so every
        // edge is tested, with `&` and `|` rather than branches.
        if self.stall_on_demand
            && edges.iter().fold(false, |stall, e| {
                let above = &self.recs[e.target as usize];
                stall | ((above.parent[DIR] != 0) & (above.dist[DIR] + (e.weight as Dist) < d))
            })
        {
            return;
        }

        for e in edges {
            let nd = d + e.weight as Dist;
            let above = &self.recs[e.target as usize];
            if above.parent[DIR] == 0 || nd < above.dist[DIR] {
                self.reach::<DIR>(e.target, nd, u);
            }
        }
    }

    /// Records `r` as reached in direction `DIR` at distance `d` from
    /// `parent`, and queues or re-keys it.
    #[inline]
    fn reach<const DIR: usize>(&mut self, r: u32, d: Dist, parent: u32) {
        let rec = &mut self.recs[r as usize];
        rec.dist[DIR] = d;
        rec.parent[DIR] = parent + 1;
        self.heaps[DIR].push_or_decrease(&mut Dir::<DIR>(&mut self.recs), r, d);
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
        assert_eq!(q.recs.len(), 0, "construction must not allocate");
        q.distance(0, 35);
        let mut c = q.clone();
        assert_eq!(c.recs.len(), 0, "clone must reset to lazy");
        for (s, t) in [(0u32, 35u32), (5, 30), (12, 12)] {
            assert_eq!(c.distance(s, t), q.distance(s, t));
            assert_eq!(c.shortest_path(s, t), q.shortest_path(s, t));
        }
    }

    /// Checks `q` on `pairs` against Dijkstra: distance, and a path that
    /// is edge-valid, optimal and has the right endpoints.
    fn assert_exact(g: &RoadNetwork, q: &mut ChQuery, pairs: &[(NodeId, NodeId)]) {
        let mut reference = Dijkstra::new(g.num_nodes());
        for &(s, t) in pairs {
            reference.run_to_target(g, s, t);
            let expect = reference.distance(t);
            assert_eq!(q.distance(s, t), expect, "distance ({s},{t})");
            let (d, path) = q.shortest_path(s, t).expect("grid is connected");
            assert_eq!(Some(d), expect, "path length ({s},{t})");
            assert_eq!((path[0], path[path.len() - 1]), (s, t));
            assert_eq!(g.path_length(&path), expect, "path ({s},{t}): {path:?}");
        }
    }

    #[test]
    fn a_query_cut_by_its_budget_leaves_the_next_ones_exact() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let g = grid_graph(12, 12);
        let ch = ContractionHierarchy::build(&g);
        let n = g.num_nodes() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| ((i * 37) % n, (i * 89 + 11) % n)).collect();
        let mut q = ChQuery::new(&ch);
        q.distance(0, n - 1);
        let full = q.last_settled as u64;
        // A node cap cuts the search after every possible number of
        // settles, in both directions' queues; the next pairs (through
        // a fresh budget) must not see any record of the cut search.
        for cap in 0..full {
            for shape in 0..2 {
                q.set_budget(&QueryBudget::unlimited().with_node_cap(cap));
                let answer = if shape == 0 {
                    q.distance(0, n - 1)
                } else {
                    q.shortest_path(0, n - 1).map(|(d, _)| d)
                };
                assert_eq!(answer, None, "cap {cap} must cut the search");
                assert!(q.budget_exhausted());
                q.set_budget(&QueryBudget::unlimited());
                let at = cap as usize % pairs.len();
                assert_exact(&g, &mut q, &pairs[at..(at + 3).min(pairs.len())]);
            }
        }
        // A kill flag trips at the budget's next poll, wherever that
        // falls inside a query.
        let kill = Arc::new(AtomicBool::new(true));
        q.set_budget(&QueryBudget::unlimited().with_kill_flag(kill));
        let cut = pairs.iter().position(|&(s, t)| q.distance(s, t).is_none());
        assert!(cut.is_some() && q.budget_exhausted());
        q.set_budget(&QueryBudget::unlimited());
        assert_exact(&g, &mut q, &pairs);
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
