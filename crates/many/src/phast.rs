//! PHAST-style one-to-many distances over the flat CH search graph.
//!
//! A point-to-point CH query explores two tiny upward cones; answering
//! `dist(s, t)` for *many* targets that way repeats the forward cone and
//! pays a heap-ordered backward cone per target. The PHAST observation
//! (Delling et al.) is that after one upward Dijkstra from `s`, the
//! downward half needs no priority queue at all: scanning vertices in
//! **descending rank order** and relaxing each vertex's upward edges
//! *backwards* (`dist[r] = min(dist[r], dist[head] + w)`) visits every
//! edge once, in the exact layout order the flat search graph stores
//! them — a branch-light linear sweep instead of n heap operations.
//!
//! The sweep is correct because every shortest path in a CH is up-down:
//! its apex is settled exactly by the upward search, and each vertex on
//! the downward leg is reached from a strictly higher rank, which the
//! descending scan has already finalised. On an undirected network the
//! upward adjacency is its own transpose (the up-edge `r → head` *is*
//! the down-edge `head → r`), so one CSR half serves both phases.
//!
//! The same sweep with a distance cutoff answers network range queries
//! ("every vertex within `d` of `s`"): values above the cutoff are
//! clamped back to [`INFINITY`] as the scan passes them, which both
//! prunes their descendants and makes collection a filter.

use spq_ch::{ContractionHierarchy, SearchGraph};
use spq_graph::backend::QueryBudget;
use spq_graph::heap::IndexedHeap;
use spq_graph::types::{Dist, NodeId, INFINITY};

/// A reusable one-to-many / range workspace bound to one hierarchy.
///
/// Like `ChQuery`, construction allocates nothing; the n-sized distance
/// lane appears on the first run and is reused (refilled, never
/// reallocated) afterwards. One workspace per worker thread.
#[derive(Debug)]
pub struct OneToMany<'a> {
    sg: &'a SearchGraph,
    /// Rank-indexed distance lane; `INFINITY` = unreached.
    dist: Vec<Dist>,
    heap: IndexedHeap,
    budget: QueryBudget,
    /// Source of the most recent *completed* full run (`run`); `None`
    /// after an interrupted or range run, so stale lanes can never be
    /// read as answers.
    source: Option<NodeId>,
}

impl<'a> OneToMany<'a> {
    /// Creates a workspace over `ch`'s search graph. Allocation is
    /// deferred to the first run.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        Self::over(ch.search_graph())
    }

    /// Creates a workspace directly over a search graph.
    pub fn over(sg: &'a SearchGraph) -> Self {
        OneToMany {
            sg,
            dist: Vec::new(),
            heap: IndexedHeap::new(0),
            budget: QueryBudget::unlimited(),
            source: None,
        }
    }

    /// Installs the cancellation budget subsequent runs execute under:
    /// one charge per settled vertex in the upward phase, one per rank
    /// in the sweep.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether the most recent run was cut short by its budget (its
    /// results were discarded, not partially exposed).
    pub fn interrupted(&self) -> bool {
        self.budget.exhausted()
    }

    fn ensure(&mut self) {
        let n = self.sg.num_nodes();
        if self.dist.len() < n {
            self.dist = vec![INFINITY; n];
            self.heap = IndexedHeap::new(n);
        }
    }

    /// Phase 1: plain upward Dijkstra from `root` (a rank). The lane
    /// doubles as the tentative-distance array — it was just refilled
    /// with `INFINITY`, so no stamp array is needed. Settles at most the
    /// upward search space; stops early once the frontier passes
    /// `limit`.
    fn upward(&mut self, root: u32, limit: Dist) -> bool {
        self.heap.clear();
        self.dist[root as usize] = 0;
        self.heap.push_or_decrease(root, 0);
        while let Some((d, u)) = self.heap.pop_min() {
            if d > limit {
                break;
            }
            if !self.budget.charge() {
                return false;
            }
            for e in self.sg.up(u) {
                let nd = d + e.weight as Dist;
                let hi = e.target as usize;
                if nd < self.dist[hi] {
                    self.dist[hi] = nd;
                    self.heap.push_or_decrease(e.target, nd);
                }
            }
        }
        true
    }

    /// Phase 2: the rank-descending linear sweep. Each vertex takes the
    /// minimum of its tentative label and `dist[head] + w` over its
    /// upward edges — every head outranks it, so heads are already
    /// final. Values above `limit` are clamped to `INFINITY`.
    fn sweep(&mut self, limit: Dist) -> bool {
        for r in (0..self.sg.num_nodes() as u32).rev() {
            if !self.budget.charge() {
                return false;
            }
            let mut d = self.dist[r as usize];
            for e in self.sg.up(r) {
                let cand = self.dist[e.target as usize] + e.weight as Dist;
                if cand < d {
                    d = cand;
                }
            }
            self.dist[r as usize] = if d > limit { INFINITY } else { d };
        }
        true
    }

    /// Computes `dist(s, v)` for *every* vertex `v`. Returns `false`
    /// (and invalidates the lane) if the budget tripped. On success the
    /// answers are read through [`OneToMany::distance`] /
    /// [`OneToMany::distances_into`].
    pub fn run(&mut self, s: NodeId) -> bool {
        self.ensure();
        self.budget.reset();
        self.source = None;
        self.dist.fill(INFINITY);
        let root = self.sg.rank_of(s);
        if !self.upward(root, INFINITY) || !self.sweep(INFINITY) {
            return false;
        }
        self.source = Some(s);
        true
    }

    /// Source of the most recent completed [`OneToMany::run`].
    pub fn source(&self) -> Option<NodeId> {
        self.source
    }

    /// Distance to `t` from the last run's source (`None` =
    /// unreachable). Panics if no run has completed.
    #[inline]
    pub fn distance(&self, t: NodeId) -> Option<Dist> {
        assert!(self.source.is_some(), "no completed one-to-many run");
        let d = self.dist[self.sg.rank_of(t) as usize];
        if d >= INFINITY {
            None
        } else {
            Some(d)
        }
    }

    /// Fills `out[j]` with the distance to `targets[j]` from the last
    /// run's source.
    pub fn distances_into(&self, targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        assert!(self.source.is_some(), "no completed one-to-many run");
        out.clear();
        out.reserve(targets.len());
        for &t in targets {
            let d = self.dist[self.sg.rank_of(t) as usize];
            out.push(if d >= INFINITY { None } else { Some(d) });
        }
    }

    /// Network range query: fills `out` with every `(vertex, distance)`
    /// within `limit` of `s`, ascending by vertex id. Returns `false`
    /// (with `out` cleared) if the budget tripped.
    ///
    /// Both phases prune at `limit`: the upward search stops once its
    /// frontier passes it (any up-down path through a farther apex is
    /// longer still), and the sweep clamps out-of-range values so their
    /// descendants relax against `INFINITY`.
    pub fn range(&mut self, s: NodeId, limit: Dist, out: &mut Vec<(NodeId, Dist)>) -> bool {
        self.ensure();
        self.budget.reset();
        self.source = None;
        out.clear();
        self.dist.fill(INFINITY);
        let root = self.sg.rank_of(s);
        if !self.upward(root, limit) || !self.sweep(limit) {
            return false;
        }
        for r in 0..self.sg.num_nodes() as u32 {
            let d = self.dist[r as usize];
            if d <= limit {
                out.push((self.sg.orig_of(r), d));
            }
        }
        out.sort_unstable_by_key(|&(v, _)| v);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};
    use spq_graph::RoadNetwork;

    fn check_all_sources(g: &RoadNetwork) {
        let ch = ContractionHierarchy::build(g);
        let mut o2m = OneToMany::new(&ch);
        let mut d = Dijkstra::new(g.num_nodes());
        for s in 0..g.num_nodes() as NodeId {
            assert!(o2m.run(s));
            d.run(g, s);
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(o2m.distance(t), d.distance(t), "({s},{t})");
            }
        }
    }

    #[test]
    fn figure1_all_sources_exact() {
        check_all_sources(&figure1());
    }

    #[test]
    fn grid_all_sources_exact() {
        check_all_sources(&grid_graph(9, 7));
    }

    #[test]
    fn synthetic_network_exact() {
        let g = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(700, 5));
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let mut d = Dijkstra::new(g.num_nodes());
        for s in [0u32, 13, 311, (g.num_nodes() - 1) as u32] {
            assert!(o2m.run(s));
            d.run(&g, s);
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(o2m.distance(t), d.distance(t), "({s},{t})");
            }
        }
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = grid_graph(6, 6);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        assert_eq!(o2m.dist.len(), 0, "construction must not allocate");
        assert!(o2m.run(0));
        let first: Vec<_> = (0..36).map(|t| o2m.distance(t)).collect();
        assert!(o2m.run(35));
        assert!(o2m.run(0)); // stale lane from run(35) must not leak
        let again: Vec<_> = (0..36).map(|t| o2m.distance(t)).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn distances_into_matches_distance() {
        let g = grid_graph(5, 8);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        assert!(o2m.run(3));
        let targets = [0u32, 39, 17, 3, 17];
        let mut out = Vec::new();
        o2m.distances_into(&targets, &mut out);
        for (j, &t) in targets.iter().enumerate() {
            assert_eq!(out[j], o2m.distance(t));
        }
        assert_eq!(out[3], Some(0), "self distance");
    }

    #[test]
    fn range_matches_truncated_dijkstra() {
        let g = grid_graph(8, 8);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let mut d = Dijkstra::new(g.num_nodes());
        for (s, limit) in [(0u32, 0u64), (0, 3), (27, 5), (63, 1_000_000)] {
            let mut got = Vec::new();
            assert!(o2m.range(s, limit, &mut got));
            d.run(&g, s);
            let expect: Vec<(NodeId, Dist)> = (0..g.num_nodes() as NodeId)
                .filter_map(|v| d.distance(v).filter(|&x| x <= limit).map(|x| (v, x)))
                .collect();
            assert_eq!(got, expect, "source {s} limit {limit}");
        }
    }

    #[test]
    fn budget_interrupts_and_recovers() {
        let g = grid_graph(10, 10);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        o2m.set_budget(&QueryBudget::unlimited().with_node_cap(5));
        assert!(!o2m.run(0), "5 charges cannot cover a 100-rank sweep");
        assert!(o2m.interrupted());
        assert_eq!(o2m.source(), None);
        let mut out = Vec::new();
        assert!(!o2m.range(0, 50, &mut out));
        assert!(out.is_empty());
        // A fresh (unlimited) budget restores full service.
        o2m.set_budget(&QueryBudget::unlimited());
        assert!(o2m.run(0));
        assert!(!o2m.interrupted());
        assert_eq!(o2m.distance(0), Some(0));
    }
}
