//! The one upward search over a hierarchy: Dijkstra from one rank along
//! [`SearchGraph::up`], in rank space — the one-direction half of the
//! §3.2 query, and the search every other CH client runs.
//!
//! Bucket tables ([`ManyToMany`](crate::ManyToMany), `par_table`), and
//! the POI buckets, kNN queries and restricted sweeps of `spq_many` all
//! drive one [`UpwardSearch`]. (`spq_hl` builds its
//! labels from finished labels instead, and runs no search.) Each
//! client passes a visitor that sees every settled `(rank, dist)` in
//! settle order and answers with a [`Visit`]: expand the rank's upward
//! edges up to a bound, or stop. The bound carries every client's
//! pruning — a kNN query's falling k-th distance — and the visitor
//! carries the rest: budget charges and what each client
//! records. The loop itself never asks who is running it.
//!
//! The state is two zero-initialised per-rank arrays: the label, stored
//! as the bitwise complement of the distance so that 0 means "not
//! reached" and an unreached rank reads as `u64::MAX`, above every
//! tentative distance; and the queue's slot ([`SlotHeap`] over `[u32]`).
//! There is no version stamp. Labels sit apart from the slots, not in
//! one record per rank as in the two-direction `ChQuery`, because most
//! readers read labels only — the restricted sweep one per selection
//! member — and a label-only array is half the bytes they pull through
//! the cache.
//!
//! The arrays are allocated on the first search — constructing a
//! workspace allocates nothing — and each search starts by zeroing only
//! what the previous one touched: the ranks it settled and the entries
//! still queued when its visitor stopped it. Until then every label
//! stays readable ([`UpwardSearch::label`]).

use spq_graph::heap::SlotHeap;
use spq_graph::types::{Dist, INFINITY};

use crate::search_graph::SearchGraph;

/// What an [`UpwardSearch`] does with the rank its visitor was just
/// shown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Relax the rank's upward edges, queueing (or lowering) every head
    /// whose new distance is at most the bound.
    Expand(Dist),
    /// End the search here.
    Stop,
}

/// A reusable upward-search workspace over one search graph (module
/// docs). One per worker thread.
#[derive(Debug)]
pub struct UpwardSearch<'a> {
    sg: &'a SearchGraph,
    /// `!dist` per rank, 0 where not reached; empty until the first
    /// search.
    labels: Vec<Dist>,
    /// The queue's slot per rank (see [`spq_graph::heap::Slots`]).
    slots: Vec<u32>,
    /// Ranks settled since the last reset.
    touched: Vec<u32>,
    heap: SlotHeap,
}

impl<'a> UpwardSearch<'a> {
    /// A workspace over `sg`; allocates nothing until the first search.
    pub fn new(sg: &'a SearchGraph) -> Self {
        UpwardSearch {
            sg,
            labels: Vec::new(),
            slots: Vec::new(),
            touched: Vec::new(),
            heap: SlotHeap::default(),
        }
    }

    /// The search graph this workspace searches.
    pub fn graph(&self) -> &'a SearchGraph {
        self.sg
    }

    /// Searches upward from rank `root`, showing `visit` every rank as
    /// it is settled, with its final distance.
    pub fn run(&mut self, root: u32, mut visit: impl FnMut(u32, Dist) -> Visit) {
        self.reset();
        self.reach(root, 0);
        let sg = self.sg;
        while let Some((d, u)) = self.heap.pop_min(&mut self.slots[..]) {
            self.touched.push(u);
            let bound = match visit(u, d) {
                Visit::Expand(bound) => bound,
                Visit::Stop => break,
            };
            for e in sg.up(u) {
                let nd = d + e.weight as Dist;
                // An unreached head reads as `u64::MAX`.
                if nd <= bound && nd < !self.labels[e.target as usize] {
                    self.reach(e.target, nd);
                }
            }
        }
    }

    /// The exhaustive search from rank `root`: fills `out` with every
    /// `(rank, dist)` it settles, in settle order.
    pub fn search_space(&mut self, root: u32, out: &mut Vec<(u32, Dist)>) {
        out.clear();
        self.run(root, |r, d| {
            out.push((r, d));
            Visit::Expand(INFINITY)
        });
    }

    /// The distance the last search gave rank `r`, if any.
    #[inline]
    pub fn label(&self, r: u32) -> Option<Dist> {
        let stored = self.labels[r as usize];
        (stored != 0).then_some(!stored)
    }

    /// Records `r` as reached at `d` and queues or re-keys it.
    #[inline]
    fn reach(&mut self, r: u32, d: Dist) {
        self.labels[r as usize] = !d;
        self.heap.push_or_decrease(&mut self.slots[..], r, d);
    }

    /// Sizes the arrays on first use, and zeroes what the last search
    /// touched: every rank it reached was settled (`touched`) or is
    /// still queued.
    fn reset(&mut self) {
        let n = self.sg.num_nodes();
        if self.labels.len() < n {
            let capacity = 1024.min(n);
            self.labels = vec![0; n];
            self.slots = vec![0; n];
            self.touched = Vec::with_capacity(capacity);
            self.heap = SlotHeap::with_capacity(capacity);
            return;
        }
        for &r in &self.touched {
            self.labels[r as usize] = 0;
        }
        for r in self.heap.nodes() {
            self.labels[r as usize] = 0;
            self.slots[r as usize] = 0;
        }
        self.touched.clear();
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contraction::ContractionHierarchy;
    use spq_graph::toy::grid_graph;

    /// Reference: a textbook upward Dijkstra with its own arrays,
    /// returning every settled `(rank, dist)` sorted by rank.
    fn reference(sg: &SearchGraph, root: u32) -> Vec<(u32, Dist)> {
        let n = sg.num_nodes();
        let mut dist = vec![INFINITY; n];
        let mut done = vec![false; n];
        dist[root as usize] = 0;
        let mut out = Vec::new();
        while let Some(u) = (0..n)
            .filter(|&r| !done[r] && dist[r] < INFINITY)
            .min_by_key(|&r| dist[r])
        {
            done[u] = true;
            out.push((u as u32, dist[u]));
            for e in sg.up(u as u32) {
                let t = e.target as usize;
                dist[t] = dist[t].min(dist[u] + e.weight as Dist);
            }
        }
        out.sort_unstable();
        out
    }

    fn space(search: &mut UpwardSearch, root: u32) -> Vec<(u32, Dist)> {
        let mut out = Vec::new();
        search.search_space(root, &mut out);
        out.sort_unstable();
        out
    }

    /// Every rank the search has a label for.
    fn labelled(search: &UpwardSearch) -> Vec<u32> {
        let n = search.graph().num_nodes() as u32;
        (0..n).filter(|&r| search.label(r).is_some()).collect()
    }

    #[test]
    fn construction_allocates_nothing() {
        let g = grid_graph(4, 4);
        let ch = ContractionHierarchy::build(&g);
        let search = UpwardSearch::new(ch.search_graph());
        assert_eq!(search.labels.capacity(), 0);
        assert_eq!(search.slots.capacity(), 0);
        assert_eq!(search.touched.capacity(), 0);
        assert_eq!(search.heap.len(), 0);
    }

    #[test]
    fn exhaustive_searches_match_the_reference_from_every_root() {
        let g = grid_graph(7, 6);
        let ch = ContractionHierarchy::build(&g);
        let sg = ch.search_graph();
        let mut search = UpwardSearch::new(sg);
        for root in 0..sg.num_nodes() as u32 {
            let got = space(&mut search, root);
            assert_eq!(got, reference(sg, root), "root {root}");
            for &(r, d) in &got {
                assert_eq!(search.label(r), Some(d), "labels stay readable");
            }
        }
    }

    /// `Stop` ends the search at once, with the rank counted as
    /// settled; `Expand(bound)` queues only heads within the bound.
    #[test]
    fn stop_and_bound_mean_what_they_say() {
        let g = grid_graph(6, 6);
        let ch = ContractionHierarchy::build(&g);
        let sg = ch.search_graph();
        let mut search = UpwardSearch::new(sg);
        let root = 3;
        let full = {
            let mut out = Vec::new();
            search.search_space(root, &mut out);
            out
        };
        assert!(full.len() > 3);

        let mut seen = Vec::new();
        search.run(root, |r, d| {
            seen.push((r, d));
            if seen.len() == 3 {
                Visit::Stop
            } else {
                Visit::Expand(INFINITY)
            }
        });
        assert_eq!(seen, full[..3], "the same settle order up to the stop");

        let limit = full[full.len() / 2].1;
        let mut seen = Vec::new();
        search.run(root, |r, d| {
            seen.push((r, d));
            Visit::Expand(limit)
        });
        let mut within: Vec<_> = full.iter().copied().filter(|&(_, d)| d <= limit).collect();
        // Fewer entries queued can change the order among equal keys.
        seen.sort_unstable();
        within.sort_unstable();
        assert_eq!(
            seen, within,
            "a bound prunes relaxations, not settled labels"
        );
        assert!(
            labelled(&search)
                .iter()
                .all(|&r| search.label(r) <= Some(limit)),
            "nothing past the bound is ever queued"
        );
    }

    /// The visitor sees every rank once, as it settles: at its final
    /// distance, in non-decreasing order of distance.
    #[test]
    fn visitors_see_final_distances_in_settle_order() {
        let g = grid_graph(6, 5);
        let ch = ContractionHierarchy::build(&g);
        let sg = ch.search_graph();
        let mut search = UpwardSearch::new(sg);
        let mut seen = Vec::new();
        search.run(0, |u, d| {
            seen.push((u, d));
            Visit::Expand(INFINITY)
        });
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
        seen.sort_unstable();
        assert_eq!(seen, reference(sg, 0));
    }

    /// A search stopped at every possible point — by its visitor, as a
    /// budget would — leaves the next search on the same workspace
    /// exact, with no label of its own left behind.
    #[test]
    fn a_cut_search_leaves_the_next_one_exact() {
        let g = grid_graph(9, 8);
        let ch = ContractionHierarchy::build(&g);
        let sg = ch.search_graph();
        let n = sg.num_nodes() as u32;
        let mut search = UpwardSearch::new(sg);
        for root in [0, n / 2, n - 1, 17] {
            let settles = space(&mut search, root).len();
            for cut in 0..=settles {
                let mut seen = 0;
                search.run(root, |_, _| {
                    seen += 1;
                    if seen > cut {
                        Visit::Stop
                    } else {
                        Visit::Expand(INFINITY)
                    }
                });
                let next = (root * 7 + cut as u32) % n;
                assert_eq!(space(&mut search, next), reference(sg, next));
                assert_eq!(
                    labelled(&search),
                    reference(sg, next)
                        .iter()
                        .map(|&(r, _)| r)
                        .collect::<Vec<_>>(),
                    "root {root} cut {cut}: a stale label survived"
                );
            }
        }
    }
}
