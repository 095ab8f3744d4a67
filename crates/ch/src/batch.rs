//! Batched multi-source distance tables: structure-of-arrays lanes over
//! the flat upward search graph.
//!
//! [`ManyToMany`](crate::ManyToMany) answers a `sources × targets` table
//! with one upward Dijkstra per endpoint. Those searches repeat each
//! other's work: CH upward search spaces overlap heavily near the top of
//! the hierarchy, so the same high-rank vertices are popped and the same
//! up-edges relaxed once per endpoint. [`BatchDistances`] amortises that
//! by sweeping [`LANES`] endpoints at once.
//!
//! The trick that makes a *multi-source* sweep cheap is that the upward
//! graph is a DAG in rank order: every up-edge of the flat
//! [`SearchGraph`] points to a strictly higher rank. Processing touched
//! ranks in ascending order therefore settles every lane's distance in
//! one pass — when rank `r` is popped, any edge into `r` starts at a
//! strictly lower rank, and lower ranks can only be touched before `r`
//! is popped (seeding happens up front and relaxation only ever touches
//! higher ranks). No decrease-key, no per-lane priority queue: one
//! monotone rank heap drives all lanes.
//!
//! Distances live in a structure-of-arrays slab: `lane[r * LANES + k]`
//! is lane `k`'s tentative distance to rank `r`. The inner relax loop
//! runs over the `LANES` contiguous entries of one slab with no
//! branches besides the min — the shape auto-vectorisers like. Lanes
//! that never reached `r` sit at [`INFINITY`] and are carried along
//! harmlessly ([`INFINITY`]` + w` stays above [`INFINITY`], below
//! `u64::MAX`).
//!
//! Targets are prepared with the same sweep (road networks are
//! undirected, so the backward upward search is the forward one),
//! depositing `(target, dist)` pairs in per-rank buckets exactly like
//! [`ManyToMany`](crate::ManyToMany); the source sweep then combines at
//! shared ranks. The whole workspace is allocation-free across calls:
//! version stamps invalidate the slab, touched buckets are drained.
//!
//! Exactness is CH's theorem unchanged — exhaustive upward spaces from
//! both endpoints meet at the apex of a shortest path — and distances
//! are integral, so the table is bit-identical to pointwise
//! [`ChQuery`](crate::ChQuery) answers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spq_graph::backend::QueryBudget;
use spq_graph::types::{Dist, NodeId, INFINITY};

use crate::contraction::ContractionHierarchy;
use crate::search_graph::SearchGraph;

/// Sources (or targets) swept together. Eight 8-byte distance lanes fill
/// one 64-byte cache line per rank slab, the widest shape that keeps a
/// slab on a single line.
pub const LANES: usize = 8;

/// Reusable batched-table workspace bound to one hierarchy.
pub struct BatchDistances<'a> {
    sg: &'a SearchGraph,
    /// SoA distance slab: `lane[r * LANES + k]`, valid while
    /// `stamp[r] == version`.
    lane: Vec<Dist>,
    stamp: Vec<u32>,
    version: u32,
    /// Monotone rank frontier for the current sweep: each touched rank
    /// is pushed exactly once (when first stamped) and popped in
    /// ascending order.
    frontier: BinaryHeap<Reverse<u32>>,
    /// Ranks settled by the most recent sweep, in pop (ascending) order.
    settled: Vec<u32>,
    /// `buckets[r]` holds `(target_index, dist(r ↑ target))`.
    buckets: Vec<Vec<(u32, Dist)>>,
    touched_buckets: Vec<u32>,
    prepared: usize,
    /// Endpoint indices sorted by rank (chunking scratch).
    order: Vec<u32>,
    budget: QueryBudget,
}

impl<'a> BatchDistances<'a> {
    /// Creates a workspace bound to `ch`. Allocation is lazy where it
    /// can be: the slab is sized up front (it is the workspace).
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        let sg = ch.search_graph();
        let n = sg.num_nodes();
        BatchDistances {
            sg,
            lane: vec![INFINITY; n * LANES],
            stamp: vec![0; n],
            version: 0,
            frontier: BinaryHeap::new(),
            settled: Vec::new(),
            buckets: vec![Vec::new(); n],
            touched_buckets: Vec::new(),
            prepared: 0,
            order: Vec::new(),
            budget: QueryBudget::unlimited(),
        }
    }

    /// Installs the budget charged by subsequent sweeps (one charge per
    /// settled rank, mirroring the pointwise kernel's per-pop charge).
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether the most recent table computation tripped its budget.
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// One multi-source upward sweep from `roots` (rank space, one per
    /// lane). Fills the slab for every reached rank and records the
    /// settled ranks in ascending order. Returns `false` if the budget
    /// tripped mid-sweep (the slab is then incomplete and must not be
    /// read).
    fn sweep(&mut self, roots: &[u32]) -> bool {
        debug_assert!(!roots.is_empty() && roots.len() <= LANES);
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.stamp.fill(0);
            self.version = 1;
        }
        let version = self.version;
        self.frontier.clear();
        self.settled.clear();
        for (k, &r) in roots.iter().enumerate() {
            let slab = r as usize * LANES;
            if self.stamp[r as usize] != version {
                self.stamp[r as usize] = version;
                self.lane[slab..slab + LANES].fill(INFINITY);
                self.frontier.push(Reverse(r));
            }
            self.lane[slab + k] = 0;
        }
        while let Some(Reverse(r)) = self.frontier.pop() {
            if !self.budget.charge() {
                return false;
            }
            self.settled.push(r);
            let src = r as usize * LANES;
            for e in self.sg.up(r) {
                let w = e.weight as Dist;
                let t = e.target as usize;
                debug_assert!(t > r as usize, "up-edges ascend in rank");
                if self.stamp[t] != version {
                    self.stamp[t] = version;
                    self.lane[t * LANES..t * LANES + LANES].fill(INFINITY);
                    self.frontier.push(Reverse(e.target));
                }
                // Split at the target slab: the source slab is strictly
                // below it (ranks ascend along up-edges), so both halves
                // borrow disjointly.
                let (lo, hi) = self.lane.split_at_mut(t * LANES);
                let from = &lo[src..src + LANES];
                let to = &mut hi[..LANES];
                for k in 0..LANES {
                    let nd = from[k] + w;
                    if nd < to[k] {
                        to[k] = nd;
                    }
                }
            }
        }
        true
    }

    /// Phase 1: deposits every target's upward search space into the
    /// per-rank buckets, [`LANES`] targets per sweep. Returns `false` on
    /// budget trip.
    fn prepare_targets(&mut self, targets: &[NodeId]) -> bool {
        for r in self.touched_buckets.drain(..) {
            self.buckets[r as usize].clear();
        }
        self.prepared = targets.len();
        self.order.clear();
        self.order.extend(0..targets.len() as u32);
        let sg = self.sg;
        self.order.sort_by_key(|&j| sg.rank_of(targets[j as usize]));
        let order = std::mem::take(&mut self.order);
        let mut ok = true;
        'chunks: for chunk in order.chunks(LANES) {
            let roots: Vec<u32> = chunk
                .iter()
                .map(|&j| self.sg.rank_of(targets[j as usize]))
                .collect();
            if !self.sweep(&roots) {
                ok = false;
                break 'chunks;
            }
            for si in 0..self.settled.len() {
                let r = self.settled[si];
                let slab = r as usize * LANES;
                for (k, &j) in chunk.iter().enumerate() {
                    let d = self.lane[slab + k];
                    if d < INFINITY {
                        let bucket = &mut self.buckets[r as usize];
                        if bucket.is_empty() {
                            self.touched_buckets.push(r);
                        }
                        bucket.push((j, d));
                    }
                }
            }
        }
        self.order = order;
        ok
    }

    /// Computes the row-major `sources × targets` table into `out`
    /// (resized to `sources.len() * targets.len()`, [`INFINITY`] for
    /// unreachable pairs). Returns `false` — with `out` cleared, so no
    /// fabricated entries survive — if the budget tripped.
    pub fn table_into(
        &mut self,
        sources: &[NodeId],
        targets: &[NodeId],
        out: &mut Vec<Dist>,
    ) -> bool {
        let m = targets.len();
        out.clear();
        if sources.is_empty() || m == 0 {
            return true;
        }
        if !self.prepare_targets(targets) {
            return false;
        }
        out.resize(sources.len() * m, INFINITY);
        self.order.clear();
        self.order.extend(0..sources.len() as u32);
        let sg = self.sg;
        self.order.sort_by_key(|&i| sg.rank_of(sources[i as usize]));
        let order = std::mem::take(&mut self.order);
        let mut ok = true;
        'chunks: for chunk in order.chunks(LANES) {
            let roots: Vec<u32> = chunk
                .iter()
                .map(|&i| self.sg.rank_of(sources[i as usize]))
                .collect();
            if !self.sweep(&roots) {
                ok = false;
                break 'chunks;
            }
            for si in 0..self.settled.len() {
                let r = self.settled[si];
                let bucket = &self.buckets[r as usize];
                if bucket.is_empty() {
                    continue;
                }
                let slab = r as usize * LANES;
                for (k, &i) in chunk.iter().enumerate() {
                    let d = self.lane[slab + k];
                    if d >= INFINITY {
                        continue;
                    }
                    let row = &mut out[i as usize * m..i as usize * m + m];
                    for &(j, dt) in bucket {
                        let total = d + dt;
                        if total < row[j as usize] {
                            row[j as usize] = total;
                        }
                    }
                }
            }
        }
        self.order = order;
        if !ok {
            out.clear();
        }
        ok
    }

    /// Convenience wrapper over [`BatchDistances::table_into`]: `None`
    /// when the budget tripped.
    pub fn table(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Option<Vec<Dist>> {
        let mut out = Vec::new();
        if self.table_into(sources, targets, &mut out) {
            Some(out)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::many2many::ManyToMany;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};

    #[test]
    fn table_matches_many_to_many_and_dijkstra() {
        let g = grid_graph(9, 7);
        let ch = ContractionHierarchy::build(&g);
        let sources: Vec<u32> = (0..17).collect();
        let targets: Vec<u32> = (40..63).collect();
        let batched = BatchDistances::new(&ch)
            .table(&sources, &targets)
            .expect("no budget");
        let bucketed = ManyToMany::new(&ch).table(&sources, &targets);
        assert_eq!(batched, bucketed, "bit-identical to the bucket kernel");
        let mut d = Dijkstra::new(g.num_nodes());
        for (i, &s) in sources.iter().enumerate() {
            d.run(&g, s);
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    batched[i * targets.len() + j],
                    d.distance(t).unwrap(),
                    "pair ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn ragged_chunks_and_duplicates_are_exact() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut batch = BatchDistances::new(&ch);
        // 3 sources (one duplicated) and 5 targets: neither divides
        // LANES, and lanes seeded at the same rank must stay independent.
        let sources = [0u32, 4, 0];
        let targets = [1u32, 3, 5, 7, 1];
        let table = batch.table(&sources, &targets).expect("no budget");
        let mut d = Dijkstra::new(g.num_nodes());
        for (i, &s) in sources.iter().enumerate() {
            d.run(&g, s);
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(table[i * targets.len() + j], d.distance(t).unwrap());
            }
        }
    }

    #[test]
    fn dense_batch_matches_point_to_point() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut batch = BatchDistances::new(&ch);
        let mut point = crate::ChQuery::new(&ch);
        let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let mut out = Vec::new();
        assert!(batch.table_into(&all, &all, &mut out));
        for (i, &s) in all.iter().enumerate() {
            for (j, &t) in all.iter().enumerate() {
                let cell = out[i * all.len() + j];
                assert_eq!(point.distance(s, t), Some(cell), "batch ({s},{t})");
            }
        }
        // One-row and one-column tables are slices of the dense one.
        let mut row = Vec::new();
        assert!(batch.table_into(&all[..1], &all, &mut row));
        assert_eq!(row, out[..all.len()]);
        let mut col = Vec::new();
        assert!(batch.table_into(&all, &all[..1], &mut col));
        let first: Vec<Dist> = out.iter().step_by(all.len()).copied().collect();
        assert_eq!(col, first);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = grid_graph(6, 6);
        let ch = ContractionHierarchy::build(&g);
        let mut batch = BatchDistances::new(&ch);
        let a = batch.table(&[0, 7], &[30, 35]).unwrap();
        let _ = batch.table(&[35], &[0]).unwrap(); // different shape in between
        let b = batch.table(&[0, 7], &[30, 35]).unwrap();
        assert_eq!(a, b, "stale buckets or stamps would corrupt the rerun");
    }

    #[test]
    fn budget_trip_returns_no_entries() {
        let g = grid_graph(10, 10);
        let ch = ContractionHierarchy::build(&g);
        let mut batch = BatchDistances::new(&ch);
        batch.set_budget(&QueryBudget::unlimited().with_node_cap(3));
        let mut out = vec![42; 4];
        let sources: Vec<u32> = (0..8).collect();
        let targets: Vec<u32> = (90..98).collect();
        assert!(!batch.table_into(&sources, &targets, &mut out));
        assert!(batch.budget_exhausted());
        assert!(out.is_empty(), "a tripped batch must not fabricate entries");
        // A fresh budget restores full service on the same workspace.
        batch.set_budget(&QueryBudget::unlimited());
        let full = batch.table(&sources, &targets).unwrap();
        assert_eq!(full, ManyToMany::new(&ch).table(&sources, &targets));
    }

    #[test]
    fn empty_shapes_are_fine() {
        let g = grid_graph(3, 3);
        let ch = ContractionHierarchy::build(&g);
        let mut batch = BatchDistances::new(&ch);
        assert_eq!(batch.table(&[], &[1]).unwrap(), Vec::<Dist>::new());
        assert_eq!(batch.table(&[1], &[]).unwrap(), Vec::<Dist>::new());
    }
}
