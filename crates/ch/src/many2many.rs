//! Bucket-based many-to-many distance tables over a hierarchy.
//!
//! TNR's preprocessing needs two kinds of bulk distance computations
//! (paper §3.3): vertex → access-node distances within a cell, and the
//! pairwise distances between all access nodes. Both reduce to
//! many-to-many queries, which CH answers with the classic bucket
//! technique: run an upward search from every target, deposit
//! `(target, distance)` pairs at every settled vertex, then run an upward
//! search from each source and combine at the shared vertices. Every
//! search is an exhaustive [`UpwardSearch`] — the upward search space is
//! tiny (polylogarithmic in practice), so no pruning is needed — and the
//! deposit and the combine live in [`Buckets`], which the sequential
//! [`ManyToMany`] and the parallel [`par_table`] share.

use spq_graph::par;
use spq_graph::types::{Dist, NodeId, INFINITY};

use crate::contraction::ContractionHierarchy;
use crate::search_graph::SearchGraph;
use crate::upward::{UpwardSearch, Visit};

/// `(target index, dist(rank ↑ target))` entries per rank, in target
/// order.
struct Buckets {
    lists: Vec<Vec<(u32, Dist)>>,
    /// Ranks whose list is non-empty.
    touched: Vec<u32>,
}

impl Buckets {
    fn new(n: usize) -> Self {
        Buckets {
            lists: vec![Vec::new(); n],
            touched: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for r in self.touched.drain(..) {
            self.lists[r as usize].clear();
        }
    }

    /// Deposits target `j`, settled at rank `r` with distance `d`.
    #[inline]
    fn deposit(&mut self, j: usize, r: u32, d: Dist) {
        let list = &mut self.lists[r as usize];
        if list.is_empty() {
            self.touched.push(r);
        }
        list.push((j as u32, d));
    }

    /// Combines a source settled at rank `r` with distance `d` into its
    /// row.
    #[inline]
    fn combine(&self, r: u32, d: Dist, row: &mut [Dist]) {
        for &(j, dt) in &self.lists[r as usize] {
            let cell = &mut row[j as usize];
            *cell = (*cell).min(d + dt);
        }
    }
}

/// Many-to-many distance computation workspace. Sources and targets are
/// original vertex ids; internally everything runs in rank space over
/// the flat search graph.
pub struct ManyToMany<'a> {
    sg: &'a SearchGraph,
    search: UpwardSearch<'a>,
    buckets: Buckets,
    /// Number of targets in the most recent [`ManyToMany::prepare_targets`].
    prepared: usize,
}

impl<'a> ManyToMany<'a> {
    /// Creates a workspace bound to `ch`.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        let sg = ch.search_graph();
        ManyToMany {
            sg,
            search: UpwardSearch::new(sg),
            buckets: Buckets::new(sg.num_nodes()),
            prepared: 0,
        }
    }

    /// Phase 1 of the bucket algorithm: runs an upward search from every
    /// target and deposits `(target_index, distance)` pairs at each
    /// settled vertex. Afterwards [`ManyToMany::distances_from`] answers
    /// one source at a time against this target set.
    pub fn prepare_targets(&mut self, targets: &[NodeId]) {
        self.buckets.clear();
        self.prepared = targets.len();
        for (j, &t) in targets.iter().enumerate() {
            let buckets = &mut self.buckets;
            self.search.run(self.sg.rank_of(t), |r, d| {
                buckets.deposit(j, r, d);
                Visit::Expand(INFINITY)
            });
        }
    }

    /// Phase 2 for a single source: fills `row` (length = number of
    /// prepared targets) with the distances from `source`.
    pub fn distances_from(&mut self, source: NodeId, row: &mut [Dist]) {
        assert_eq!(row.len(), self.prepared, "row must match prepare_targets");
        row.fill(INFINITY);
        let buckets = &self.buckets;
        self.search.run(self.sg.rank_of(source), |r, d| {
            buckets.combine(r, d, row);
            Visit::Expand(INFINITY)
        });
    }

    /// Computes the full `sources × targets` distance table, row-major:
    /// entry `i * targets.len() + j` is `dist(sources[i], targets[j])`
    /// ([`INFINITY`] only if unreachable, impossible on connected
    /// networks).
    pub fn table(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Vec<Dist> {
        self.prepare_targets(targets);
        let mut out = vec![INFINITY; sources.len() * targets.len()];
        for (&s, row) in sources
            .iter()
            .zip(out.chunks_exact_mut(targets.len().max(1)))
        {
            self.distances_from(s, row);
        }
        out
    }
}

/// The full `sources × targets` distance table, row-major, computed with
/// the preprocessing worker pool ([`spq_graph::par`]).
///
/// Both phases of the bucket algorithm fan out — the backward upward
/// searches across targets and the forward searches across sources —
/// with one [`UpwardSearch`] per worker. The search spaces are deposited
/// on one thread in target order and the row combine takes a minimum
/// (order-insensitive), so the table is identical to
/// [`ManyToMany::table`]'s for any thread count.
pub fn par_table(ch: &ContractionHierarchy, sources: &[NodeId], targets: &[NodeId]) -> Vec<Dist> {
    let sg = ch.search_graph();
    let spaces: Vec<Vec<(u32, Dist)>> = par::par_map(
        targets,
        || (UpwardSearch::new(sg), Vec::new()),
        |(search, space), &t| {
            search.search_space(sg.rank_of(t), space);
            // Exact-size copies: all of them are held at once.
            space.clone()
        },
    );
    let mut buckets = Buckets::new(sg.num_nodes());
    for (j, space) in spaces.iter().enumerate() {
        for &(r, d) in space {
            buckets.deposit(j, r, d);
        }
    }
    drop(spaces);

    let rows: Vec<Vec<Dist>> = par::par_map(
        sources,
        || UpwardSearch::new(sg),
        |search, &s| {
            let mut row = vec![INFINITY; targets.len()];
            search.run(sg.rank_of(s), |r, d| {
                buckets.combine(r, d, &mut row);
                Visit::Expand(INFINITY)
            });
            row
        },
    );
    rows.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contraction::ContractionHierarchy;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};

    #[test]
    fn table_matches_dijkstra_on_figure1() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut m2m = ManyToMany::new(&ch);
        let sources = [0u32, 2, 6];
        let targets = [1u32, 3, 5, 7];
        let table = m2m.table(&sources, &targets);
        let mut d = Dijkstra::new(g.num_nodes());
        for (i, &s) in sources.iter().enumerate() {
            d.run(&g, s);
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    table[i * targets.len() + j],
                    d.distance(t).unwrap(),
                    "pair ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn table_matches_dijkstra_on_grid() {
        let g = grid_graph(8, 8);
        let ch = ContractionHierarchy::build(&g);
        let mut m2m = ManyToMany::new(&ch);
        let sources: Vec<u32> = (0..16).collect();
        let targets: Vec<u32> = (48..64).collect();
        let table = m2m.table(&sources, &targets);
        let mut d = Dijkstra::new(g.num_nodes());
        for (i, &s) in sources.iter().enumerate() {
            d.run(&g, s);
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(table[i * targets.len() + j], d.distance(t).unwrap());
            }
        }
    }

    #[test]
    fn workspace_reuse_clears_buckets() {
        let g = grid_graph(5, 5);
        let ch = ContractionHierarchy::build(&g);
        let mut m2m = ManyToMany::new(&ch);
        let t1 = m2m.table(&[0], &[24]);
        let t2 = m2m.table(&[0], &[24]); // stale buckets would corrupt this
        assert_eq!(t1, t2);
        let t3 = m2m.table(&[24], &[0]);
        assert_eq!(t1, t3); // undirected symmetry
    }

    #[test]
    fn par_table_matches_sequential_table() {
        let g = grid_graph(7, 9);
        let ch = ContractionHierarchy::build(&g);
        let sources: Vec<u32> = (0..20).collect();
        let targets: Vec<u32> = (30..63).collect();
        let sequential = ManyToMany::new(&ch).table(&sources, &targets);
        for threads in [1, 4] {
            let parallel =
                spq_graph::par::with_threads(threads, || par_table(&ch, &sources, &targets));
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn self_distances_are_zero() {
        let g = grid_graph(4, 4);
        let ch = ContractionHierarchy::build(&g);
        let mut m2m = ManyToMany::new(&ch);
        let nodes: Vec<u32> = (0..16).collect();
        let table = m2m.table(&nodes, &nodes);
        for i in 0..16 {
            assert_eq!(table[i * 16 + i], 0);
        }
    }
}
