//! Label construction and the merge-scan distance kernel.
//!
//! A label entry is 8 bytes, `{hub rank: u32, distance: u32}`; all
//! entries sit in one array, label after label in vertex-id order, with
//! `first` offsets indexed by vertex id. Hubs are contraction ranks,
//! strictly ascending within a label, and the head hub of `L(v)` is
//! `rank(v)` at distance 0 — so the store needs no separate id → rank
//! table. A distance query merge-scans two slices — O(|L(s)| + |L(t)|),
//! allocation-free — and sums in exact `u64`.
//!
//! # Building, wave by wave
//!
//! The label of `v` is its stall-on-demand upward search space over the
//! flat rank-renumbered [`SearchGraph`](spq_ch::SearchGraph) — `spq_ch`'s
//! one [`UpwardSearch`], whose visitor skips a stalled vertex and
//! records the rest, and whose labels the prune step reads — less every
//! `(h, d)` whose `d` is not the exact distance to `h`. (Stalled
//! vertices are never recorded: stalling proves a shorter down-up path,
//! so their entry could not win a merge. Dropping inexact entries is
//! safe because the apex of a shortest path always carries its exact
//! distance and is therefore never dropped.) Whether `d` is exact is
//! itself a label query, `min over common hubs of S(v) + L(h)`, and
//! every hub `v` reaches lies strictly above it in the upward graph.
//! So vertices are grouped by **upward depth** — 0 for a vertex with no
//! upward edge, else one more than its deepest upward neighbour — and
//! labelled one depth (one *wave*) at a time: a worker searches, prunes
//! against the finished labels of the shallower hubs it reached, and
//! hands back only the survivors. Raw search spaces never leave the
//! worker, nothing per-vertex outlives its wave, and — every label
//! being a pure function of the hierarchy, fanned out through
//! [`spq_graph::par`] — the store is byte-identical at any thread
//! count.
//!
//! Distances are range-checked when an entry is recorded: a hierarchy
//! with a label distance past `u32::MAX` stops the build, it is never
//! truncated.

use spq_ch::{ContractionHierarchy, SearchGraph, UpwardSearch, Visit};
use spq_graph::backend::QueryBudget;
use spq_graph::par;
use spq_graph::size::IndexSize;
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;

/// One label entry: a hub (by contraction rank) and the distance to it.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelEntry {
    /// Contraction rank of the hub.
    pub hub: u32,
    /// Exact distance to the hub.
    pub dist: u32,
}

impl LabelEntry {
    /// Records `(hub, dist)`, refusing a distance the store cannot hold.
    fn new(hub: u32, dist: Dist) -> LabelEntry {
        let Ok(dist) = u32::try_from(dist) else {
            panic!("label distance {dist} (to hub rank {hub}) exceeds the 32-bit label store");
        };
        LabelEntry { hub, dist }
    }

    /// On-disk form: hub then distance, each little-endian.
    pub(crate) fn to_le(self) -> [u8; 8] {
        ((self.dist as u64) << 32 | self.hub as u64).to_le_bytes()
    }

    pub(crate) fn from_le(b: [u8; 8]) -> LabelEntry {
        let word = u64::from_le_bytes(b);
        LabelEntry {
            hub: word as u32,
            dist: (word >> 32) as u32,
        }
    }
}

/// The flat 2-hop label store, addressed by original vertex id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubLabels {
    /// Label slice starts, indexed by vertex id
    /// (`first[v]..first[v + 1]`).
    first: Box<[u32]>,
    /// Every label's entries, hubs strictly ascending within a label.
    entries: Box<[LabelEntry]>,
}

/// A build worker's scratch: one upward search (the network is
/// undirected, so forward and backward labels coincide and one search
/// per vertex suffices) and the raw search space it leaves.
struct Labeler<'a> {
    search: UpwardSearch<'a>,
    /// The unstalled settled vertices of the current search.
    raw: Vec<(u32, Dist)>,
}

impl<'a> Labeler<'a> {
    fn new(sg: &'a SearchGraph) -> Labeler<'a> {
        Labeler {
            search: UpwardSearch::new(sg),
            raw: Vec::new(),
        }
    }

    /// Runs the stall-on-demand upward search from rank `root`, leaving
    /// its raw search space in `self.raw` (in settle order).
    fn search(&mut self, root: u32) {
        let sg = self.search.graph();
        let raw = &mut self.raw;
        raw.clear();
        self.search.run(root, |labels, u, d| {
            // Stall-on-demand: a shorter route back down to u through a
            // higher-ranked vertex proves u's entry could never win a
            // merge, so it is neither recorded nor expanded.
            if sg
                .up(u)
                .iter()
                .any(|e| matches!(labels.get(e.target), Some(x) if x + (e.weight as Dist) < d))
            {
                return Visit::Skip;
            }
            raw.push((u, d));
            Visit::Expand(INFINITY)
        });
    }

    /// The final label of rank `root`: its raw search space less every
    /// entry some finished hub label proves inexact, sorted by hub.
    /// `done` must hold the final labels of every rank above `root` in
    /// the upward graph.
    fn label(&mut self, root: u32, done: &WaveStore) -> Vec<LabelEntry> {
        self.search(root);
        let search = &self.search;
        let mut label: Vec<LabelEntry> = self
            .raw
            .iter()
            .filter(|&&(h, d)| {
                // S(root) ∩ L(h) holds the apex of a shortest root–h
                // path with both exact distances, and every sum is the
                // length of a real path: the minimum is dist(root, h).
                h == root
                    || done.label(h).iter().all(
                        |e| !matches!(search.label(e.hub), Some(x) if x + (e.dist as Dist) < d),
                    )
            })
            .map(|&(h, d)| LabelEntry::new(h, d))
            .collect();
        // Settle order is by distance; labels merge by rank.
        label.sort_unstable_by_key(|e| e.hub);
        label
    }
}

/// Entries the wave store starts with room for (32 KiB).
const FIRST_ENTRIES: usize = 1 << 12;

/// The labels finished so far, in the order the waves produced them and
/// addressed by rank — what the prune step reads.
struct WaveStore {
    span: Vec<(u32, u32)>,
    entries: Vec<LabelEntry>,
}

impl WaveStore {
    #[inline]
    fn label(&self, r: u32) -> &[LabelEntry] {
        let (lo, hi) = self.span[r as usize];
        &self.entries[lo as usize..hi as usize]
    }

    fn push(&mut self, r: u32, label: &[LabelEntry]) {
        let lo = self.entries.len();
        self.entries.extend_from_slice(label);
        assert!(
            self.entries.len() <= u32::MAX as usize,
            "label buffer exceeds u32 offsets"
        );
        self.span[r as usize] = (lo as u32, self.entries.len() as u32);
    }
}

/// Ranks grouped by upward depth: `order[bounds[k]..bounds[k + 1]]` is
/// wave `k`, ascending. Every upward edge leads to an earlier wave.
fn waves(sg: &SearchGraph) -> (Vec<u32>, Vec<usize>) {
    let n = sg.num_nodes();
    let mut depth = vec![0u32; n];
    // Upward edges lead to higher ranks, so one descending pass suffices.
    for r in (0..n).rev() {
        depth[r] = sg
            .up(r as u32)
            .iter()
            .map(|e| depth[e.target as usize] + 1)
            .max()
            .unwrap_or(0);
    }
    let num_waves = depth.iter().max().map_or(0, |&d| d as usize + 1);
    let mut bounds = vec![0usize; num_waves + 1];
    for &d in &depth {
        bounds[d as usize + 1] += 1;
    }
    for k in 0..num_waves {
        bounds[k + 1] += bounds[k];
    }
    let mut cursor = bounds.clone();
    let mut order = vec![0u32; n];
    for (r, &d) in depth.iter().enumerate() {
        order[cursor[d as usize]] = r as u32;
        cursor[d as usize] += 1;
    }
    (order, bounds)
}

/// Number of waves [`HubLabels::build`] labels `ch` in (its upward
/// graph's depth plus one).
pub fn num_waves(ch: &ContractionHierarchy) -> usize {
    waves(ch.search_graph()).1.len() - 1
}

impl HubLabels {
    /// Builds the pruned labels from a hierarchy's search graph. Pure
    /// function of the hierarchy; parallel and sequential builds are
    /// byte-identical.
    ///
    /// # Panics
    ///
    /// If a label distance exceeds `u32::MAX` or the store outgrows its
    /// `u32` offsets.
    pub fn build(ch: &ContractionHierarchy) -> HubLabels {
        let sg = ch.search_graph();
        let n = sg.num_nodes();
        let (order, bounds) = waves(sg);
        let mut done = WaveStore {
            span: vec![(0, 0); n],
            // Not `Vec::new()`: a buffer grown from a few bytes can start
            // in a chunk that another thread's arena handed this thread
            // through the allocator's thread cache, and then grows — to
            // tens of megabytes — inside that arena, which keeps it.
            // Anything past the cache's size classes is this thread's own.
            entries: Vec::with_capacity(FIRST_ENTRIES),
        };
        for w in bounds.windows(2) {
            let wave = &order[w[0]..w[1]];
            let labels = par::par_map(wave, || Labeler::new(sg), |ws, &r| ws.label(r, &done));
            for (&r, label) in wave.iter().zip(&labels) {
                done.push(r, label);
            }
        }

        // Re-lay the finished labels in vertex-id order.
        let mut first = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(done.entries.len());
        first.push(0u32);
        for v in 0..n {
            entries.extend_from_slice(done.label(sg.rank_of(v as NodeId)));
            first.push(entries.len() as u32);
        }
        HubLabels {
            first: first.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
        }
    }

    /// Reassembles a label store from its persisted sections, verifying
    /// the structural invariants a well-formed store upholds: monotone
    /// offsets covering the entry array, labels strictly ascending and
    /// in range, each headed by `(·, 0)`, and the head hubs — the
    /// vertices' ranks — forming a permutation. Semantic fidelity beyond
    /// that is the engine self-check's and the auditor's job.
    pub fn from_raw(first: Vec<u32>, entries: Vec<LabelEntry>) -> Result<HubLabels, String> {
        let Some(n) = first.len().checked_sub(1) else {
            return Err("offset array is empty".into());
        };
        if first[0] != 0 || first[n] as usize != entries.len() {
            return Err("label sections disagree on the entry count".into());
        }
        let mut seen = vec![false; n];
        for v in 0..n {
            let (lo, hi) = (first[v] as usize, first[v + 1] as usize);
            if lo > hi || hi > entries.len() {
                return Err("label offsets are not monotone".into());
            }
            let label = &entries[lo..hi];
            match label.first() {
                Some(head) if head.dist == 0 => match seen.get_mut(head.hub as usize) {
                    Some(slot) if !*slot => *slot = true,
                    _ => return Err("head hubs are not a permutation of the ranks".into()),
                },
                _ => return Err(format!("label of vertex {v} does not start with (rank, 0)")),
            }
            if label.windows(2).any(|w| w[0].hub >= w[1].hub) {
                return Err(format!("label of vertex {v} is not strictly ascending"));
            }
            if label[label.len() - 1].hub as usize >= n {
                return Err(format!(
                    "label of vertex {v} references an out-of-range hub"
                ));
            }
        }
        Ok(HubLabels {
            first: first.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
        })
    }

    /// Borrowed persistence sections: `(first, entries)`.
    pub(crate) fn sections(&self) -> (&[u32], &[LabelEntry]) {
        (&self.first, &self.entries)
    }

    /// Number of labeled vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// Total label entries across all vertices.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Mean label size (entries per vertex).
    pub fn avg_label_len(&self) -> f64 {
        self.num_entries() as f64 / self.num_nodes().max(1) as f64
    }

    /// Largest single label.
    pub fn max_label_len(&self) -> usize {
        self.first
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Largest distance any entry stores (the 32-bit store's headroom
    /// is `u32::MAX` minus this).
    pub fn max_stored_dist(&self) -> u32 {
        self.entries.iter().map(|e| e.dist).max().unwrap_or(0)
    }

    /// The label of vertex `v`.
    #[inline]
    fn label(&self, v: NodeId) -> &[LabelEntry] {
        let (lo, hi) = (self.first[v as usize], self.first[v as usize + 1]);
        &self.entries[lo as usize..hi as usize]
    }

    /// Distance query: one merge-scan of the two sorted labels.
    /// `None` when the labels share no hub (`t` unreachable from `s`).
    #[inline]
    pub fn distance(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        let (a, b) = (self.label(s), self.label(t));
        let (mut i, mut j) = (0, 0);
        let mut best = Dist::MAX;
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            if x.hub == y.hub {
                let d = x.dist as Dist + y.dist as Dist;
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            } else if x.hub < y.hub {
                i += 1;
            } else {
                j += 1;
            }
        }
        (best != Dist::MAX).then_some(best)
    }
}

impl IndexSize for HubLabels {
    fn index_size_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.first) + std::mem::size_of_val(&*self.entries)
    }
}

/// Batch-table workspace: a dense rank-indexed scatter array.
///
/// A DISTANCES table re-reads each source label once per target when
/// every cell merge-scans. Scattering `L(s)` into a dense array once per
/// row turns each cell into a single pass over `L(t)` with an O(1)
/// lookup per hub — O(|L(s)| + T·|L(t)|) per row instead of
/// O(T·(|L(s)| + |L(t)|)). Both shapes take the minimum of
/// `d_s(h) + d_t(h)` over the same common-hub set in exact `u64`
/// arithmetic, so the batch path is bit-identical to the merge-scan.
///
/// The array holds `d_s(h) + 1` at the hubs of the current row's source
/// and 0 everywhere else: it starts zeroed and each row clears the hubs
/// it scattered, so a row costs O(|L(s)|) to reset and the workspace is
/// allocation-free after construction.
pub struct BatchScan {
    val: Vec<Dist>,
}

impl BatchScan {
    /// Allocates a scatter array covering `labels`' vertex set.
    pub fn new(labels: &HubLabels) -> BatchScan {
        BatchScan {
            val: vec![0; labels.num_nodes()],
        }
    }

    /// Fills `out` with the `sources × targets` table in row-major
    /// order, `None` for unreachable pairs. The budget is charged once
    /// per pair in the same order as the pointwise loop; pairs after a
    /// trip are reported `None` (check the budget afterwards to tell
    /// "interrupted" from "unreachable").
    pub fn table_into(
        &mut self,
        labels: &HubLabels,
        sources: &[NodeId],
        targets: &[NodeId],
        budget: &mut QueryBudget,
        out: &mut Vec<Option<Dist>>,
    ) {
        out.clear();
        out.reserve(sources.len() * targets.len());
        for &s in sources {
            for e in labels.label(s) {
                self.val[e.hub as usize] = e.dist as Dist + 1;
            }
            for &t in targets {
                if !budget.charge() {
                    out.push(None);
                    continue;
                }
                let mut best = Dist::MAX;
                for e in labels.label(t) {
                    let v = self.val[e.hub as usize];
                    if v != 0 {
                        best = best.min(v - 1 + e.dist as Dist);
                    }
                }
                out.push((best != Dist::MAX).then_some(best));
            }
            for e in labels.label(s) {
                self.val[e.hub as usize] = 0;
            }
        }
    }
}

/// The servable hub-labeling index: the labels plus the hierarchy they
/// were derived from. Distance queries never touch the hierarchy;
/// shortest-path queries (which must unpack shortcuts) run on the
/// embedded CH, exactly as fast as the `ch` backend's.
#[derive(Debug, Clone)]
pub struct Hl {
    ch: ContractionHierarchy,
    labels: HubLabels,
}

impl Hl {
    /// Contracts `net` and labels the resulting hierarchy.
    pub fn build(net: &RoadNetwork) -> Hl {
        Hl::from_ch(ContractionHierarchy::build(net))
    }

    /// Labels an existing hierarchy (reuses a CH another backend or a
    /// persisted file already paid for).
    pub fn from_ch(ch: ContractionHierarchy) -> Hl {
        let labels = HubLabels::build(&ch);
        Hl { ch, labels }
    }

    /// Reassembles from persisted parts (the labels must describe
    /// `ch`'s vertex set).
    pub(crate) fn from_parts(ch: ContractionHierarchy, labels: HubLabels) -> Result<Hl, String> {
        if ch.num_nodes() != labels.num_nodes() {
            return Err(format!(
                "labels cover {} vertices but the hierarchy has {}",
                labels.num_nodes(),
                ch.num_nodes()
            ));
        }
        Ok(Hl { ch, labels })
    }

    /// The label store.
    pub fn labels(&self) -> &HubLabels {
        &self.labels
    }

    /// The hierarchy the labels were derived from.
    pub fn hierarchy(&self) -> &ContractionHierarchy {
        &self.ch
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.labels.num_nodes()
    }
}

impl IndexSize for Hl {
    fn index_size_bytes(&self) -> usize {
        self.labels.index_size_bytes() + self.ch.index_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_dijkstra::Dijkstra;
    use spq_graph::builder::GraphBuilder;
    use spq_graph::geo::Point;
    use spq_graph::toy::{figure1, grid_graph};

    fn check_all_pairs(g: &RoadNetwork) {
        let hl = Hl::build(g);
        let mut reference = Dijkstra::new(g.num_nodes());
        for s in 0..g.num_nodes() as NodeId {
            reference.run(g, s);
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(
                    hl.labels().distance(s, t),
                    reference.distance(t),
                    "({s},{t})"
                );
            }
        }
    }

    /// The two-pass construction the waves replaced, kept as the
    /// reference: every raw search space is materialised, then `(h, d)`
    /// survives when the raw-against-raw label query confirms `d`.
    /// Returns the labels by rank.
    fn reference_labels(sg: &SearchGraph) -> Vec<Vec<LabelEntry>> {
        let n = sg.num_nodes();
        let mut ws = Labeler::new(sg);
        let raw: Vec<Vec<(u32, Dist)>> = (0..n as u32)
            .map(|r| {
                ws.search(r);
                ws.raw.sort_unstable_by_key(|&(h, _)| h);
                ws.raw.clone()
            })
            .collect();
        let exact = |a: &[(u32, Dist)], b: &[(u32, Dist)]| {
            a.iter()
                .filter_map(|&(h, d)| b.iter().find(|e| e.0 == h).map(|e| d + e.1))
                .min()
        };
        raw.iter()
            .map(|lv| {
                lv.iter()
                    .filter(|&&(h, d)| exact(lv, &raw[h as usize]) >= Some(d))
                    .map(|&(h, d)| LabelEntry::new(h, d))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn figure1_worked_example() {
        let g = figure1();
        let hl = Hl::build(&g);
        assert_eq!(hl.labels().distance(2, 6), Some(6)); // §3.2: dist(v3, v7)
        assert_eq!(hl.labels().distance(0, 0), Some(0));
        check_all_pairs(&g);
    }

    #[test]
    fn grid_all_pairs_exact() {
        check_all_pairs(&grid_graph(7, 5));
    }

    #[test]
    fn synthetic_network_all_pairs_exact() {
        let g = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(400, 3));
        let hl = Hl::build(&g);
        let mut reference = Dijkstra::new(g.num_nodes());
        let n = g.num_nodes() as NodeId;
        for s in (0..n).step_by(7) {
            reference.run(&g, s);
            for t in 0..n {
                assert_eq!(
                    hl.labels().distance(s, t),
                    reference.distance(t),
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn labels_start_with_own_rank_and_ascend() {
        let g = grid_graph(6, 6);
        let hl = Hl::build(&g);
        let labels = hl.labels();
        let sg = hl.hierarchy().search_graph();
        for v in 0..labels.num_nodes() as NodeId {
            let label = labels.label(v);
            let r = sg.rank_of(v);
            assert_eq!(label[0], LabelEntry { hub: r, dist: 0 }, "vertex {v}");
            assert!(
                label.windows(2).all(|w| w[0].hub < w[1].hub),
                "vertex {v} not sorted"
            );
        }
        assert!(labels.avg_label_len() >= 1.0);
        assert!(labels.max_label_len() >= 1);
        assert!(labels.max_stored_dist() > 0);
        assert_eq!(
            labels.index_size_bytes(),
            4 * (labels.num_nodes() + 1) + 8 * labels.num_entries()
        );
    }

    /// Every upward edge leads to an earlier wave, waves partition the
    /// ranks, and each is ascending (so the build order is a function
    /// of the hierarchy alone).
    #[test]
    fn waves_respect_the_upward_graph() {
        let g = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(400, 5));
        let ch = ContractionHierarchy::build(&g);
        let sg = ch.search_graph();
        let (order, bounds) = waves(sg);
        assert_eq!(bounds.len() - 1, num_waves(&ch));
        assert_eq!((bounds[0], bounds[bounds.len() - 1]), (0, sg.num_nodes()));
        let mut wave_of = vec![usize::MAX; sg.num_nodes()];
        for (k, w) in bounds.windows(2).enumerate() {
            assert!(w[0] < w[1], "wave {k} is empty");
            assert!(order[w[0]..w[1]].windows(2).all(|p| p[0] < p[1]));
            for &r in &order[w[0]..w[1]] {
                wave_of[r as usize] = k;
            }
        }
        for r in 0..sg.num_nodes() as u32 {
            assert_ne!(wave_of[r as usize], usize::MAX, "rank {r} in no wave");
            for e in sg.up(r) {
                assert!(wave_of[e.target as usize] < wave_of[r as usize]);
            }
        }
    }

    /// The wave build prunes against *final* hub labels, the reference
    /// against raw search spaces: both keep exactly the entries whose
    /// distance is exact, so the stores agree entry for entry — at any
    /// thread count.
    #[test]
    fn wave_build_equals_the_two_pass_reference() {
        let synth = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(400, 9));
        for g in [figure1(), grid_graph(7, 5), grid_graph(3, 11), synth] {
            let ch = ContractionHierarchy::build(&g);
            let sg = ch.search_graph();
            let expect = reference_labels(sg);
            for threads in [1, 2, 4] {
                let labels = par::with_threads(threads, || HubLabels::build(&ch));
                for v in 0..g.num_nodes() as NodeId {
                    assert_eq!(
                        labels.label(v),
                        &expect[sg.rank_of(v) as usize][..],
                        "vertex {v}, {threads} threads"
                    );
                }
            }
        }
    }

    /// A path `0 — 1 — … ` contracted end first has no shortcuts, and
    /// vertex 0's label reaches the far end.
    fn heavy_path(weights: &[u32]) -> ContractionHierarchy {
        let mut b = GraphBuilder::new();
        for i in 0..=weights.len() {
            b.add_node(Point::new(i as i32, 0));
        }
        for (i, &w) in weights.iter().enumerate() {
            b.add_edge(i as NodeId, i as NodeId + 1, w);
        }
        let g = b.build().expect("a path is connected");
        let order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        ContractionHierarchy::build_with_order(&g, &order)
    }

    /// Two stored distances whose sum passes `u32::MAX`: the non-optimal
    /// hub of this pair sums to 3·(2³¹ − 1), which a 32-bit add would
    /// wrap to 2³¹ − 3 and prefer over the true 2³¹ − 1.
    #[test]
    fn sums_of_stored_distances_do_not_wrap() {
        const W: u32 = (1 << 31) - 1;
        let labels = HubLabels::build(&heavy_path(&[W, W]));
        assert_eq!(labels.max_stored_dist() as Dist, 2 * W as Dist);
        assert_eq!(labels.distance(0, 1), Some(W as Dist));
        assert_eq!(labels.distance(0, 2), Some(2 * W as Dist));
        let mut ws = BatchScan::new(&labels);
        let mut out = Vec::new();
        let all = [0, 1, 2];
        ws.table_into(&labels, &all, &all, &mut QueryBudget::unlimited(), &mut out);
        for (k, cell) in out.iter().enumerate() {
            let (s, t) = (k / 3, k % 3);
            assert_eq!(*cell, Some(s.abs_diff(t) as Dist * W as Dist), "({s},{t})");
        }
    }

    #[test]
    #[should_panic(expected = "label distance 6442450941 (to hub rank 3) exceeds the 32-bit")]
    fn distance_past_u32_stops_the_build() {
        const W: u32 = (1 << 31) - 1;
        HubLabels::build(&heavy_path(&[W, W, W]));
    }

    #[test]
    fn from_raw_rejects_structural_garbage() {
        let g = figure1();
        let hl = Hl::build(&g);
        let (first, entries) = hl.labels().sections();
        let ok = HubLabels::from_raw(first.to_vec(), entries.to_vec())
            .expect("clean sections reassemble");
        assert_eq!(&ok, hl.labels());
        let rejects = |first: &[u32], entries: &[LabelEntry]| {
            HubLabels::from_raw(first.to_vec(), entries.to_vec()).unwrap_err()
        };

        // Head hubs that are no permutation.
        let mut bad = entries.to_vec();
        let top = g.num_nodes() as u32 - 1;
        bad.iter_mut()
            .find(|e| e.dist == 0 && e.hub == top)
            .unwrap()
            .hub = 0;
        assert!(rejects(first, &bad).contains("permutation"));
        // Non-monotone offsets.
        let mut bad = first.to_vec();
        bad[1] = entries.len() as u32 + 1;
        assert!(rejects(&bad, entries).contains("monotone"));
        // A label no longer headed by (rank, 0).
        let mut bad = entries.to_vec();
        bad[0].dist = 5;
        assert!(rejects(first, &bad).contains("(rank, 0)"));
        // An empty label.
        let mut bad = first.to_vec();
        bad[1] = bad[0];
        assert!(rejects(&bad, entries).contains("(rank, 0)"));
        // Out-of-range hub.
        let mut bad = entries.to_vec();
        let tail = bad.iter().rposition(|e| e.dist != 0).unwrap();
        bad[tail].hub = u32::MAX;
        assert!(rejects(first, &bad).contains("out-of-range"));
        // Offsets that stop short of the entries.
        assert!(rejects(&first[..first.len() - 1], entries).contains("entry count"));
        assert!(rejects(&[], &[]).contains("empty"));
    }

    #[test]
    fn batch_scan_matches_merge_scan() {
        let g = grid_graph(6, 7);
        let hl = Hl::build(&g);
        let labels = hl.labels();
        let sources: Vec<NodeId> = (0..g.num_nodes() as NodeId).step_by(3).collect();
        let targets: Vec<NodeId> = (0..g.num_nodes() as NodeId).step_by(5).collect();
        let mut ws = BatchScan::new(labels);
        let mut budget = QueryBudget::unlimited();
        let mut out = Vec::new();
        ws.table_into(labels, &sources, &targets, &mut budget, &mut out);
        assert_eq!(out.len(), sources.len() * targets.len());
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    out[i * targets.len() + j],
                    labels.distance(s, t),
                    "({s},{t})"
                );
            }
        }
        // Workspace reuse across tables stays clean.
        ws.table_into(labels, &targets, &sources, &mut budget, &mut out);
        for (i, &s) in targets.iter().enumerate() {
            for (j, &t) in sources.iter().enumerate() {
                assert_eq!(
                    out[i * sources.len() + j],
                    labels.distance(s, t),
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn batch_scan_budget_trip_answers_none_from_the_trip_on() {
        let g = grid_graph(4, 4);
        let hl = Hl::build(&g);
        let labels = hl.labels();
        let sources: Vec<NodeId> = vec![0, 5, 9];
        let targets: Vec<NodeId> = vec![1, 6, 11, 15];
        let mut ws = BatchScan::new(labels);
        let mut budget = QueryBudget::unlimited().with_node_cap(5);
        let mut out = Vec::new();
        ws.table_into(labels, &sources, &targets, &mut budget, &mut out);
        assert!(budget.exhausted());
        assert_eq!(out.len(), sources.len() * targets.len());
        // The first five pairs were answered (and correctly); the rest
        // are None — never a fabricated distance.
        for (k, cell) in out.iter().enumerate() {
            let (s, t) = (sources[k / targets.len()], targets[k % targets.len()]);
            if k < 5 {
                assert_eq!(*cell, labels.distance(s, t), "pair {k}");
            } else {
                assert_eq!(*cell, None, "pair {k} after the trip");
            }
        }
    }
}
