//! The contraction process: witness searches, shortcut insertion, and the
//! frozen hierarchy.

use spq_graph::heap::IndexedHeap;
use spq_graph::par;
use spq_graph::size::IndexSize;
use spq_graph::types::{Dist, NodeId, Weight, INFINITY, INVALID_NODE};
use spq_graph::RoadNetwork;

use crate::ordering::{OrderingState, PriorityWeights};
use crate::search_graph::{SearchEdge, SearchGraph, NO_MIDDLE};

/// Order-preserving map from an `i64` contraction priority to the
/// unsigned key space of [`IndexedHeap`] (flip the sign bit).
#[inline]
fn prio_key(p: i64) -> u64 {
    (p as u64) ^ (1 << 63)
}

/// Inverse of [`prio_key`].
#[inline]
fn key_prio(k: u64) -> i64 {
    (k ^ (1 << 63)) as i64
}

/// Tuning knobs of the contraction process.
#[derive(Debug, Clone, Copy)]
pub struct ChParams {
    /// Priority formula coefficients.
    pub priority: PriorityWeights,
    /// Witness searches stop after settling this many vertices. A smaller
    /// limit speeds preprocessing but may insert superfluous shortcuts
    /// (never incorrect ones).
    pub witness_settle_limit: usize,
}

impl Default for ChParams {
    fn default() -> Self {
        ChParams {
            priority: PriorityWeights::default(),
            witness_settle_limit: 64,
        }
    }
}

/// One edge of the remaining ("overlay") graph during contraction.
/// `middle` is the contracted vertex a shortcut replaces — the *tag* of
/// §3.2 — or `INVALID_NODE` for original edges.
#[derive(Debug, Clone, Copy)]
struct OEdge {
    to: NodeId,
    weight: Weight,
    middle: NodeId,
}

/// The mutable remaining graph.
struct Overlay {
    adj: Vec<Vec<OEdge>>,
    contracted: Vec<bool>,
}

impl Overlay {
    /// The starting overlay: the network's adjacency, with parallel arcs
    /// collapsed to the lightest and self-loops dropped (neither can lie
    /// on a shortest path, and a network file may carry both), so every
    /// pair of vertices has at most one overlay edge from here on.
    fn from_network(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        let mut adj = vec![Vec::new(); n];
        for v in 0..n as NodeId {
            let list: &mut Vec<OEdge> = &mut adj[v as usize];
            for (to, weight) in net.neighbors(v).filter(|&(to, _)| to != v) {
                match list.iter_mut().find(|e| e.to == to) {
                    Some(e) => e.weight = e.weight.min(weight),
                    None => list.push(OEdge {
                        to,
                        weight,
                        middle: INVALID_NODE,
                    }),
                }
            }
        }
        Overlay {
            adj,
            contracted: vec![false; n],
        }
    }

    /// Live neighbours of `v` (skipping contracted endpoints).
    fn live_edges<'a>(&'a self, v: NodeId) -> impl Iterator<Item = OEdge> + 'a {
        self.adj[v as usize]
            .iter()
            .copied()
            .filter(|e| !self.contracted[e.to as usize])
    }

    /// Inserts or improves the undirected edge {u, w}.
    fn upsert(&mut self, u: NodeId, w: NodeId, weight: Weight, middle: NodeId) {
        for (a, b) in [(u, w), (w, u)] {
            match self.adj[a as usize].iter_mut().find(|e| e.to == b) {
                Some(e) => {
                    if weight < e.weight {
                        e.weight = weight;
                        e.middle = middle;
                    }
                }
                None => self.adj[a as usize].push(OEdge {
                    to: b,
                    weight,
                    middle,
                }),
            }
        }
    }
}

/// A bounded Dijkstra over the overlay used to find *witness paths*:
/// contracting `v`, a shortcut (u, w) is unnecessary iff some path from u
/// to w avoiding v is no longer than via v.
struct WitnessSearch {
    dist: Vec<Dist>,
    stamp: Vec<u32>,
    version: u32,
    heap: IndexedHeap,
}

impl WitnessSearch {
    fn new(n: usize) -> Self {
        WitnessSearch {
            dist: vec![INFINITY; n],
            stamp: vec![0; n],
            version: 0,
            heap: IndexedHeap::new(n),
        }
    }

    /// Runs from `source` over the overlay, skipping `excluded` and all
    /// contracted vertices, up to `cutoff` distance and `settle_limit`
    /// settles. Afterwards [`WitnessSearch::distance`] answers for any
    /// vertex reached within those bounds.
    fn run(
        &mut self,
        overlay: &Overlay,
        source: NodeId,
        excluded: NodeId,
        cutoff: Dist,
        settle_limit: usize,
    ) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.stamp.fill(0);
            self.version = 1;
        }
        self.heap.clear();
        self.dist[source as usize] = 0;
        self.stamp[source as usize] = self.version;
        self.heap.push_or_decrease(source, 0);
        let mut settled = 0usize;
        while let Some((d, u)) = self.heap.pop_min() {
            debug_assert_eq!(d, self.dist_of(u)); // decrease-key: never stale
            settled += 1;
            if settled > settle_limit || d > cutoff {
                break;
            }
            for e in overlay.live_edges(u) {
                if e.to == excluded {
                    continue;
                }
                let nd = d + e.weight as Dist;
                if nd <= cutoff && nd < self.dist_of(e.to) {
                    self.dist[e.to as usize] = nd;
                    self.stamp[e.to as usize] = self.version;
                    self.heap.push_or_decrease(e.to, nd);
                }
            }
        }
    }

    #[inline]
    fn dist_of(&self, v: NodeId) -> Dist {
        if self.stamp[v as usize] == self.version {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    /// Distance found by the last run (may be an overestimate if the
    /// bounded search gave up — that is safe: it only adds shortcuts).
    #[inline]
    fn distance(&self, v: NodeId) -> Dist {
        self.dist_of(v)
    }
}

/// The frozen Contraction Hierarchies index: the total order and, per
/// vertex, its *upward* edges — the overlay edges it had at the moment it
/// was contracted, all of which lead to higher-ranked vertices — held in
/// one form, the rank-renumbered [`SearchGraph`]. Queries search only
/// this upward graph; shortcuts carry their middle-vertex tag for
/// unpacking.
#[derive(Debug, Clone)]
pub struct ContractionHierarchy {
    search: SearchGraph,
    num_shortcuts: usize,
}

impl ContractionHierarchy {
    /// Builds with default parameters and the heuristic node order.
    pub fn build(net: &RoadNetwork) -> Self {
        Self::build_with_params(net, &ChParams::default())
    }

    /// Builds with explicit parameters.
    pub fn build_with_params(net: &RoadNetwork, params: &ChParams) -> Self {
        let n = net.num_nodes();
        let mut overlay = Overlay::from_network(net);
        let mut state = OrderingState::new(n, params.priority);

        // Initial lazy priority queue. One witness-search simulation per
        // vertex over the read-only starting overlay — the dominant cost
        // of ordering on large networks, and embarrassingly parallel:
        // each worker gets its own search workspace, results come back
        // in vertex order, so the queue is built from the same sequence
        // regardless of the thread count.
        let initial = par::par_map_index(
            n,
            || (WitnessSearch::new(n), Vec::new(), Vec::new()),
            |(witness, neighbors, shortcuts), v| {
                let v = v as NodeId;
                let inc = simulate(
                    &overlay,
                    witness,
                    v,
                    params.witness_settle_limit,
                    neighbors,
                    shortcuts,
                );
                state.priority(v, shortcuts.len(), inc)
            },
        );
        // The queue holds each vertex exactly once (update-in-place
        // instead of the duplicate-entry push a `BinaryHeap` would
        // need), so the lazy-update loop below never allocates.
        let mut queue: IndexedHeap = IndexedHeap::new(n);
        for (v, &p) in initial.iter().enumerate() {
            queue.push_or_update(v as NodeId, prio_key(p));
        }

        let mut witness = WitnessSearch::new(n);
        let mut neighbors = Vec::new();
        let mut shortcuts = Vec::new();

        let mut order = Vec::with_capacity(n);
        let mut upward: Vec<Vec<OEdge>> = vec![Vec::new(); n];
        let mut num_shortcuts = 0usize;
        while let Some((key, v)) = queue.pop_min() {
            debug_assert!(!overlay.contracted[v as usize]);
            let prio = key_prio(key);
            // Lazy update: recompute; if no longer minimal, requeue.
            let incident = simulate(
                &overlay,
                &mut witness,
                v,
                params.witness_settle_limit,
                &mut neighbors,
                &mut shortcuts,
            );
            let fresh = state.priority(v, shortcuts.len(), incident);
            if fresh > prio {
                if let Some(top) = queue.peek_key() {
                    if prio_key(fresh) > top {
                        queue.push_or_update(v, prio_key(fresh));
                        continue;
                    }
                }
            }

            // Contract v: freeze its upward edges, insert its shortcuts.
            upward[v as usize] = overlay.live_edges(v).collect();
            overlay.contracted[v as usize] = true;
            for &(u, w, weight) in &shortcuts {
                overlay.upsert(u, w, weight, v);
                num_shortcuts += 1;
            }
            for e in &upward[v as usize] {
                state.on_contract_neighbor(v, e.to);
            }
            order.push(v);
        }
        debug_assert_eq!(order.len(), n);

        Self::freeze(n, &order, upward, num_shortcuts)
    }

    /// Builds using an explicit contraction order (`order[0]` contracted
    /// first). Used by tests to replay the paper's worked example and by
    /// ablation benches.
    pub fn build_with_order(net: &RoadNetwork, order: &[NodeId]) -> Self {
        let n = net.num_nodes();
        assert_eq!(order.len(), n, "order must mention every vertex once");
        let params = ChParams::default();
        let mut overlay = Overlay::from_network(net);
        let mut witness = WitnessSearch::new(n);
        let mut neighbors = Vec::new();
        let mut shortcuts = Vec::new();
        let mut upward: Vec<Vec<OEdge>> = vec![Vec::new(); n];
        let mut num_shortcuts = 0usize;
        for &v in order {
            assert!(!overlay.contracted[v as usize], "duplicate in order");
            simulate(
                &overlay,
                &mut witness,
                v,
                params.witness_settle_limit,
                &mut neighbors,
                &mut shortcuts,
            );
            upward[v as usize] = overlay.live_edges(v).collect();
            overlay.contracted[v as usize] = true;
            for &(u, w, weight) in &shortcuts {
                overlay.upsert(u, w, weight, v);
                num_shortcuts += 1;
            }
        }
        Self::freeze(n, order, upward, num_shortcuts)
    }

    /// Renumbers the frozen upward lists by rank into the flat search
    /// graph: one record per overlay edge, each list ascending by target.
    fn freeze(n: usize, order: &[NodeId], upward: Vec<Vec<OEdge>>, num_shortcuts: usize) -> Self {
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let total: usize = upward.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "{total} upward edges overflow the 32-bit CSR offsets"
        );
        let mut up_first = Vec::with_capacity(n + 1);
        let mut up = Vec::with_capacity(total);
        up_first.push(0u32);
        for &v in order {
            let start = up.len();
            up.extend(upward[v as usize].iter().map(|e| SearchEdge {
                target: rank[e.to as usize],
                weight: e.weight,
                middle: match e.middle {
                    INVALID_NODE => NO_MIDDLE,
                    m => rank[m as usize],
                },
            }));
            up[start..].sort_unstable_by_key(|e| e.target);
            up_first.push(up.len() as u32);
        }
        let search = SearchGraph::from_sections(rank, up_first, up)
            .expect("contraction emits a valid hierarchy");
        ContractionHierarchy {
            search,
            num_shortcuts,
        }
    }

    /// Wraps a validated search graph read back from a container.
    pub(crate) fn from_parts(search: SearchGraph, num_shortcuts: usize) -> Self {
        ContractionHierarchy {
            search,
            num_shortcuts,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.search.num_nodes()
    }

    /// Total number of shortcuts inserted during preprocessing.
    #[inline]
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Number of upward edges (original + shortcut) in the search graph.
    #[inline]
    pub fn num_upward_edges(&self) -> usize {
        self.search.num_edges()
    }

    /// The flattened rank-renumbered search graph — the hierarchy itself.
    #[inline]
    pub fn search_graph(&self) -> &SearchGraph {
        &self.search
    }
}

impl IndexSize for ContractionHierarchy {
    fn index_size_bytes(&self) -> usize {
        self.search.index_size_bytes()
    }
}

/// Simulates contracting `v`: fills `shortcuts` with the shortcuts it
/// would create (as `(u, w, weight)` with `u`, `w` live neighbours) and
/// returns its live degree. Both scratch vectors are cleared and reused
/// across calls so the contraction loop stays allocation-free.
fn simulate(
    overlay: &Overlay,
    witness: &mut WitnessSearch,
    v: NodeId,
    settle_limit: usize,
    neighbors_scratch: &mut Vec<OEdge>,
    shortcuts: &mut Vec<(NodeId, NodeId, Weight)>,
) -> usize {
    neighbors_scratch.clear();
    shortcuts.clear();
    neighbors_scratch.extend(overlay.live_edges(v));
    let neighbors = &*neighbors_scratch;
    for (i, eu) in neighbors.iter().enumerate() {
        if i + 1 == neighbors.len() {
            break;
        }
        // One witness search from u covers all pairs (u, w), w after u.
        let cutoff = neighbors[i + 1..]
            .iter()
            .map(|ew| eu.weight as Dist + ew.weight as Dist)
            .max()
            .unwrap_or(0);
        witness.run(overlay, eu.to, v, cutoff, settle_limit);
        for ew in &neighbors[i + 1..] {
            if ew.to == eu.to {
                continue;
            }
            let via_v = eu.weight as Dist + ew.weight as Dist;
            if witness.distance(ew.to) > via_v {
                debug_assert!(via_v <= Weight::MAX as Dist, "shortcut weight overflow");
                shortcuts.push((eu.to, ew.to, via_v as Weight));
            }
        }
    }
    neighbors.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search_graph::edge_to;
    use spq_graph::toy::figure1;

    /// The upward record from original vertex `v` to `to`, as
    /// `(weight, tag as an original id)`.
    fn up_edge(
        ch: &ContractionHierarchy,
        v: NodeId,
        to: NodeId,
    ) -> Option<(Weight, Option<NodeId>)> {
        let sg = ch.search_graph();
        edge_to(sg.up(sg.rank_of(v)), sg.rank_of(to)).map(|e| {
            let tag = (e.middle != NO_MIDDLE).then(|| sg.orig_of(e.middle));
            (e.weight, tag)
        })
    }

    /// Replays §3.2's worked example: contracting v1..v8 in order creates
    /// exactly c1 = (v3, v8, 2) at v1, c2 = (v7, v6, 2) at v5, and
    /// c3 = (v7, v8, 4) at v6.
    #[test]
    fn figure2_shortcuts() {
        let g = figure1();
        let order: Vec<NodeId> = (0..8).collect();
        let ch = ContractionHierarchy::build_with_order(&g, &order);
        assert_eq!(ch.num_shortcuts(), 3);

        // c1: when v1 (id 0) is contracted it connects v3 (2) and v8 (7).
        // The shortcut shows up as an upward edge of whichever endpoint is
        // contracted earlier: v3 at rank 2 < v8 at rank 7.
        assert_eq!(up_edge(&ch, 2, 7), Some((2, Some(0))), "c1");
        // c2: contracting v5 (4) connects v7 (6) and v6 (5); v6 is lower.
        assert_eq!(up_edge(&ch, 5, 6), Some((2, Some(4))), "c2");
        // c3: contracting v6 (5) connects v7 (6) and v8 (7); v7 is lower.
        assert_eq!(up_edge(&ch, 6, 7), Some((4, Some(5))), "c3");
    }

    #[test]
    fn v2_contraction_creates_no_shortcut() {
        // §3.2: after v1 is contracted, v2's neighbours v3 and v8 are
        // already connected by c1 (weight 2) which is not longer than the
        // path through v2 (1 + 2 = 3), so no shortcut anywhere is tagged
        // v2 (id 1, rank 1 under the identity order).
        let g = figure1();
        let ch = ContractionHierarchy::build_with_order(&g, &(0..8).collect::<Vec<_>>());
        let sg = ch.search_graph();
        for r in 0..8u32 {
            assert!(sg.up(r).iter().all(|e| e.middle != 1), "rank {r}");
        }
    }

    /// A network file may carry what the builder never produces:
    /// parallel arcs and self-loops. The overlay starts from the
    /// lightest arc of every pair, so the hierarchy (one record per pair)
    /// and its answers are those of the collapsed network.
    #[test]
    fn parallel_arcs_and_self_loops_collapse_to_the_simple_network() {
        use spq_graph::binio;
        let g = figure1();
        let n = g.num_nodes() as NodeId;
        let (mut first, mut heads, mut weights) = (vec![0u32], Vec::new(), Vec::new());
        for v in 0..n {
            // A heavier copy in front of every arc, a loop behind them.
            for (to, w) in g.neighbors(v) {
                heads.extend([to, to]);
                weights.extend([w + 3, w]);
            }
            heads.push(v);
            weights.push(1);
            first.push(heads.len() as u32);
        }
        let mut file = Vec::new();
        binio::write_header(&mut file, b"SPQN", 1).unwrap();
        binio::write_u64(&mut file, n as u64).unwrap();
        binio::write_u32s(&mut file, &first).unwrap();
        binio::write_u32s(&mut file, &heads).unwrap();
        binio::write_u32s(&mut file, &weights).unwrap();
        binio::write_i32s(&mut file, &vec![0; n as usize]).unwrap();
        binio::write_i32s(&mut file, &vec![0; n as usize]).unwrap();
        let multi = RoadNetwork::read_binary(&mut &file[..]).unwrap();
        assert_eq!(multi.num_arcs(), 2 * g.num_arcs() + n as usize);

        let order: Vec<NodeId> = (0..n).collect();
        let simple = ContractionHierarchy::build_with_order(&g, &order);
        let collapsed = ContractionHierarchy::build_with_order(&multi, &order);
        assert_eq!(collapsed.search_graph(), simple.search_graph());
        assert_eq!(collapsed.num_shortcuts(), simple.num_shortcuts());
        assert_eq!(
            ContractionHierarchy::build(&multi).search_graph(),
            ContractionHierarchy::build(&g).search_graph()
        );
    }

    #[test]
    fn heuristic_order_creates_few_shortcuts_on_figure1() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        // The identity order needs 3; a sensible heuristic should not be
        // dramatically worse on this tiny graph.
        assert!(ch.num_shortcuts() <= 5, "got {}", ch.num_shortcuts());
    }

    #[test]
    fn index_size_counts_all_arrays() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        // Two permutations, two CSR offset arrays, and the 12-byte
        // interleaved records of both halves.
        let flat = 2 * 8 * 4 + 2 * 9 * 4 + 2 * ch.num_upward_edges() * 12;
        assert_eq!(ch.index_size_bytes(), flat);
    }
}
