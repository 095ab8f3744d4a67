//! The contraction process: witness searches, shortcut insertion, and the
//! frozen hierarchy.
//!
//! Two rules keep contraction cheap without moving an output byte:
//!
//! * **The overlay forgets what it contracted.** Contracting `v` freezes
//!   its edge list as its upward edges and deletes the entry to `v` from
//!   every surviving neighbour's list, order-preserving. Every live list
//!   then holds live edges only, in the relative order they would have
//!   among dead entries, so each scan, heap tie-break and witness outcome
//!   is what filtering dead entries on every scan would give.
//! * **A witness search stops once every target is decided.** Simulating
//!   `v`, the search from neighbour `u` needs one bit per later
//!   neighbour `w`: is `dist(u, w)` avoiding `v` above `w(u,v) + w(v,w)`?
//!   A settled target's distance is final. A target relaxed to at most
//!   its threshold stays there, because tentative distances only fall.
//!   Either way the bit can no longer change, so the search returns once
//!   no target is open, with the answer the unstopped search would give.

use spq_graph::heap::IndexedHeap;
use spq_graph::par;
use spq_graph::size::IndexSize;
use spq_graph::types::{Dist, NodeId, Weight, INFINITY, INVALID_NODE};
use spq_graph::RoadNetwork;

use crate::ordering::{OrderingState, PriorityWeights};
use crate::search_graph::{SearchEdge, SearchGraph, NO_MIDDLE};

/// Witness searches stop after settling this many vertices. A smaller
/// limit speeds preprocessing but may insert superfluous shortcuts
/// (never incorrect ones).
const WITNESS_SETTLE_LIMIT: usize = 64;

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

/// What one contraction did, in plain counts
/// ([`ContractionHierarchy::build_with_report`]). Every witness search
/// ends one of three ways, so `ended_decided + ended_settle_limit +
/// ended_cutoff == witness_searches`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContractionReport {
    /// Contractions simulated: one per vertex for the initial queue, one
    /// per pop of the lazy queue.
    pub simulations: u64,
    /// Pops whose recomputed priority sent the vertex back to the queue.
    pub lazy_requeues: u64,
    /// Witness searches run (one per neighbour but the last, per
    /// simulation).
    pub witness_searches: u64,
    /// Searches that returned once every target was decided.
    pub ended_decided: u64,
    /// Searches stopped by the settle limit with a target still open.
    pub ended_settle_limit: u64,
    /// Searches whose queue ran dry: every vertex within the cutoff was
    /// settled (relaxations past it are never queued).
    pub ended_cutoff: u64,
    /// Vertices popped off witness-search queues.
    pub settled: u64,
    /// Shortcuts inserted.
    pub shortcuts: u64,
}

impl ContractionReport {
    fn merge(&mut self, other: &ContractionReport) {
        self.simulations += other.simulations;
        self.lazy_requeues += other.lazy_requeues;
        self.witness_searches += other.witness_searches;
        self.ended_decided += other.ended_decided;
        self.ended_settle_limit += other.ended_settle_limit;
        self.ended_cutoff += other.ended_cutoff;
        self.settled += other.settled;
        self.shortcuts += other.shortcuts;
    }

    fn record(&mut self, end: SearchEnd, settled: usize) {
        self.witness_searches += 1;
        self.settled += settled as u64;
        match end {
            SearchEnd::Decided => self.ended_decided += 1,
            SearchEnd::SettleLimit => self.ended_settle_limit += 1,
            SearchEnd::Cutoff => self.ended_cutoff += 1,
        }
    }
}

impl std::fmt::Display for ContractionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} simulations ({} lazy re-queues), {} witness searches \
             (ended: {} decided, {} settle limit, {} cutoff), {} settled, {} shortcuts",
            self.simulations,
            self.lazy_requeues,
            self.witness_searches,
            self.ended_decided,
            self.ended_settle_limit,
            self.ended_cutoff,
            self.settled,
            self.shortcuts
        )
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

/// The mutable remaining graph. A live vertex's list holds its edges to
/// live vertices only; a contracted vertex's list is frozen as its upward
/// edges, so once every vertex is contracted `adj` is the hierarchy.
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

    /// Live neighbours of the live vertex `v`.
    #[inline]
    fn edges(&self, v: NodeId) -> &[OEdge] {
        &self.adj[v as usize]
    }

    /// Contracts `v`: deletes the entry to `v` from every neighbour's
    /// list, which freezes `v`'s own list as its upward edges, and
    /// inserts `shortcuts` (`(u, w, weight)`, tagged `v`) between them.
    fn contract(&mut self, v: NodeId, shortcuts: &[(NodeId, NodeId, Weight)]) {
        self.contracted[v as usize] = true;
        let upward = std::mem::take(&mut self.adj[v as usize]);
        for e in &upward {
            self.adj[e.to as usize].retain(|back| back.to != v);
        }
        self.adj[v as usize] = upward;
        for &(u, w, weight) in shortcuts {
            self.upsert(u, w, weight, v);
        }
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

/// Why a witness search returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchEnd {
    /// No target was open any more.
    Decided,
    /// [`WITNESS_SETTLE_LIMIT`] settles were spent.
    SettleLimit,
    /// The queue ran dry within the cutoff.
    Cutoff,
}

/// A bounded Dijkstra over the overlay used to find *witness paths*:
/// contracting `v`, a shortcut (u, w) is unnecessary iff some path from u
/// to w avoiding v is no longer than via v.
struct WitnessSearch {
    dist: Vec<Dist>,
    stamp: Vec<u32>,
    /// `open[w] == version`: `w` is a target of the current run whose
    /// answer can still change; `threshold[w]` is what it is tested
    /// against.
    open: Vec<u32>,
    threshold: Vec<Dist>,
    num_open: usize,
    version: u32,
    heap: IndexedHeap,
}

impl WitnessSearch {
    fn new(n: usize) -> Self {
        WitnessSearch {
            dist: vec![INFINITY; n],
            stamp: vec![0; n],
            open: vec![0; n],
            threshold: vec![0; n],
            num_open: 0,
            version: 0,
            heap: IndexedHeap::new(n),
        }
    }

    /// Runs from `source` over the overlay, skipping `excluded`, to decide
    /// for every `(target, threshold)` whether the target lies farther
    /// than its threshold. The cutoff is the largest threshold. Returns
    /// why the search stopped and how many vertices it settled;
    /// afterwards [`WitnessSearch::distance`] answers every target.
    fn run(
        &mut self,
        overlay: &Overlay,
        source: NodeId,
        excluded: NodeId,
        targets: impl Iterator<Item = (NodeId, Dist)>,
    ) -> (SearchEnd, usize) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.stamp.fill(0);
            self.open.fill(0);
            self.version = 1;
        }
        let mut cutoff = 0;
        self.num_open = 0;
        for (w, threshold) in targets {
            self.open[w as usize] = self.version;
            self.threshold[w as usize] = threshold;
            self.num_open += 1;
            cutoff = cutoff.max(threshold);
        }
        self.heap.clear();
        self.dist[source as usize] = 0;
        self.stamp[source as usize] = self.version;
        self.heap.push_or_decrease(source, 0);
        let mut settled = 0usize;
        while let Some((d, u)) = self.heap.pop_min() {
            debug_assert_eq!(d, self.dist_of(u)); // decrease-key: never stale
            debug_assert!(d <= cutoff, "only distances within the cutoff are queued");
            settled += 1;
            if settled > WITNESS_SETTLE_LIMIT {
                return (SearchEnd::SettleLimit, settled);
            }
            if self.decide(u) {
                return (SearchEnd::Decided, settled);
            }
            for e in overlay.edges(u) {
                if e.to == excluded {
                    continue;
                }
                let nd = d + e.weight as Dist;
                if nd <= cutoff && nd < self.dist_of(e.to) {
                    self.dist[e.to as usize] = nd;
                    self.stamp[e.to as usize] = self.version;
                    self.heap.push_or_decrease(e.to, nd);
                    if self.is_open(e.to)
                        && nd <= self.threshold[e.to as usize]
                        && self.decide(e.to)
                    {
                        return (SearchEnd::Decided, settled);
                    }
                }
            }
        }
        (SearchEnd::Cutoff, settled)
    }

    #[inline]
    fn is_open(&self, w: NodeId) -> bool {
        self.open[w as usize] == self.version
    }

    /// Closes `w` if it is an open target; true once no target is open.
    #[inline]
    fn decide(&mut self, w: NodeId) -> bool {
        if !self.is_open(w) {
            return false;
        }
        self.open[w as usize] = 0;
        self.num_open -= 1;
        self.num_open == 0
    }

    #[inline]
    fn dist_of(&self, v: NodeId) -> Dist {
        if self.stamp[v as usize] == self.version {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    /// Distance found by the last run. For a target this is final or
    /// already at most its threshold; past the settle limit it may be an
    /// overestimate — that is safe: it only adds shortcuts.
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
#[derive(Debug, Clone, PartialEq)]
pub struct ContractionHierarchy {
    search: SearchGraph,
    num_shortcuts: usize,
}

impl ContractionHierarchy {
    /// Builds with the heuristic node order.
    pub fn build(net: &RoadNetwork) -> Self {
        Self::build_with_report(net).0
    }

    /// [`ContractionHierarchy::build`], also returning what the
    /// contraction did.
    pub fn build_with_report(net: &RoadNetwork) -> (Self, ContractionReport) {
        let n = net.num_nodes();
        let mut overlay = Overlay::from_network(net);
        let mut state = OrderingState::new(n, PriorityWeights::default());
        let mut report = ContractionReport::default();

        // Initial lazy priority queue. One witness-search simulation per
        // vertex over the read-only starting overlay — the dominant cost
        // of ordering on large networks, and embarrassingly parallel:
        // each worker simulates one span of vertices with its own search
        // workspace and report, and the spans come back in vertex order,
        // so the queue is built from the same sequence regardless of the
        // thread count.
        let spans = par::par_map_spans(n, |span| {
            let mut witness = WitnessSearch::new(n);
            let mut shortcuts = Vec::new();
            let mut part = ContractionReport::default();
            let priorities: Vec<i64> = span
                .map(|v| {
                    let v = v as NodeId;
                    let inc = simulate(&overlay, &mut witness, v, &mut shortcuts, &mut part);
                    state.priority(v, shortcuts.len(), inc)
                })
                .collect();
            (priorities, part)
        });
        // The queue holds each vertex exactly once (update-in-place
        // instead of the duplicate-entry push a `BinaryHeap` would
        // need), so the lazy-update loop below never allocates.
        let mut queue: IndexedHeap = IndexedHeap::new(n);
        let mut v: NodeId = 0;
        for (priorities, part) in spans {
            report.merge(&part);
            for p in priorities {
                queue.push_or_update(v, prio_key(p));
                v += 1;
            }
        }

        let mut witness = WitnessSearch::new(n);
        let mut shortcuts = Vec::new();
        let mut order = Vec::with_capacity(n);
        while let Some((key, v)) = queue.pop_min() {
            debug_assert!(!overlay.contracted[v as usize]);
            let prio = key_prio(key);
            // Lazy update: recompute; if no longer minimal, requeue.
            let incident = simulate(&overlay, &mut witness, v, &mut shortcuts, &mut report);
            let fresh = state.priority(v, shortcuts.len(), incident);
            if fresh > prio {
                if let Some(top) = queue.peek_key() {
                    if prio_key(fresh) > top {
                        queue.push_or_update(v, prio_key(fresh));
                        report.lazy_requeues += 1;
                        continue;
                    }
                }
            }
            overlay.contract(v, &shortcuts);
            report.shortcuts += shortcuts.len() as u64;
            for e in overlay.edges(v) {
                state.on_contract_neighbor(v, e.to);
            }
            order.push(v);
        }
        debug_assert_eq!(order.len(), n);

        let ch = Self::freeze(&order, overlay.adj, report.shortcuts as usize);
        (ch, report)
    }

    /// Builds using an explicit contraction order (`order[0]` contracted
    /// first). Used by tests to replay the paper's worked example and by
    /// ablation benches.
    pub fn build_with_order(net: &RoadNetwork, order: &[NodeId]) -> Self {
        let n = net.num_nodes();
        assert_eq!(order.len(), n, "order must mention every vertex once");
        let mut overlay = Overlay::from_network(net);
        let mut witness = WitnessSearch::new(n);
        let mut shortcuts = Vec::new();
        let mut report = ContractionReport::default();
        for &v in order {
            assert!(!overlay.contracted[v as usize], "duplicate in order");
            simulate(&overlay, &mut witness, v, &mut shortcuts, &mut report);
            overlay.contract(v, &shortcuts);
            report.shortcuts += shortcuts.len() as u64;
        }
        Self::freeze(order, overlay.adj, report.shortcuts as usize)
    }

    /// Renumbers the frozen upward lists by rank into the flat search
    /// graph: one record per overlay edge, each list ascending by target.
    fn freeze(order: &[NodeId], upward: Vec<Vec<OEdge>>, num_shortcuts: usize) -> Self {
        let n = order.len();
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
/// would create (as `(u, w, weight)` with `u`, `w` live neighbours),
/// counts its witness searches into `report`, and returns its live
/// degree. `shortcuts` is cleared and reused across calls so the
/// contraction loop stays allocation-free.
fn simulate(
    overlay: &Overlay,
    witness: &mut WitnessSearch,
    v: NodeId,
    shortcuts: &mut Vec<(NodeId, NodeId, Weight)>,
    report: &mut ContractionReport,
) -> usize {
    shortcuts.clear();
    report.simulations += 1;
    let neighbors = overlay.edges(v);
    for (i, eu) in neighbors.iter().enumerate() {
        let later = &neighbors[i + 1..];
        if later.is_empty() {
            break;
        }
        // One witness search from u decides all pairs (u, w), w after u.
        let via_v = |ew: &OEdge| eu.weight as Dist + ew.weight as Dist;
        let (end, settled) =
            witness.run(overlay, eu.to, v, later.iter().map(|ew| (ew.to, via_v(ew))));
        report.record(end, settled);
        for ew in later {
            let via_v = via_v(ew);
            if witness.distance(ew.to) > via_v {
                let Ok(weight) = Weight::try_from(via_v) else {
                    panic!(
                        "shortcut weight {via_v} ({} -> {} via contracted vertex {v}) \
                         exceeds the 32-bit edge weight",
                        eu.to, ew.to
                    );
                };
                shortcuts.push((eu.to, ew.to, weight));
            }
        }
    }
    neighbors.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search_graph::edge_to;
    use proptest::prelude::*;
    use spq_graph::arbitrary::tie_heavy_network;
    use spq_graph::builder::GraphBuilder;
    use spq_graph::geo::Point;
    use spq_graph::toy::figure1;

    /// [`WitnessSearch::run`] without targets: the stopping rule before
    /// targets were decided — the settle limit, a pop past the cutoff, or
    /// a dry queue.
    fn run_reference(
        ws: &mut WitnessSearch,
        overlay: &Overlay,
        source: NodeId,
        excluded: NodeId,
        cutoff: Dist,
    ) {
        ws.version += 1;
        ws.heap.clear();
        ws.dist[source as usize] = 0;
        ws.stamp[source as usize] = ws.version;
        ws.heap.push_or_decrease(source, 0);
        let mut settled = 0usize;
        while let Some((d, u)) = ws.heap.pop_min() {
            settled += 1;
            if settled > WITNESS_SETTLE_LIMIT || d > cutoff {
                break;
            }
            for e in overlay.edges(u) {
                if e.to == excluded {
                    continue;
                }
                let nd = d + e.weight as Dist;
                if nd <= cutoff && nd < ws.dist_of(e.to) {
                    ws.dist[e.to as usize] = nd;
                    ws.stamp[e.to as usize] = ws.version;
                    ws.heap.push_or_decrease(e.to, nd);
                }
            }
        }
    }

    /// [`simulate`] over [`run_reference`]: `(live degree, shortcuts)`.
    fn simulate_reference(
        overlay: &Overlay,
        ws: &mut WitnessSearch,
        v: NodeId,
    ) -> (usize, Vec<(NodeId, NodeId, Weight)>) {
        let neighbors = overlay.edges(v);
        let mut shortcuts = Vec::new();
        for (i, eu) in neighbors.iter().enumerate() {
            let later = &neighbors[i + 1..];
            let via_v = |ew: &OEdge| eu.weight as Dist + ew.weight as Dist;
            let Some(cutoff) = later.iter().map(via_v).max() else {
                break;
            };
            run_reference(ws, overlay, eu.to, v, cutoff);
            for ew in later {
                if ws.distance(ew.to) > via_v(ew) {
                    shortcuts.push((eu.to, ew.to, via_v(ew) as Weight));
                }
            }
        }
        (neighbors.len(), shortcuts)
    }

    /// A network with a uniformly random contraction order.
    fn network_and_order() -> impl Strategy<Value = (RoadNetwork, Vec<NodeId>)> {
        tie_heavy_network().prop_flat_map(|net| {
            let keys = collection::vec(any::<u64>(), net.num_nodes());
            (Just(net), keys).prop_map(|(net, keys)| {
                let mut order: Vec<NodeId> = (0..net.num_nodes() as NodeId).collect();
                order.sort_by_key(|&v| keys[v as usize]);
                (net, order)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Stopping a witness search once every target is decided changes
        /// no simulation: at every step of a replayed order, every live
        /// vertex yields the degree and shortcuts — in order — of the
        /// search that runs to its settle limit or cutoff.
        #[test]
        fn deciding_targets_early_simulates_as_the_full_search_does(
            (net, order) in network_and_order()
        ) {
            let n = net.num_nodes();
            let mut overlay = Overlay::from_network(&net);
            let (mut fast, mut full) = (WitnessSearch::new(n), WitnessSearch::new(n));
            let mut shortcuts = Vec::new();
            let mut report = ContractionReport::default();
            for &next in &order {
                for v in (0..n as NodeId).filter(|&v| !overlay.contracted[v as usize]) {
                    let degree = simulate(&overlay, &mut fast, v, &mut shortcuts, &mut report);
                    let (want_degree, want) = simulate_reference(&overlay, &mut full, v);
                    prop_assert_eq!(degree, want_degree);
                    prop_assert_eq!(&shortcuts, &want, "simulating {} before {}", v, next);
                }
                simulate(&overlay, &mut fast, next, &mut shortcuts, &mut report);
                overlay.contract(next, &shortcuts);
            }
        }
    }

    /// The counters add up: every search ends exactly one way, and the
    /// report's shortcuts are the hierarchy's.
    #[test]
    fn report_accounts_for_every_search() {
        let g = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(600, 3));
        let (ch, report) = ContractionHierarchy::build_with_report(&g);
        assert_eq!(
            report.simulations,
            g.num_nodes() as u64 * 2 + report.lazy_requeues
        );
        assert_eq!(
            report.ended_decided + report.ended_settle_limit + report.ended_cutoff,
            report.witness_searches
        );
        assert!(report.ended_decided > 0 && report.ended_cutoff > 0);
        assert!(report.settled >= report.witness_searches);
        assert_eq!(report.shortcuts, ch.num_shortcuts() as u64);
        assert_eq!(
            ch.search_graph(),
            ContractionHierarchy::build(&g).search_graph()
        );
    }

    /// `a –(2³¹+1)– m –(2³¹+1)– c` with `m` contracted first needs a
    /// shortcut of 2³² + 2, which no edge weight holds: the build stops
    /// where the shortcut is made, naming the weight and the vertex.
    #[test]
    #[should_panic(
        expected = "shortcut weight 4294967298 (0 -> 2 via contracted vertex 1) exceeds the 32-bit"
    )]
    fn shortcut_weight_past_u32_stops_the_build() {
        const W: u32 = (1 << 31) + 1;
        let mut b = GraphBuilder::new();
        for x in 0..3 {
            b.add_node(Point::new(x, 0));
        }
        b.add_edge(0, 1, W);
        b.add_edge(1, 2, W);
        let g = b.build().expect("a path is connected");
        ContractionHierarchy::build_with_order(&g, &[1, 0, 2]);
    }

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
        // Two permutations, the CSR offsets, and the 12-byte interleaved
        // upward records.
        let flat = 2 * 8 * 4 + 9 * 4 + ch.num_upward_edges() * 12;
        assert_eq!(ch.index_size_bytes(), flat);
    }
}
