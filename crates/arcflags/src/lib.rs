//! Arc Flags — the pruned-Dijkstra technique of Hilger et al. that the
//! paper's Appendix A surveys: "Arc Flags is a method similar to SILC in
//! the sense that it also imposes a grid on the road network. In the
//! preprocessing step, for each vertex v and each edge e incident to v,
//! Arc Flags tags e with the grid cells in which there is at least one
//! vertex v′ whose shortest path to v passes through e... a revised
//! version of Dijkstra's algorithm avoids visiting irrelevant edges."
//!
//! The implementation partitions the network with a `g × g` grid
//! (`g² ≤ 64` so a region set fits one machine word per arc), flags each
//! directed arc with the regions it serves, and answers queries with a
//! Dijkstra that only relaxes arcs whose flag for the target's region is
//! set. Appendix A reports the technique (like ALT) as dominated by CH;
//! the `appendix_a_alt` experiment binary family verifies that relation.
//!
//! # Example
//!
//! ```
//! use spq_synth::SynthParams;
//! use spq_arcflags::{ArcFlags, ArcFlagsParams};
//!
//! let net = spq_synth::generate(&SynthParams::with_target_vertices(400, 4));
//! let af = ArcFlags::build(&net, &ArcFlagsParams::default());
//! let mut q = af.query(&net);
//! let t = (net.num_nodes() - 1) as u32;
//! assert!(q.distance(0, t).is_some());
//! ```

use spq_dijkstra::{Dijkstra, SearchStats};
use spq_graph::grid::VertexGrid;
use spq_graph::heap::IndexedHeap;
use spq_graph::par;
use spq_graph::size::IndexSize;
use spq_graph::types::{Dist, NodeId, INFINITY, INVALID_NODE};
use spq_graph::RoadNetwork;

/// Arc Flags preprocessing parameters.
#[derive(Debug, Clone, Copy)]
pub struct ArcFlagsParams {
    /// Grid side; `grid²` regions must fit the 64-bit flag word.
    pub grid: u32,
}

impl Default for ArcFlagsParams {
    fn default() -> Self {
        ArcFlagsParams { grid: 8 }
    }
}

/// The Arc Flags index: one 64-bit region mask per directed arc.
#[derive(Debug, PartialEq)]
pub struct ArcFlags {
    grid: VertexGrid,
    /// `flags[arc]` bit r set ⇔ the arc lies on a shortest path into
    /// region r.
    flags: Vec<u64>,
}

impl ArcFlags {
    /// Preprocesses `net`: one backward shortest-path sweep per region
    /// boundary vertex, flagging every tight arc, plus blanket flags for
    /// intra-region arcs.
    pub fn build(net: &RoadNetwork, params: &ArcFlagsParams) -> Self {
        assert!(
            params.grid >= 1 && params.grid * params.grid <= 64,
            "region count must fit the 64-bit flag word"
        );
        let grid = VertexGrid::build(net, params.grid);
        let n = net.num_nodes();
        let mut flags = vec![0u64; net.num_arcs()];

        // Every arc serves its head's region: a search for a target
        // co-located with the head may need the arc as the final hop.
        for u in 0..n as NodeId {
            for (e, v, _) in net.edges(u) {
                let rv = grid.cell_index_of(v);
                flags[e as usize] |= 1 << rv;
            }
        }

        // Boundary vertices: endpoints of arcs crossing a region border.
        let mut boundary: Vec<NodeId> = Vec::new();
        for u in 0..n as NodeId {
            let ru = grid.cell_index_of(u);
            if net.neighbors(u).any(|(v, _)| grid.cell_index_of(v) != ru) {
                boundary.push(u);
            }
        }

        // For each boundary vertex b of region R: flag every arc (u, v)
        // that is tight toward b (dist(u) == w + dist(v)) with R — such
        // arcs lie on a shortest path to b, hence into R. The sweeps are
        // independent and only OR bits in, so contiguous spans of the
        // boundary list fan out over the preprocessing worker pool
        // ([`spq_graph::par`]), each span accumulating into its own flag
        // word array; OR is commutative and associative, so the merged
        // flags match a sequential build bit for bit.
        let num_arcs = net.num_arcs();
        let span_flags = par::par_map_spans(boundary.len(), |span| {
            let mut sweep = Dijkstra::new(n);
            let mut local = vec![0u64; num_arcs];
            for &b in &boundary[span] {
                let region_bit = 1u64 << grid.cell_index_of(b);
                sweep.run(net, b);
                for u in 0..n as NodeId {
                    let du = sweep.distance(u).expect("connected network");
                    for (e, v, w) in net.edges(u) {
                        let dv = sweep.distance(v).expect("connected network");
                        if du == dv + w as Dist {
                            local[e as usize] |= region_bit;
                        }
                    }
                }
            }
            local
        });
        for local in span_flags {
            for (f, l) in flags.iter_mut().zip(local) {
                *f |= l;
            }
        }

        ArcFlags { grid, flags }
    }

    /// The region grid.
    pub fn grid(&self) -> &VertexGrid {
        &self.grid
    }

    /// Fraction of (arc, region) pairs that are flagged — the pruning
    /// power indicator (lower = faster queries).
    pub fn flag_density(&self) -> f64 {
        let regions = self.grid.frame().num_cells() as u32;
        let set: u64 = self
            .flags
            .iter()
            .map(|f| (f & mask_low(regions)).count_ones() as u64)
            .sum();
        set as f64 / (self.flags.len() as f64 * regions as f64)
    }

    /// Creates a query workspace.
    pub fn query<'a>(&'a self, net: &'a RoadNetwork) -> ArcFlagsQuery<'a> {
        ArcFlagsQuery::new(self, net)
    }
}

#[inline]
fn mask_low(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl IndexSize for ArcFlags {
    fn index_size_bytes(&self) -> usize {
        self.flags.len() * 8 + self.grid.index_size_bytes()
    }
}

/// Reusable Arc Flags query workspace: Dijkstra relaxing only arcs
/// flagged for the target's region.
pub struct ArcFlagsQuery<'a> {
    af: &'a ArcFlags,
    net: &'a RoadNetwork,
    dist: Vec<Dist>,
    parent: Vec<NodeId>,
    reached_stamp: Vec<u32>,
    settled_stamp: Vec<u32>,
    version: u32,
    heap: IndexedHeap,
    budget: spq_graph::backend::QueryBudget,
    /// Statistics of the most recent query.
    pub stats: SearchStats,
}

impl<'a> ArcFlagsQuery<'a> {
    /// Creates a workspace over the index and its network.
    pub fn new(af: &'a ArcFlags, net: &'a RoadNetwork) -> Self {
        let n = net.num_nodes();
        ArcFlagsQuery {
            af,
            net,
            dist: vec![INFINITY; n],
            parent: vec![INVALID_NODE; n],
            reached_stamp: vec![0; n],
            settled_stamp: vec![0; n],
            version: 0,
            heap: IndexedHeap::new(n),
            budget: spq_graph::backend::QueryBudget::unlimited(),
            stats: SearchStats::default(),
        }
    }

    /// Installs the cancellation budget subsequent queries run under
    /// (one charge per settled vertex). The default is unlimited.
    pub fn set_budget(&mut self, budget: &spq_graph::backend::QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`ArcFlagsQuery::set_budget`] was
    /// cut short by the budget (its `None` is an abort, not
    /// "unreachable").
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Distance query.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search(s, t)
    }

    /// Shortest-path query.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        let d = self.search(s, t)?;
        let mut path = vec![t];
        let mut cur = t;
        while cur != s {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some((d, path))
    }

    fn search(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.reached_stamp.fill(0);
            self.settled_stamp.fill(0);
            self.version = 1;
        }
        let version = self.version;
        self.stats = SearchStats::default();
        let target_bit = 1u64 << self.af.grid.cell_index_of(t);
        self.heap.clear();
        self.dist[s as usize] = 0;
        self.parent[s as usize] = INVALID_NODE;
        self.reached_stamp[s as usize] = version;
        self.heap.push_or_decrease(s, 0);
        while let Some((d, u)) = self.heap.pop_min() {
            if !self.budget.charge() {
                return None;
            }
            self.settled_stamp[u as usize] = version;
            self.stats.settled += 1;
            if u == t {
                return Some(d);
            }
            for (e, v, w) in self.net.edges(u) {
                if self.af.flags[e as usize] & target_bit == 0 {
                    continue; // the arc serves no shortest path into t's region
                }
                self.stats.relaxed += 1;
                let nd = d + w as Dist;
                let vi = v as usize;
                if self.reached_stamp[vi] != version || nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.parent[vi] = u;
                    self.reached_stamp[vi] = version;
                    self.heap.push_or_decrease(v, nd);
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// spq-serve integration: arc flags behind the unified backend interface.

impl spq_graph::backend::Backend for ArcFlags {
    fn backend_name(&self) -> &'static str {
        "ArcFlags"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn spq_graph::backend::Session + 'a> {
        Box::new(self.query(net))
    }
}

impl spq_graph::backend::Session for ArcFlagsQuery<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        ArcFlagsQuery::distance(self, s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        ArcFlagsQuery::shortest_path(self, s, t)
    }

    fn set_budget(&mut self, budget: &spq_graph::backend::QueryBudget) {
        ArcFlagsQuery::set_budget(self, budget);
    }

    fn interrupted(&self) -> bool {
        self.budget_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::{figure1, grid_graph};

    fn check_all_pairs(net: &RoadNetwork, params: &ArcFlagsParams) {
        let af = ArcFlags::build(net, params);
        let mut q = af.query(net);
        let mut d = Dijkstra::new(net.num_nodes());
        for s in 0..net.num_nodes() as NodeId {
            d.run(net, s);
            for t in 0..net.num_nodes() as NodeId {
                assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
                let (pd, path) = q.shortest_path(s, t).unwrap();
                assert_eq!(Some(pd), d.distance(t));
                assert_eq!(net.path_length(&path), d.distance(t));
            }
        }
    }

    #[test]
    fn figure1_all_pairs_exact() {
        check_all_pairs(&figure1(), &ArcFlagsParams::default());
    }

    #[test]
    fn grid_all_pairs_exact() {
        check_all_pairs(&grid_graph(9, 6), &ArcFlagsParams { grid: 4 });
    }

    #[test]
    fn synthetic_random_pairs_exact() {
        let net = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(800, 23));
        let af = ArcFlags::build(&net, &ArcFlagsParams::default());
        let mut q = af.query(&net);
        let mut d = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as u64;
        let mut state = 5u64;
        for _ in 0..60 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(31);
            let s = ((state >> 33) % n) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(31);
            let t = ((state >> 33) % n) as NodeId;
            d.run_to_target(&net, s, t);
            assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
        }
    }

    #[test]
    fn pruning_shrinks_far_searches() {
        let net = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(2000, 24));
        let af = ArcFlags::build(&net, &ArcFlagsParams::default());
        assert!(af.flag_density() < 0.7, "density {}", af.flag_density());
        let mut q = af.query(&net);
        let mut d = Dijkstra::new(net.num_nodes());
        // A far pair: opposite bounding-box corners.
        let rect = net.bounding_rect();
        let corner = |x: i32, y: i32| {
            (0..net.num_nodes() as NodeId)
                .min_by_key(|&v| net.coord(v).linf(&spq_graph::geo::Point::new(x, y)))
                .unwrap()
        };
        let s = corner(rect.min_x, rect.min_y);
        let t = corner(rect.max_x, rect.max_y);
        q.distance(s, t);
        d.run_to_target(&net, s, t);
        assert!(
            q.stats.relaxed * 2 < d.stats.relaxed,
            "flags relaxed {} vs Dijkstra {}",
            q.stats.relaxed,
            d.stats.relaxed
        );
    }

    #[test]
    fn rejects_oversized_grids() {
        let g = figure1();
        let result = std::panic::catch_unwind(|| ArcFlags::build(&g, &ArcFlagsParams { grid: 9 }));
        assert!(result.is_err(), "81 regions must not fit 64 bits");
    }
}
