//! The TNR index: grid, access-node sets, and the two distance tables.

use spq_ch::{ContractionHierarchy, ManyToMany};
use spq_dijkstra::Dijkstra;
use spq_graph::grid::VertexGrid;
use spq_graph::par;
use spq_graph::size::IndexSize;
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;

use crate::access::{access_nodes_of_cell, shells_of, AccessNodeStrategy};
use crate::query::TnrQuery;

/// Sentinel inside the packed `u32` distance tables.
pub(crate) const TABLE_INF: u32 = u32::MAX;

/// Which auxiliary technique answers the local queries TNR cannot
/// (paper §4.1 and Appendix E.1 compare both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fallback {
    /// Contraction Hierarchies — the combination the paper recommends.
    #[default]
    Ch,
    /// Plain bidirectional Dijkstra.
    BiDijkstra,
}

/// TNR tuning parameters.
///
/// The defaults are the 1/40-scale equivalent of the paper's preferred
/// configuration (a 128×128 grid with 5×5 inner and 9×9 outer shells):
/// a 32×32 grid whose inner shell is the cell boundary and whose outer
/// shell is the surrounding 3×3 square. This keeps the *absolute* shell
/// geometry (extent/32-sized outer shells) and the Q6/Q7 locality-filter
/// crossover of the paper while the per-dataset vertex counts are 40×
/// smaller. Passing `grid: 128, inner_radius: 2, outer_radius: 4`
/// restores the paper's literal values for full-size DIMACS data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TnrParams {
    /// Grid resolution `g` (the paper evaluates 128 and 256; 128 wins).
    pub grid: u32,
    /// Inner-shell radius in cells (2 = the paper's 5×5 square).
    pub inner_radius: u32,
    /// Outer-shell radius in cells (4 = the paper's 9×9 square).
    pub outer_radius: u32,
    /// Auxiliary technique for local queries.
    pub fallback: Fallback,
    /// Access-node algorithm (default: the paper's corrected method).
    pub access: AccessNodeStrategy,
}

impl Default for TnrParams {
    fn default() -> Self {
        TnrParams {
            grid: 32,
            inner_radius: 0,
            outer_radius: 1,
            fallback: Fallback::Ch,
            access: AccessNodeStrategy::Correct,
        }
    }
}

/// Per-grid access-node structure: the cell → access-node lists plus
/// `I2`, the vertex → own-cell access-node distances. Shared by the
/// plain index (which adds the full pairwise table `I1`) and the hybrid
/// two-grid index of Appendix E.1 (which adds a sparse one).
#[derive(Debug, PartialEq)]
pub(crate) struct AccessIndex {
    pub grid: VertexGrid,
    /// Global deduplicated access-node vertex ids.
    pub access_list: Vec<NodeId>,
    /// Per-cell CSR of global access indices.
    pub cell_first: Vec<u32>,
    pub cell_access: Vec<u32>,
    /// `I2` CSR parallel to the vertex's cell list.
    pub vertex_first: Vec<u32>,
    pub vertex_access_dist: Vec<u32>,
}

impl AccessIndex {
    pub fn build(
        net: &RoadNetwork,
        ch: &ContractionHierarchy,
        grid: VertexGrid,
        inner_radius: u32,
        outer_radius: u32,
        strategy: AccessNodeStrategy,
    ) -> Self {
        let num_cells = grid.frame().num_cells();

        // Phase 1: access nodes per cell — one shortest-path tree per
        // cell vertex, independent across cells, so cells fan out over
        // the worker pool with one Dijkstra workspace each.
        let mut per_cell: Vec<Vec<NodeId>> = vec![Vec::new(); num_cells];
        let nonempty: Vec<u32> = grid.nonempty_cells().collect();
        let computed = par::par_map(
            &nonempty,
            || Dijkstra::new(net.num_nodes()),
            |dijkstra, &c| {
                let shells = shells_of(&grid, c, inner_radius, outer_radius);
                access_nodes_of_cell(net, &grid, c, &shells, strategy, outer_radius, dijkstra).nodes
            },
        );
        for (&c, nodes) in nonempty.iter().zip(computed) {
            per_cell[c as usize] = nodes;
        }

        // Phase 2: global deduplication.
        let mut access_list: Vec<NodeId> = per_cell.iter().flatten().copied().collect();
        access_list.sort_unstable();
        access_list.dedup();
        let mut cell_first = vec![0u32; num_cells + 1];
        for c in 0..num_cells {
            cell_first[c + 1] = cell_first[c] + per_cell[c].len() as u32;
        }
        let mut cell_access = Vec::with_capacity(cell_first[num_cells] as usize);
        for nodes in &per_cell {
            cell_access.extend(nodes.iter().map(|&v| {
                access_list
                    .binary_search(&v)
                    .expect("access node is listed") as u32
            }));
        }

        // Phase 3: I2 — one CH many-to-many per cell.
        let n = net.num_nodes();
        let mut vertex_first = vec![0u32; n + 1];
        for v in 0..n {
            let c = grid.cell_index_of(v as NodeId) as usize;
            vertex_first[v + 1] = vertex_first[v] + per_cell[c].len() as u32;
        }
        let mut vertex_access_dist = vec![TABLE_INF; vertex_first[n] as usize];
        let tables = par::par_map(
            &nonempty,
            || ManyToMany::new(ch),
            |m2m, &c| {
                let targets = &per_cell[c as usize];
                if targets.is_empty() {
                    return Vec::new();
                }
                m2m.table(grid.vertices_in(c), targets)
            },
        );
        for (&c, t) in nonempty.iter().zip(tables) {
            let targets = &per_cell[c as usize];
            if targets.is_empty() {
                continue;
            }
            let sources = grid.vertices_in(c);
            for (i, &v) in sources.iter().enumerate() {
                let base = vertex_first[v as usize] as usize;
                for j in 0..targets.len() {
                    vertex_access_dist[base + j] = pack(t[i * targets.len() + j]);
                }
            }
        }

        AccessIndex {
            grid,
            access_list,
            cell_first,
            cell_access,
            vertex_first,
            vertex_access_dist,
        }
    }

    /// Global access indices of cell `c`.
    #[inline]
    pub fn cell_access_of(&self, c: u32) -> &[u32] {
        &self.cell_access
            [self.cell_first[c as usize] as usize..self.cell_first[c as usize + 1] as usize]
    }

    /// Distances from `v` to its cell's access nodes.
    #[inline]
    pub fn vertex_access_dists(&self, v: NodeId) -> &[u32] {
        &self.vertex_access_dist
            [self.vertex_first[v as usize] as usize..self.vertex_first[v as usize + 1] as usize]
    }

    pub fn size_bytes(&self) -> usize {
        self.access_list.len() * 4
            + self.cell_first.len() * 4
            + self.cell_access.len() * 4
            + self.vertex_first.len() * 4
            + self.vertex_access_dist.len() * 4
            + self.grid.index_size_bytes()
    }
}

/// The frozen TNR index (paper §3.3).
///
/// Consists of: the vertex grid; per-cell access-node lists (indices into
/// a deduplicated global access-node array); `I2`, the distances from
/// each vertex to the access nodes of its own cell; and `I1`, the
/// pairwise distance table over all access nodes. A contraction
/// hierarchy is always built (it accelerates preprocessing, §4.1) and is
/// retained when it also serves as the query fallback.
#[derive(Debug, PartialEq)]
pub struct Tnr {
    pub(crate) net_nodes: usize,
    pub(crate) params: TnrParams,
    pub(crate) access: AccessIndex,
    pub(crate) ch: ContractionHierarchy,
    /// `I1`: row-major pairwise distances between global access nodes.
    pub(crate) table: Vec<u32>,
}

impl Tnr {
    /// Preprocesses `net` with default parameters.
    pub fn build_default(net: &RoadNetwork) -> Self {
        Self::build(net, &TnrParams::default())
    }

    /// Preprocesses `net`.
    pub fn build(net: &RoadNetwork, params: &TnrParams) -> Self {
        let ch = ContractionHierarchy::build(net);
        Self::build_with_ch(net, params, ch)
    }

    /// Preprocesses `net` reusing an existing hierarchy (the hybrid-grid
    /// variant builds several indexes over one CH).
    pub fn build_with_ch(net: &RoadNetwork, params: &TnrParams, ch: ContractionHierarchy) -> Self {
        assert!(
            params.inner_radius < params.outer_radius,
            "inner shell must nest inside outer shell"
        );
        let grid = VertexGrid::build(net, params.grid);
        let access = AccessIndex::build(
            net,
            &ch,
            grid,
            params.inner_radius,
            params.outer_radius,
            params.access,
        );

        // I1 — pairwise distances between all access nodes. Both bucket
        // phases fan out across the worker pool (access-node counts run
        // into the thousands on paper-scale networks).
        let table = if access.access_list.is_empty() {
            Vec::new()
        } else {
            spq_ch::par_table(&ch, &access.access_list, &access.access_list)
                .into_iter()
                .map(pack)
                .collect()
        };

        Tnr {
            net_nodes: net.num_nodes(),
            params: *params,
            access,
            ch,
            table,
        }
    }

    /// The parameters this index was built with.
    pub fn params(&self) -> &TnrParams {
        &self.params
    }

    /// The hierarchy built during preprocessing.
    pub fn hierarchy(&self) -> &ContractionHierarchy {
        &self.ch
    }

    /// The vertex grid.
    pub fn grid(&self) -> &VertexGrid {
        &self.access.grid
    }

    /// Number of distinct access nodes.
    pub fn num_access_nodes(&self) -> usize {
        self.access.access_list.len()
    }

    /// Average access nodes per non-empty cell (the paper observes ≈10).
    pub fn avg_access_per_cell(&self) -> f64 {
        let nonempty = self.access.grid.nonempty_cells().count();
        if nonempty == 0 {
            return 0.0;
        }
        self.access.cell_access.len() as f64 / nonempty as f64
    }

    /// Table distance between global access indices.
    #[inline]
    pub(crate) fn access_pair_dist(&self, a: u32, b: u32) -> Dist {
        unpack(self.table[a as usize * self.access.access_list.len() + b as usize])
    }

    /// Whether the pre-computed information can answer a *distance*
    /// query between these cells: the target must lie beyond the source
    /// cell's outer shell (§3.3), i.e. Chebyshev cell distance strictly
    /// above the outer radius.
    #[inline]
    pub fn distance_applicable(&self, s: NodeId, t: NodeId) -> bool {
        let cs = self.access.grid.cell_of(s);
        let ct = self.access.grid.cell_of(t);
        cs.chebyshev(&ct) > self.params.outer_radius
    }

    /// Whether the pre-computed information can drive *shortest-path*
    /// retrieval: the paper requires the two outer shells to be disjoint.
    #[inline]
    pub fn path_applicable(&self, s: NodeId, t: NodeId) -> bool {
        let cs = self.access.grid.cell_of(s);
        let ct = self.access.grid.cell_of(t);
        cs.chebyshev(&ct) > 2 * self.params.outer_radius
    }

    /// Creates a query workspace.
    pub fn query(&self) -> TnrQuery<'_> {
        TnrQuery::new(self)
    }
}

#[inline]
pub(crate) fn pack(d: Dist) -> u32 {
    if d >= INFINITY {
        TABLE_INF
    } else {
        u32::try_from(d).expect("distances fit u32 on road networks")
    }
}

#[inline]
pub(crate) fn unpack(d: u32) -> Dist {
    if d == TABLE_INF {
        INFINITY
    } else {
        d as Dist
    }
}

impl IndexSize for Tnr {
    fn index_size_bytes(&self) -> usize {
        let own = self.access.size_bytes() + self.table.len() * 4;
        // The hierarchy is part of the shipped index when it serves as
        // the fallback (the configuration the paper reports); with plain
        // bidirectional Dijkstra fallback the CH is preprocessing-only.
        match self.params.fallback {
            Fallback::Ch => own + self.ch.index_size_bytes(),
            Fallback::BiDijkstra => own,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_synth::SynthParams;

    fn small_net() -> RoadNetwork {
        spq_synth::generate(&SynthParams::with_target_vertices(700, 21))
    }

    #[test]
    fn build_produces_access_structure() {
        let net = small_net();
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 16,
                ..TnrParams::default()
            },
        );
        assert!(tnr.num_access_nodes() > 0);
        assert!(tnr.avg_access_per_cell() < 64.0);
        for v in 0..net.num_nodes() as NodeId {
            let c = tnr.access.grid.cell_index_of(v);
            assert_eq!(
                tnr.access.vertex_access_dists(v).len(),
                tnr.access.cell_access_of(c).len()
            );
        }
    }

    #[test]
    fn i2_distances_are_exact() {
        let net = small_net();
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 16,
                ..TnrParams::default()
            },
        );
        let mut d = Dijkstra::new(net.num_nodes());
        for v in (0..net.num_nodes() as NodeId).step_by(97) {
            d.run(&net, v);
            let c = tnr.access.grid.cell_index_of(v);
            for (k, &ai) in tnr.access.cell_access_of(c).iter().enumerate() {
                let a = tnr.access.access_list[ai as usize];
                assert_eq!(
                    unpack(tnr.access.vertex_access_dists(v)[k]),
                    d.distance(a).unwrap(),
                    "I2({v}, {a})"
                );
            }
        }
    }

    #[test]
    fn i1_distances_are_exact() {
        let net = small_net();
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 16,
                ..TnrParams::default()
            },
        );
        let mut d = Dijkstra::new(net.num_nodes());
        let a = tnr.num_access_nodes();
        for i in (0..a).step_by(11.max(a / 8)) {
            d.run(&net, tnr.access.access_list[i]);
            for j in 0..a {
                assert_eq!(
                    tnr.access_pair_dist(i as u32, j as u32),
                    d.distance(tnr.access.access_list[j]).unwrap(),
                    "I1({i},{j})"
                );
            }
        }
    }

    #[test]
    fn applicability_follows_chebyshev() {
        let net = small_net();
        let params = TnrParams {
            grid: 16,
            inner_radius: 2,
            outer_radius: 4,
            ..TnrParams::default()
        };
        let tnr = Tnr::build(&net, &params);
        for s in (0..net.num_nodes() as NodeId).step_by(53) {
            for t in (0..net.num_nodes() as NodeId).step_by(71) {
                let cheb = tnr
                    .access
                    .grid
                    .cell_of(s)
                    .chebyshev(&tnr.access.grid.cell_of(t));
                assert_eq!(tnr.distance_applicable(s, t), cheb > params.outer_radius);
                assert_eq!(tnr.path_applicable(s, t), cheb > 2 * params.outer_radius);
            }
        }
    }

    #[test]
    fn finer_grid_costs_more_space() {
        let net = small_net();
        let coarse = Tnr::build(
            &net,
            &TnrParams {
                grid: 8,
                ..TnrParams::default()
            },
        );
        let fine = Tnr::build(
            &net,
            &TnrParams {
                grid: 16,
                ..TnrParams::default()
            },
        );
        assert!(
            fine.index_size_bytes() > coarse.index_size_bytes(),
            "fine {} vs coarse {}",
            fine.index_size_bytes(),
            coarse.index_size_bytes()
        );
    }

    #[test]
    fn pack_unpack_roundtrip() {
        assert_eq!(unpack(pack(0)), 0);
        assert_eq!(unpack(pack(123_456)), 123_456);
        assert_eq!(unpack(pack(INFINITY)), INFINITY);
    }
}
