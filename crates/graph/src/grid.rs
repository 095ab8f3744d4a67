//! Uniform grids over the plane and over a network's vertex set.
//!
//! Both TNR (§3.3) and the paper's query generator (§4.2) start by
//! "imposing a g×g grid on the road network": the bounding rectangle is
//! split into `g × g` cells of equal side length. [`GridFrame`] performs
//! the coordinate↔cell mapping; [`VertexGrid`] additionally buckets the
//! vertices by cell for O(1) cell-membership queries and fast spatial
//! range enumeration.

use crate::csr::RoadNetwork;
use crate::geo::{Point, Rect};
use crate::size::IndexSize;
use crate::types::NodeId;

/// Cell coordinates within a grid, column `cx` and row `cy` in `0..g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Column index.
    pub cx: u32,
    /// Row index.
    pub cy: u32,
}

impl Cell {
    /// Chebyshev (L∞) distance between two cells, the quantity TNR's
    /// locality filter tests (a 5×5 inner shell means "Chebyshev ≤ 2",
    /// a 9×9 outer shell "Chebyshev ≤ 4").
    #[inline]
    pub fn chebyshev(&self, other: &Cell) -> u32 {
        let dx = self.cx.abs_diff(other.cx);
        let dy = self.cy.abs_diff(other.cy);
        dx.max(dy)
    }
}

/// The geometry of a `g × g` grid over a bounding rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct GridFrame {
    rect: Rect,
    g: u32,
    /// Cell side along x and y, in coordinate units (ceil division so the
    /// whole rectangle is covered).
    side_x: u64,
    side_y: u64,
}

impl GridFrame {
    /// Creates a `g × g` frame over `rect`. Panics if `g == 0`.
    pub fn new(rect: Rect, g: u32) -> Self {
        assert!(g > 0, "grid must have at least one cell");
        let side_x = rect.width().div_ceil(g as u64).max(1);
        let side_y = rect.height().div_ceil(g as u64).max(1);
        GridFrame {
            rect,
            g,
            side_x,
            side_y,
        }
    }

    /// Grid resolution `g`.
    #[inline]
    pub fn g(&self) -> u32 {
        self.g
    }

    /// Cell side length along x, in coordinate units.
    #[inline]
    pub fn side_x(&self) -> u64 {
        self.side_x
    }

    /// Cell side length along y.
    #[inline]
    pub fn side_y(&self) -> u64 {
        self.side_y
    }

    /// The larger of the two side lengths; the paper's query generator
    /// uses "the side length l of each grid cell" as its L∞ unit.
    #[inline]
    pub fn side(&self) -> u64 {
        self.side_x.max(self.side_y)
    }

    /// Cell containing `p`. Points outside the rectangle are clamped to
    /// the border cells (robustness for callers mixing frames).
    pub fn cell_of(&self, p: Point) -> Cell {
        let dx = (p.x as i64 - self.rect.min_x as i64).max(0) as u64;
        let dy = (p.y as i64 - self.rect.min_y as i64).max(0) as u64;
        Cell {
            cx: ((dx / self.side_x) as u32).min(self.g - 1),
            cy: ((dy / self.side_y) as u32).min(self.g - 1),
        }
    }

    /// Linear index of `cell` in row-major order.
    #[inline]
    pub fn cell_index(&self, cell: Cell) -> u32 {
        cell.cy * self.g + cell.cx
    }

    /// Inverse of [`GridFrame::cell_index`].
    #[inline]
    pub fn cell_at(&self, index: u32) -> Cell {
        Cell {
            cx: index % self.g,
            cy: index / self.g,
        }
    }

    /// Total number of cells, `g * g`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        (self.g as usize) * (self.g as usize)
    }

    /// Coordinate rectangle spanned by cells within Chebyshev distance
    /// `radius` of `cell` (the "k×k square centred at C" of §3.3: radius 2
    /// gives the 5×5 square, radius 4 the 9×9 square). The rectangle is
    /// clipped to the frame.
    pub fn square_around(&self, cell: Cell, radius: u32) -> Rect {
        let lo_cx = cell.cx.saturating_sub(radius) as u64;
        let lo_cy = cell.cy.saturating_sub(radius) as u64;
        let hi_cx = (cell.cx + radius).min(self.g - 1) as u64;
        let hi_cy = (cell.cy + radius).min(self.g - 1) as u64;
        let min_x = self.rect.min_x as i64 + (lo_cx * self.side_x) as i64;
        let min_y = self.rect.min_y as i64 + (lo_cy * self.side_y) as i64;
        let max_x = self.rect.min_x as i64 + ((hi_cx + 1) * self.side_x) as i64 - 1;
        let max_y = self.rect.min_y as i64 + ((hi_cy + 1) * self.side_y) as i64 - 1;
        Rect {
            min_x: min_x.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
            min_y: min_y.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
            max_x: max_x.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
            max_y: max_y.clamp(i32::MIN as i64, i32::MAX as i64) as i32,
        }
    }
}

/// Vertices of a road network bucketed by grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexGrid {
    frame: GridFrame,
    /// Cell of each vertex (by linear index).
    cell_of_vertex: Box<[u32]>,
    /// CSR buckets: `members[first[c] .. first[c + 1]]` are the vertices
    /// in cell `c`.
    first: Box<[u32]>,
    members: Box<[NodeId]>,
}

impl VertexGrid {
    /// Buckets the vertices of `net` on a `g × g` grid over its bounding
    /// rectangle.
    pub fn build(net: &RoadNetwork, g: u32) -> Self {
        Self::build_in(net, GridFrame::new(net.bounding_rect(), g))
    }

    /// Buckets over an explicit frame (used when several structures must
    /// share one frame).
    pub fn build_in(net: &RoadNetwork, frame: GridFrame) -> Self {
        let n = net.num_nodes();
        let num_cells = frame.num_cells();
        let mut cell_of_vertex = vec![0u32; n];
        let mut counts = vec![0u32; num_cells + 1];
        for (v, slot) in cell_of_vertex.iter_mut().enumerate() {
            let c = frame.cell_index(frame.cell_of(net.coord(v as NodeId)));
            *slot = c;
            counts[c as usize + 1] += 1;
        }
        for i in 0..num_cells {
            counts[i + 1] += counts[i];
        }
        let mut members = vec![0 as NodeId; n];
        let mut cursor = counts.clone();
        for (v, &c) in cell_of_vertex.iter().enumerate() {
            members[cursor[c as usize] as usize] = v as NodeId;
            cursor[c as usize] += 1;
        }
        VertexGrid {
            frame,
            cell_of_vertex: cell_of_vertex.into_boxed_slice(),
            first: counts.into_boxed_slice(),
            members: members.into_boxed_slice(),
        }
    }

    /// The underlying frame.
    #[inline]
    pub fn frame(&self) -> &GridFrame {
        &self.frame
    }

    /// Cell containing vertex `v`.
    #[inline]
    pub fn cell_of(&self, v: NodeId) -> Cell {
        self.frame.cell_at(self.cell_of_vertex[v as usize])
    }

    /// Linear cell index of vertex `v`.
    #[inline]
    pub fn cell_index_of(&self, v: NodeId) -> u32 {
        self.cell_of_vertex[v as usize]
    }

    /// Vertices inside the cell with linear index `c`.
    #[inline]
    pub fn vertices_in(&self, c: u32) -> &[NodeId] {
        &self.members[self.first[c as usize] as usize..self.first[c as usize + 1] as usize]
    }

    /// Iterates the linear indices of non-empty cells.
    pub fn nonempty_cells(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.frame.num_cells() as u32).filter(|&c| !self.vertices_in(c).is_empty())
    }

    /// Iterates all vertices whose cells lie within Chebyshev distance
    /// `radius` of `center`.
    pub fn vertices_within<'a>(
        &'a self,
        center: Cell,
        radius: u32,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let g = self.frame.g();
        let lo_cx = center.cx.saturating_sub(radius);
        let lo_cy = center.cy.saturating_sub(radius);
        let hi_cx = (center.cx + radius).min(g - 1);
        let hi_cy = (center.cy + radius).min(g - 1);
        (lo_cy..=hi_cy).flat_map(move |cy| {
            (lo_cx..=hi_cx).flat_map(move |cx| {
                self.vertices_in(self.frame.cell_index(Cell { cx, cy }))
                    .iter()
                    .copied()
            })
        })
    }
}

impl IndexSize for VertexGrid {
    fn index_size_bytes(&self) -> usize {
        self.cell_of_vertex.len() * 4 + self.first.len() * 4 + self.members.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::figure1;

    #[test]
    fn cells_partition_all_vertices() {
        let g = figure1();
        let grid = VertexGrid::build(&g, 4);
        let total: usize = (0..grid.frame().num_cells() as u32)
            .map(|c| grid.vertices_in(c).len())
            .sum();
        assert_eq!(total, g.num_nodes());
        for v in 0..g.num_nodes() as u32 {
            let c = grid.cell_index_of(v);
            assert!(grid.vertices_in(c).contains(&v));
        }
    }

    #[test]
    fn cell_of_respects_frame() {
        let rect = Rect::new(Point::new(0, 0), Point::new(99, 99));
        let frame = GridFrame::new(rect, 10);
        assert_eq!(frame.side_x(), 10);
        assert_eq!(frame.cell_of(Point::new(0, 0)), Cell { cx: 0, cy: 0 });
        assert_eq!(frame.cell_of(Point::new(99, 99)), Cell { cx: 9, cy: 9 });
        assert_eq!(frame.cell_of(Point::new(25, 73)), Cell { cx: 2, cy: 7 });
        // Outside points are clamped, not wrapped.
        assert_eq!(frame.cell_of(Point::new(-5, 1000)), Cell { cx: 0, cy: 9 });
    }

    #[test]
    fn cell_index_roundtrip() {
        let frame = GridFrame::new(Rect::new(Point::new(0, 0), Point::new(7, 7)), 8);
        for idx in 0..frame.num_cells() as u32 {
            assert_eq!(frame.cell_index(frame.cell_at(idx)), idx);
        }
    }

    #[test]
    fn chebyshev_distance() {
        let a = Cell { cx: 3, cy: 4 };
        assert_eq!(a.chebyshev(&Cell { cx: 3, cy: 4 }), 0);
        assert_eq!(a.chebyshev(&Cell { cx: 0, cy: 4 }), 3);
        assert_eq!(a.chebyshev(&Cell { cx: 5, cy: 9 }), 5);
    }

    #[test]
    fn square_around_matches_shell_geometry() {
        let frame = GridFrame::new(Rect::new(Point::new(0, 0), Point::new(99, 99)), 10);
        // Radius 2 around cell (5,5): cells 3..=7, coords 30..=79.
        let sq = frame.square_around(Cell { cx: 5, cy: 5 }, 2);
        assert_eq!(
            sq,
            Rect {
                min_x: 30,
                min_y: 30,
                max_x: 79,
                max_y: 79
            }
        );
        // Clipped at the border.
        let sq = frame.square_around(Cell { cx: 0, cy: 9 }, 4);
        assert_eq!(sq.min_x, 0);
        assert_eq!(sq.max_y, 99);
    }

    #[test]
    fn vertices_within_enumerates_neighbourhood() {
        let g = figure1();
        let grid = VertexGrid::build(&g, 4);
        // Radius covering the whole frame returns every vertex.
        let all = grid.vertices_within(Cell { cx: 2, cy: 2 }, 4).count();
        assert_eq!(all, g.num_nodes());
    }

    #[test]
    fn degenerate_rect_single_cell() {
        // All vertices at one point: grid must not divide by zero.
        let rect = Rect::new(Point::new(5, 5), Point::new(5, 5));
        let frame = GridFrame::new(rect, 16);
        let c = frame.cell_of(Point::new(5, 5));
        assert_eq!(c, Cell { cx: 0, cy: 0 });
    }
}
