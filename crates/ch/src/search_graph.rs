//! The flattened, rank-renumbered CH search graph — the one
//! representation of a contraction hierarchy, in memory and on disk.
//!
//! Vertices are renumbered by contraction rank (vertex `r` is the one
//! contracted `r`-th). The upward search of §3.2 spends its time on the
//! few thousand most important vertices; under rank ids those sit
//! together at the top of every array instead of being scattered over
//! the original id space.
//!
//! Three sections *are* the hierarchy (they are what `SPQC` stores):
//!
//! * `rank` — original id → rank;
//! * `up_first` / `up` — a CSR of interleaved 12-byte [`SearchEdge`]
//!   records: for each rank its upward edges, targets strictly ascending
//!   (so at most one record per pair), shared by both directions of the
//!   bidirectional search (the network is undirected). A shortcut `a → b`
//!   tagged `m` is unpacked from `up(m)` itself: `m` was contracted
//!   before both endpoints, so both halves are upward edges *of `m`* —
//!   a scan of one short list, usually one cache line.
//!
//! One more is derived from them by `SearchGraph::from_sections`:
//! `node`, the inverse permutation (original ids appear only at the
//! boundary — [`SearchGraph::rank_of`] on the way in,
//! [`SearchGraph::orig_of`] when a path is emitted). Nothing else is
//! held: in memory the hierarchy is its container's sections plus
//! `node`, because every client reads upward edges only (a network
//! range is a bounded Dijkstra over the road network, not a hierarchy
//! query).
//!
//! `from_sections` is the only constructor and the only validator:
//! contraction and [`read_binary`](crate::ContractionHierarchy::read_binary)
//! both go through it, so a `SearchGraph` that exists can be searched and
//! unpacked without a bounds failure or a missing shortcut half.

use spq_graph::size::IndexSize;
use spq_graph::types::{NodeId, Weight};

/// "Not a shortcut" marker in [`SearchEdge::middle`].
pub const NO_MIDDLE: u32 = u32::MAX;

/// One interleaved edge record of the flattened search graph. All fields
/// are in rank space; 12 bytes, so a 64-byte cache line holds five and a
/// typical upward adjacency (3–5 edges) is a single-line scan.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchEdge {
    /// Rank of the upper endpoint.
    pub target: u32,
    /// Edge weight.
    pub weight: Weight,
    /// Rank of the contracted vertex this shortcut replaces, or
    /// [`NO_MIDDLE`] for an original road edge.
    pub middle: u32,
}

impl SearchEdge {
    /// The record's 12 little-endian bytes: `target, weight, middle`.
    pub(crate) fn to_le(self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[..4].copy_from_slice(&self.target.to_le_bytes());
        out[4..8].copy_from_slice(&self.weight.to_le_bytes());
        out[8..].copy_from_slice(&self.middle.to_le_bytes());
        out
    }

    /// Inverse of [`SearchEdge::to_le`].
    pub(crate) fn from_le(b: [u8; 12]) -> SearchEdge {
        let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        SearchEdge {
            target: word(0),
            weight: word(4),
            middle: word(8),
        }
    }
}

/// The record of `list` (one vertex's upward edges) that leads to
/// `target`. Shortcut unpacking's only search primitive: both halves of
/// a shortcut tagged `m` are found in `up(m)`.
#[inline]
pub(crate) fn edge_to(list: &[SearchEdge], target: u32) -> Option<&SearchEdge> {
    // Targets are unique and the lists short: a scan without an early
    // exit selects instead of branching on every record.
    list.iter().fold(
        None,
        |found, e| if e.target == target { Some(e) } else { found },
    )
}

/// The rank-renumbered flat search graph. Immutable once assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchGraph {
    /// Original id → rank.
    rank: Box<[u32]>,
    /// Rank → original id (inverse permutation of `rank`).
    node: Box<[NodeId]>,
    up_first: Box<[u32]>,
    up: Box<[SearchEdge]>,
}

impl SearchGraph {
    /// Assembles the graph from its three stored sections — as emitted
    /// by contraction or read from an `SPQC` container — checking every
    /// invariant the kernels rely on and deriving `node`:
    ///
    /// * `rank` is a permutation and `up_first` a CSR over `up`;
    /// * each list's targets ascend strictly and lie above their source;
    /// * every shortcut `a → b` tagged `m` has `m < a`, both halves in
    ///   `up(m)`, and their weights sum to the shortcut's.
    pub(crate) fn from_sections(
        rank: Vec<u32>,
        up_first: Vec<u32>,
        up: Vec<SearchEdge>,
    ) -> Result<SearchGraph, String> {
        let n = rank.len();
        if up_first.len() != n + 1 {
            return Err("up_first length must be n + 1".into());
        }
        if up_first[0] != 0 || up_first[n] as usize != up.len() {
            return Err("up_first does not span the edge section".into());
        }
        if up_first.windows(2).any(|w| w[0] > w[1]) {
            return Err("up_first must be non-decreasing".into());
        }
        let mut node = vec![NodeId::MAX; n];
        for (v, &r) in rank.iter().enumerate() {
            match node.get_mut(r as usize) {
                Some(slot) if *slot == NodeId::MAX => *slot = v as NodeId,
                _ => return Err("rank is not a permutation".into()),
            }
        }

        let up_of = |r: usize| &up[up_first[r] as usize..up_first[r + 1] as usize];
        for a in 0..n {
            let mut above = a as u32;
            for e in up_of(a) {
                if e.target <= above {
                    return Err(format!(
                        "upward targets of rank {a} must ascend strictly above it"
                    ));
                }
                above = e.target;
                if e.target as usize >= n {
                    return Err(format!("upward target {} out of range", e.target));
                }
                if e.middle == NO_MIDDLE {
                    continue;
                }
                if e.middle as usize >= a {
                    return Err(format!(
                        "shortcut {a} -> {} is tagged {}, not a vertex below it",
                        e.target, e.middle
                    ));
                }
                let halves = up_of(e.middle as usize);
                let (Some(h1), Some(h2)) = (edge_to(halves, a as u32), edge_to(halves, e.target))
                else {
                    return Err(format!(
                        "shortcut {a} -> {} tagged {}: half missing from the tag's upward edges",
                        e.target, e.middle
                    ));
                };
                if h1.weight as u64 + h2.weight as u64 != e.weight as u64 {
                    return Err(format!(
                        "shortcut {a} -> {} tagged {}: halves weigh {} + {}, not {}",
                        e.target, e.middle, h1.weight, h2.weight, e.weight
                    ));
                }
            }
        }

        Ok(SearchGraph {
            rank: rank.into_boxed_slice(),
            node: node.into_boxed_slice(),
            up_first: up_first.into_boxed_slice(),
            up: up.into_boxed_slice(),
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node.len()
    }

    /// Number of upward edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.up.len()
    }

    /// Rank of original vertex `v`.
    #[inline]
    pub fn rank_of(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// Original id of the vertex at rank `r`.
    #[inline]
    pub fn orig_of(&self, r: u32) -> NodeId {
        self.node[r as usize]
    }

    /// Upward edges of the vertex at rank `r` (targets ascend strictly,
    /// all `> r`).
    #[inline]
    pub fn up(&self, r: u32) -> &[SearchEdge] {
        &self.up[self.up_first[r as usize] as usize..self.up_first[r as usize + 1] as usize]
    }

    /// The stored sections, as `SearchGraph::from_sections` takes
    /// them: `(rank, up_first, up)`.
    pub(crate) fn sections(&self) -> (&[u32], &[u32], &[SearchEdge]) {
        (&self.rank, &self.up_first, &self.up)
    }
}

impl IndexSize for SearchGraph {
    fn index_size_bytes(&self) -> usize {
        self.rank.len() * 4
            + self.node.len() * 4
            + self.up_first.len() * 4
            + self.up.len() * std::mem::size_of::<SearchEdge>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contraction::ContractionHierarchy;
    use spq_graph::toy::{figure1, grid_graph};

    #[test]
    fn records_are_twelve_bytes() {
        assert_eq!(std::mem::size_of::<SearchEdge>(), 12);
        let e = SearchEdge {
            target: 0x0403_0201,
            weight: 7,
            middle: NO_MIDDLE,
        };
        assert_eq!(e.to_le(), [1, 2, 3, 4, 7, 0, 0, 0, 255, 255, 255, 255]);
        assert_eq!(SearchEdge::from_le(e.to_le()), e);
    }

    #[test]
    fn permutations_are_inverse() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let sg = ch.search_graph();
        assert_eq!(sg.num_nodes(), 8);
        assert_eq!(sg.num_edges(), ch.num_upward_edges());
        for v in 0..8u32 {
            assert_eq!(sg.orig_of(sg.rank_of(v)), v);
        }
    }

    /// The resident hierarchy is its container's sections plus the
    /// inverse permutation: `rank` and the `n + 1` offsets, one 12-byte
    /// record per upward edge, and `node`.
    #[test]
    fn resident_hierarchy_is_its_container_plus_node() {
        for g in [figure1(), grid_graph(5, 9)] {
            let ch = ContractionHierarchy::build(&g);
            let sg = ch.search_graph();
            let (n, m) = (sg.num_nodes(), sg.num_edges());
            let container = 4 * (2 * n + 1) + 12 * m;
            assert_eq!(sg.index_size_bytes(), container + 4 * n);
        }
    }

    /// The shape checks a checksummed container cannot reach one at a
    /// time (the forged-hierarchy cases live with the container tests in
    /// `persist.rs`): section lengths, an out-of-range target, and a tag
    /// that does not lie below its shortcut.
    #[test]
    fn from_sections_refuses_malformed_sections() {
        let g = grid_graph(5, 5);
        let ch = ContractionHierarchy::build(&g);
        let (rank, up_first, up) = ch.search_graph().sections();
        let reason = |rank: &[u32], up_first: &[u32], up: &[SearchEdge]| {
            SearchGraph::from_sections(rank.to_vec(), up_first.to_vec(), up.to_vec())
                .expect_err("must be refused")
        };
        assert!(SearchGraph::from_sections(rank.to_vec(), up_first.to_vec(), up.to_vec()).is_ok());

        let mut bad = rank.to_vec();
        bad[3] = 25;
        assert!(reason(&bad, up_first, up).contains("permutation"));
        assert!(reason(rank, &up_first[1..], up).contains("n + 1"));
        let mut bad = up_first.to_vec();
        *bad.last_mut().unwrap() += 1;
        assert!(reason(rank, &bad, up).contains("span"));

        let mut bad = up.to_vec();
        bad.last_mut().unwrap().target = 25;
        assert!(reason(rank, up_first, &bad).contains("out of range"));
        let shortcut = up
            .iter()
            .position(|e| e.middle != NO_MIDDLE)
            .expect("a grid needs shortcuts");
        let mut bad = up.to_vec();
        bad[shortcut].middle = 24;
        assert!(reason(rank, up_first, &bad).contains("below"));
    }
}
