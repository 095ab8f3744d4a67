//! SILC preprocessing: colouring + quadtree compression.

use spq_dijkstra::Dijkstra;
use spq_graph::geo::morton;
use spq_graph::par;
use spq_graph::size::IndexSize;
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;

/// Colour values are indices into a vertex's adjacency block; road
/// networks are degree-bounded (paper §2) far below 255.
pub(crate) const NO_COLOR: u8 = u8::MAX;

/// The frozen SILC index.
#[derive(Debug, Clone, PartialEq)]
pub struct Silc {
    /// Morton code of each vertex (coordinates normalised to u32).
    node_code: Vec<u64>,
    /// Per-source CSR over compressed colour blocks.
    block_first: Vec<u32>,
    /// Morton start code of each block (sorted within a source's slice).
    block_code: Vec<u64>,
    /// First-hop colour of each block.
    block_color: Vec<u8>,
    /// Rare per-node exceptions `(source-relative sorted (node, colour))`
    /// for vertices sharing one coordinate but not one colour.
    exc_first: Vec<u32>,
    exc_node: Vec<NodeId>,
    exc_color: Vec<u8>,
}

impl Silc {
    /// Preprocesses `net`: n Dijkstra traversals, one per source, each
    /// followed by quadtree compression of the resulting colouring. This
    /// is the all-pairs cost the paper highlights in Figure 6(b); the
    /// per-source trees are independent, so sources fan out over the
    /// preprocessing worker pool ([`spq_graph::par`]) with one Dijkstra
    /// and colour buffer per worker, and the per-source results are
    /// concatenated in source order — byte-identical to a sequential
    /// build.
    pub fn build(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        let rect = net.bounding_rect();
        let node_code: Vec<u64> = (0..n as NodeId)
            .map(|v| {
                let p = net.coord(v);
                morton::encode(
                    (p.x as i64 - rect.min_x as i64) as u32,
                    (p.y as i64 - rect.min_y as i64) as u32,
                )
            })
            .collect();
        // Vertices in Morton order; ties (equal coordinates) grouped.
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_unstable_by_key(|&v| node_code[v as usize]);
        let sorted_codes: Vec<u64> = order.iter().map(|&v| node_code[v as usize]).collect();

        // One compressed colouring per source, in parallel.
        let per_source = par::par_map_index(
            n,
            || (Dijkstra::new(n), vec![NO_COLOR; n]),
            |(dijkstra, colors), v| {
                let v = v as NodeId;
                dijkstra.run(net, v);
                // Colour every vertex by the adjacency index of its
                // first hop.
                for u in 0..n as NodeId {
                    colors[u as usize] = match dijkstra.first_hop(u) {
                        Some(h) => neighbor_index(net, v, h),
                        None => NO_COLOR, // u == v
                    };
                }
                let mut block_code = Vec::new();
                let mut block_color = Vec::new();
                let mut exc_node = Vec::new();
                let mut exc_color = Vec::new();
                compress(
                    &order,
                    &sorted_codes,
                    colors,
                    &mut block_code,
                    &mut block_color,
                    &mut exc_node,
                    &mut exc_color,
                );
                // The DFS emits blocks out of order; each source's slice
                // must be sorted by start code for the predecessor search.
                sort_parallel(&mut block_code, &mut block_color);
                sort_parallel(&mut exc_node, &mut exc_color);
                (block_code, block_color, exc_node, exc_color)
            },
        );

        // Concatenate in source order.
        let mut block_first = vec![0u32; n + 1];
        let mut block_code = Vec::new();
        let mut block_color = Vec::new();
        let mut exc_first = vec![0u32; n + 1];
        let mut exc_node = Vec::new();
        let mut exc_color = Vec::new();
        for (v, (codes, colors_v, excn, excc)) in per_source.into_iter().enumerate() {
            block_code.extend_from_slice(&codes);
            block_color.extend_from_slice(&colors_v);
            exc_node.extend_from_slice(&excn);
            exc_color.extend_from_slice(&excc);
            block_first[v + 1] = block_code.len() as u32;
            exc_first[v + 1] = exc_node.len() as u32;
        }

        Silc {
            node_code,
            block_first,
            block_code,
            block_color,
            exc_first,
            exc_node,
            exc_color,
        }
    }

    /// Number of vertices indexed.
    pub fn num_nodes(&self) -> usize {
        self.node_code.len()
    }

    /// Total compressed blocks over all sources (the paper's O(n√n)).
    pub fn num_blocks(&self) -> usize {
        self.block_code.len()
    }

    /// Average blocks per source.
    pub fn avg_blocks_per_source(&self) -> f64 {
        self.num_blocks() as f64 / self.num_nodes().max(1) as f64
    }

    /// The first-hop colour of `target` in `source`'s table.
    #[inline]
    pub(crate) fn color_of(&self, source: NodeId, target: NodeId) -> u8 {
        // Exceptions first (usually an empty slice).
        let elo = self.exc_first[source as usize] as usize;
        let ehi = self.exc_first[source as usize + 1] as usize;
        if elo != ehi {
            if let Ok(k) = self.exc_node[elo..ehi].binary_search(&target) {
                return self.exc_color[elo + k];
            }
        }
        let lo = self.block_first[source as usize] as usize;
        let hi = self.block_first[source as usize + 1] as usize;
        let code = self.node_code[target as usize];
        let blocks = &self.block_code[lo..hi];
        let idx = match blocks.binary_search(&code) {
            Ok(k) => k,
            Err(0) => 0, // target below the first block cannot happen
            Err(k) => k - 1,
        };
        self.block_color[lo + idx]
    }

    /// Creates a query workspace bound to the network the index was
    /// built from.
    pub fn query<'a>(&'a self, net: &'a RoadNetwork) -> crate::query::SilcQuery<'a> {
        crate::query::SilcQuery::new(self, net)
    }
}

/// Sorts two parallel slices by the key slice.
fn sort_parallel<K: Copy + Ord>(keys: &mut [K], vals: &mut [u8]) {
    let mut zipped: Vec<(K, u8)> = keys.iter().copied().zip(vals.iter().copied()).collect();
    zipped.sort_unstable_by_key(|&(k, _)| k);
    for (i, (k, c)) in zipped.into_iter().enumerate() {
        keys[i] = k;
        vals[i] = c;
    }
}

/// Adjacency index of neighbour `h` of `v`.
#[inline]
fn neighbor_index(net: &RoadNetwork, v: NodeId, h: NodeId) -> u8 {
    for (i, (to, _)) in net.neighbors(v).enumerate() {
        if to == h {
            debug_assert!(i < NO_COLOR as usize);
            return i as u8;
        }
    }
    unreachable!("first hop is a neighbour of the source")
}

/// Compresses one source's colouring into maximal uniform quad blocks
/// (appended to the output vectors). Vertices with `NO_COLOR` (the
/// source itself) are ignored. Same-coordinate colour conflicts become
/// per-node exceptions.
fn compress(
    order: &[NodeId],
    sorted_codes: &[u64],
    colors: &[u8],
    block_code: &mut Vec<u64>,
    block_color: &mut Vec<u8>,
    exc_node: &mut Vec<NodeId>,
    exc_color: &mut Vec<u8>,
) {
    // Iterative stack of (range_lo, range_hi, prefix_code, level) where
    // level = number of *remaining* bit pairs below this block. The root
    // block covers the whole 64-bit Morton space.
    let mut stack: Vec<(usize, usize, u64, u32)> = vec![(0, order.len(), 0, 32)];
    while let Some((lo, hi, prefix, level)) = stack.pop() {
        // Find the uniform colour, skipping NO_COLOR entries.
        let mut uniform: Option<u8> = None;
        let mut mixed = false;
        for i in lo..hi {
            let c = colors[order[i] as usize];
            if c == NO_COLOR {
                continue;
            }
            match uniform {
                None => uniform = Some(c),
                Some(u) if u == c => {}
                Some(_) => {
                    mixed = true;
                    break;
                }
            }
        }
        let Some(first_color) = uniform else {
            continue; // empty block (or only the source)
        };
        if !mixed {
            block_code.push(prefix);
            block_color.push(first_color);
            continue;
        }
        if level == 0 {
            // All vertices share one exact coordinate but not one colour:
            // store exceptions (sorted by node id below).
            let mut entries: Vec<(NodeId, u8)> = (lo..hi)
                .filter(|&i| colors[order[i] as usize] != NO_COLOR)
                .map(|i| (order[i], colors[order[i] as usize]))
                .collect();
            entries.sort_unstable();
            // Also emit a block so the pred-search finds *something*
            // for codes equal to this one (exceptions take precedence).
            block_code.push(prefix);
            block_color.push(first_color);
            for (node, c) in entries {
                exc_node.push(node);
                exc_color.push(c);
            }
            continue;
        }
        // Split into the four children in Morton order.
        let child_span = 2 * (level - 1);
        let mut start = lo;
        for q in 0..4u64 {
            let child_prefix = prefix | (q << child_span);
            let child_end_code = if q == 3 {
                // Upper bound of the last child = upper bound of parent.
                prefix.wrapping_add(1u64.checked_shl(2 * level).unwrap_or(0).wrapping_sub(1))
            } else {
                child_prefix + ((1u64 << child_span) - 1)
            };
            // Advance to the end of this child's range.
            let end = start + sorted_codes[start..hi].partition_point(|&c| c <= child_end_code);
            if end > start {
                stack.push((start, end, child_prefix, level - 1));
            }
            start = end;
        }
        debug_assert_eq!(start, hi);
    }
    // Blocks were pushed in stack order; each source's slice must be
    // sorted by code for binary search.
    // (Sorting here keeps the caller simple; slices are small.)
}

impl IndexSize for Silc {
    fn index_size_bytes(&self) -> usize {
        self.node_code.len() * 8
            + self.block_first.len() * 4
            + self.block_code.len() * 8
            + self.block_color.len()
            + self.exc_first.len() * 4
            + self.exc_node.len() * 4
            + self.exc_color.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::figure1;

    #[test]
    fn figure4_partition_of_v8() {
        // §3.4: from v8 the paths to v4..v7 pass through v6, the paths to
        // v1 and v3 through v1, and v2 is its own class — 3 classes.
        let g = figure1();
        let silc = Silc::build(&g);
        let q8 = |t: NodeId| silc.color_of(7, t);
        // Colours map to adjacency indices of v8; recover neighbours.
        let neigh: Vec<NodeId> = g.neighbors(7).map(|(v, _)| v).collect();
        assert_eq!(neigh[q8(0) as usize], 0, "v1 via v1");
        assert_eq!(neigh[q8(2) as usize], 0, "v3 via v1");
        assert_eq!(neigh[q8(1) as usize], 1, "v2 via itself");
        for t in [3u32, 4, 5, 6] {
            assert_eq!(neigh[q8(t) as usize], 5, "v{} via v6", t + 1);
        }
    }

    #[test]
    fn blocks_are_sorted_per_source() {
        let g = figure1();
        let silc = Silc::build(&g);
        for v in 0..8 {
            let lo = silc.block_first[v] as usize;
            let hi = silc.block_first[v + 1] as usize;
            let s = &silc.block_code[lo..hi];
            assert!(s.windows(2).all(|w| w[0] < w[1]), "source {v}: {s:?}");
        }
    }

    #[test]
    fn compression_beats_explicit_listing_on_coherent_networks() {
        let g = spq_graph::toy::grid_graph(20, 20);
        let silc = Silc::build(&g);
        // 400 sources x 399 targets explicit = 159,600 entries; the
        // compressed form must be far below that.
        assert!(silc.num_blocks() < 40_000, "blocks = {}", silc.num_blocks());
        assert!(silc.avg_blocks_per_source() < 100.0);
    }

    #[test]
    fn duplicate_coordinates_fall_back_to_exceptions() {
        use spq_graph::geo::Point;
        use spq_graph::GraphBuilder;
        // Two vertices at the same point whose first hops from source 0
        // differ: 1 and 2 both at (5,5); path 0->1 direct, 0->2 direct.
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(5, 5));
        b.add_node(Point::new(5, 5));
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        let g = b.build().unwrap();
        let silc = Silc::build(&g);
        // Colours must still be exact.
        assert_ne!(silc.color_of(0, 1), silc.color_of(0, 2));
        let neigh: Vec<NodeId> = g.neighbors(0).map(|(v, _)| v).collect();
        assert_eq!(neigh[silc.color_of(0, 1) as usize], 1);
        assert_eq!(neigh[silc.color_of(0, 2) as usize], 2);
    }
}
