//! The original CSR-walking CH query kernel, kept as the reference
//! implementation.
//!
//! [`LegacyChQuery`] searches the hierarchy's upward graph directly in
//! original-id space, exactly as the first version of this crate did.
//! The flat kernel ([`crate::ChQuery`]) must agree with it query for
//! query — the equivalence proptests pin that down — and the benches
//! report the speedup of the rank-renumbered layout against it. It is
//! not wired into any backend.

use spq_graph::backend::QueryBudget;
use spq_graph::heap::IndexedHeap;
use spq_graph::types::{Dist, NodeId, INFINITY, INVALID_NODE};

use crate::contraction::ContractionHierarchy;

const NO_EDGE: u32 = u32::MAX;

/// One direction's workspace of the bidirectional upward search. Eagerly
/// sized (four n-length vectors at construction) — the allocation
/// behaviour the flat kernel's lazy workspaces were built to avoid.
#[derive(Debug, Clone)]
struct Side {
    dist: Vec<Dist>,
    /// Upward-edge index that discovered each vertex (for path retrieval).
    parent_edge: Vec<u32>,
    parent: Vec<NodeId>,
    stamp: Vec<u32>,
    heap: IndexedHeap,
}

impl Side {
    fn new(n: usize) -> Self {
        Side {
            dist: vec![INFINITY; n],
            parent_edge: vec![NO_EDGE; n],
            parent: vec![INVALID_NODE; n],
            stamp: vec![0; n],
            heap: IndexedHeap::new(n),
        }
    }

    fn begin(&mut self, root: NodeId, version: u32) {
        self.heap.clear();
        self.dist[root as usize] = 0;
        self.parent_edge[root as usize] = NO_EDGE;
        self.parent[root as usize] = INVALID_NODE;
        self.stamp[root as usize] = version;
        self.heap.push_or_decrease(root, 0);
    }

    #[inline]
    fn reached(&self, v: NodeId, version: u32) -> bool {
        self.stamp[v as usize] == version
    }
}

/// The reference CH query workspace: §3.2's modified bidirectional
/// Dijkstra walking the original-id upward CSR. See [`crate::ChQuery`]
/// for the production kernel and the algorithm commentary.
#[derive(Debug, Clone)]
pub struct LegacyChQuery<'a> {
    ch: &'a ContractionHierarchy,
    fwd: Side,
    bwd: Side,
    version: u32,
    /// Enables the stall-on-demand optimisation.
    pub stall_on_demand: bool,
    /// Vertices settled by the most recent query.
    pub last_settled: usize,
    /// Scratch stack for shortcut unpacking.
    unpack_stack: Vec<(NodeId, NodeId, u32)>,
    budget: QueryBudget,
}

impl<'a> LegacyChQuery<'a> {
    /// Creates a workspace bound to `ch`.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        let n = ch.num_nodes();
        LegacyChQuery {
            ch,
            fwd: Side::new(n),
            bwd: Side::new(n),
            version: 0,
            stall_on_demand: true,
            last_settled: 0,
            unpack_stack: Vec::new(),
            budget: QueryBudget::unlimited(),
        }
    }

    /// Installs the cancellation budget subsequent queries run under.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether a query since the last [`LegacyChQuery::set_budget`] was
    /// cut short by the budget.
    pub fn budget_exhausted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Distance query (§2): length of the shortest s–t path.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search(s, t).map(|(d, _)| d)
    }

    /// Shortest-path query (§2): distance plus the full vertex sequence
    /// in the original network, with all shortcuts unpacked.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        let (d, meet) = self.search(s, t)?;
        let mut path = vec![s];
        let mut fwd_edges = Vec::new();
        let mut cur = meet;
        while cur != s {
            let e = self.fwd.parent_edge[cur as usize];
            let from = self.fwd.parent[cur as usize];
            fwd_edges.push((from, cur, e));
            cur = from;
        }
        fwd_edges.reverse();
        for (from, to, e) in fwd_edges {
            self.append_unpacked(from, to, e, &mut path);
        }
        let mut cur = meet;
        while cur != t {
            let e = self.bwd.parent_edge[cur as usize];
            let to = self.bwd.parent[cur as usize];
            self.append_unpacked(cur, to, e, &mut path);
            cur = to;
        }
        Some((d, path))
    }

    /// Appends the expansion of hierarchy edge `e` (known to connect
    /// `from` to `to`, in that travel direction) to `path`, excluding
    /// `from` itself.
    fn append_unpacked(&mut self, from: NodeId, to: NodeId, e: u32, path: &mut Vec<NodeId>) {
        debug_assert_eq!(path.last().copied(), Some(from));
        self.unpack_stack.clear();
        self.unpack_stack.push((from, to, e));
        while let Some((a, b, e)) = self.unpack_stack.pop() {
            let m = self.ch.edge_middle(e);
            if m == INVALID_NODE {
                path.push(b);
            } else {
                let e1 = self
                    .ch
                    .upward_edge_to(m, a)
                    .expect("shortcut half (m, a) must exist in the hierarchy");
                let e2 = self
                    .ch
                    .upward_edge_to(m, b)
                    .expect("shortcut half (m, b) must exist in the hierarchy");
                self.unpack_stack.push((m, b, e2));
                self.unpack_stack.push((a, m, e1));
            }
        }
    }

    /// The bidirectional upward search. Returns `(distance, meeting
    /// vertex)`.
    fn search(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, NodeId)> {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.fwd.stamp.fill(0);
            self.bwd.stamp.fill(0);
            self.version = 1;
        }
        let version = self.version;
        self.last_settled = 0;
        self.fwd.begin(s, version);
        self.bwd.begin(t, version);
        if s == t {
            return Some((0, s));
        }

        let mut mu = INFINITY;
        let mut meet = INVALID_NODE;
        loop {
            let ftop = self.fwd.heap.peek_key().unwrap_or(INFINITY);
            let btop = self.bwd.heap.peek_key().unwrap_or(INFINITY);
            if ftop.min(btop) >= mu {
                break;
            }
            let side_is_fwd = if ftop >= mu {
                false
            } else if btop >= mu {
                true
            } else {
                ftop <= btop
            };
            let (this, other) = if side_is_fwd {
                (&mut self.fwd, &mut self.bwd)
            } else {
                (&mut self.bwd, &mut self.fwd)
            };
            if !self.budget.charge() {
                return None;
            }
            let Some((d, u)) = this.heap.pop_min() else {
                break;
            };
            self.last_settled += 1;

            if other.reached(u, version) {
                let total = d + other.dist[u as usize];
                if total < mu {
                    mu = total;
                    meet = u;
                }
            }

            if self.stall_on_demand {
                let mut stalled = false;
                for (_, h, w) in self.ch.upward_edges(u) {
                    if this.reached(h, version) && this.dist[h as usize] + (w as Dist) < d {
                        stalled = true;
                        break;
                    }
                }
                if stalled {
                    continue;
                }
            }

            for (e, h, w) in self.ch.upward_edges(u) {
                let nd = d + w as Dist;
                let hi = h as usize;
                if this.stamp[hi] != version || nd < this.dist[hi] {
                    this.dist[hi] = nd;
                    this.parent[hi] = u;
                    this.parent_edge[hi] = e;
                    this.stamp[hi] = version;
                    this.heap.push_or_decrease(h, nd);
                }
            }
        }

        if meet == INVALID_NODE {
            None
        } else {
            Some((mu, meet))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::figure1;

    #[test]
    fn figure1_worked_example() {
        let g = figure1();
        let ch = ContractionHierarchy::build_with_order(&g, &(0..8).collect::<Vec<_>>());
        let mut q = LegacyChQuery::new(&ch);
        assert_eq!(q.distance(2, 6), Some(6));
        let (_, path) = q.shortest_path(2, 6).unwrap();
        assert_eq!(path, vec![2, 0, 7, 5, 4, 6]);
    }

    #[test]
    fn all_pairs_on_figure1() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut q = LegacyChQuery::new(&ch);
        let mut d = spq_dijkstra::Dijkstra::new(g.num_nodes());
        for s in 0..8u32 {
            d.run(&g, s);
            for t in 0..8u32 {
                assert_eq!(q.distance(s, t), d.distance(t), "({s},{t})");
                let (dist, path) = q.shortest_path(s, t).unwrap();
                assert_eq!(g.path_length(&path), Some(dist));
            }
        }
    }
}
