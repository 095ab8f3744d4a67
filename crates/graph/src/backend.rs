//! The unified query-backend abstraction behind `spq-serve`.
//!
//! Every index crate answers the same two query kinds (paper §2) through
//! its own workspace type; this module is the object-safe common
//! denominator that lets a server hold *any* mix of indexes behind one
//! `Box<dyn Backend>` and give each worker thread its own reusable
//! [`Session`] so the per-query hot path stays allocation-free.
//!
//! The split mirrors the index/workspace split every technique crate
//! already has:
//!
//! * [`Backend`] — the immutable, shareable index (`Send + Sync`; one
//!   per process, referenced by every worker).
//! * [`Session`] — the mutable per-thread search state (heaps, stamp
//!   arrays, bucket scratch). Never shared, never re-created per query.
//!
//! Batched distance queries get a default implementation (a plain loop)
//! that indexes with a native many-to-many algorithm override — CH
//! routes dense batches to its bucket-based table computation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::csr::RoadNetwork;
use crate::types::{Dist, NodeId};

/// How often (in charge units) the budget re-checks its wall-clock
/// deadline and kill flag. Checking `Instant::now()` per settled node
/// would dominate small queries; every 1024 nodes is ≪ 1 ms of search
/// work on any technique in the workspace.
const POLL_MASK: u64 = 0x3ff;

/// A cooperative cancellation budget for one query.
///
/// Search loops call [`QueryBudget::charge`] once per unit of work
/// (conventionally: per settled/expanded node) and abandon the query
/// when it returns `false`. Three independent limits can trip it:
///
/// * a **node cap** — hard upper bound on charge units, so a query on a
///   corrupted or adversarial index terminates even if the clock never
///   advances;
/// * a **deadline** — wall-clock instant, polled every [`POLL_MASK`]+1
///   charges to keep the hot path free of syscalls;
/// * a **kill flag** — a shared [`AtomicBool`] a server can set to
///   abort all in-flight queries at once (forced shutdown).
///
/// The default budget is [`QueryBudget::unlimited`], whose `charge` is
/// an increment and one predictable branch — workspaces embed a budget
/// unconditionally and non-serving callers never notice it.
#[derive(Debug, Default)]
pub struct QueryBudget {
    node_cap: Option<u64>,
    deadline: Option<Instant>,
    kill: Option<Arc<AtomicBool>>,
    spent: u64,
    tripped: bool,
}

impl Clone for QueryBudget {
    fn clone(&self) -> Self {
        QueryBudget {
            node_cap: self.node_cap,
            deadline: self.deadline,
            kill: self.kill.clone(),
            spent: self.spent,
            tripped: self.tripped,
        }
    }

    /// Copies `source`'s limits in place. A kill flag both sides already
    /// share is kept as is, so a server re-installing its one budget
    /// before every request (see [`Session::set_budget`]) causes no
    /// reference-count traffic on the flag's `Arc`.
    fn clone_from(&mut self, source: &Self) {
        // Destructured so that a new field cannot be forgotten here.
        let QueryBudget {
            node_cap,
            deadline,
            kill,
            spent,
            tripped,
        } = source;
        self.node_cap = *node_cap;
        self.deadline = *deadline;
        self.spent = *spent;
        self.tripped = *tripped;
        let shared = match (&self.kill, kill) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine, theirs),
            (None, None) => true,
            _ => false,
        };
        if !shared {
            self.kill.clone_from(kill);
        }
    }
}

impl QueryBudget {
    /// A budget that never trips.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Caps the number of charge units (settled nodes).
    pub fn with_node_cap(mut self, cap: u64) -> Self {
        self.node_cap = Some(cap);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a shared kill flag; when another thread sets it, the
    /// next poll aborts the query.
    pub fn with_kill_flag(mut self, kill: Arc<AtomicBool>) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Restarts the budget for a fresh query, keeping its limits.
    pub fn reset(&mut self) {
        self.spent = 0;
        self.tripped = false;
    }

    /// Restarts the budget for a fresh query under a new deadline
    /// (`None`: no deadline), keeping the node cap and kill flag.
    pub fn rearm(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.reset();
    }

    /// Records one unit of work. Returns `false` once the budget is
    /// exhausted; the caller must then abandon the query.
    #[inline]
    pub fn charge(&mut self) -> bool {
        if self.tripped {
            return false;
        }
        self.spent += 1;
        if let Some(cap) = self.node_cap {
            if self.spent > cap {
                self.tripped = true;
                return false;
            }
        }
        if self.spent & POLL_MASK == 0 {
            return self.poll();
        }
        true
    }

    /// The slow-path check: deadline and kill flag.
    #[cold]
    fn poll(&mut self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.tripped = true;
                return false;
            }
        }
        if let Some(kill) = &self.kill {
            if kill.load(Ordering::Relaxed) {
                self.tripped = true;
                return false;
            }
        }
        true
    }

    /// Whether the budget has tripped (the last query was cut short).
    pub fn exhausted(&self) -> bool {
        self.tripped
    }

    /// Charge units consumed since the last [`QueryBudget::reset`].
    pub fn spent(&self) -> u64 {
        self.spent
    }
}

/// A named point-of-interest set a kNN query runs against.
///
/// The server resolves the set name to its registered vertex list once
/// per request and hands both to the session: backends without a native
/// kNN index can answer from the vertex list alone (the default
/// implementation below), while bucket-based engines use the name to
/// find their precomputed per-vertex buckets for the same set.
#[derive(Debug, Clone, Copy)]
pub struct PoiRef<'a> {
    /// Registered name of the set.
    pub name: &'a str,
    /// The set's vertices (sorted, deduplicated).
    pub nodes: &'a [NodeId],
}

/// A preprocessed index that can answer queries over one road network.
///
/// Implementations live in the technique crates (the trait is defined
/// here so they can implement it for their local index types without
/// orphan-rule friction).
pub trait Backend: Send + Sync {
    /// Display name, matching the paper's figures ("CH", "TNR", ...).
    fn backend_name(&self) -> &'static str;

    /// Creates a per-thread query workspace over this index and the
    /// network it was built from. The session borrows both; workers keep
    /// one session per backend for their whole lifetime.
    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn Session + 'a>;

    /// Whether this backend's point queries — [`Session::distance`]
    /// *and* [`Session::shortest_path`] — are bounded by the hierarchy's
    /// search space on every input, never by the size of the network: a
    /// label scan, an upward search over a contraction hierarchy, the
    /// unpacking of the path it found. A server may answer such queries
    /// on the thread that parsed them (still under a [`QueryBudget`])
    /// instead of handing them to a worker. The default is `false`;
    /// anything that can fall into a search of the road network itself
    /// (Dijkstra, A*, a flag-pruned search, a local-query fallback) must
    /// not claim it.
    fn bounded_point_queries(&self) -> bool {
        false
    }
}

/// A reusable, single-threaded query workspace.
pub trait Session {
    /// The paper's *distance query*: length of the shortest s–t path,
    /// `None` when `t` is unreachable from `s`.
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist>;

    /// The paper's *shortest path query*: the distance plus the vertex
    /// sequence of one shortest path.
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)>;

    /// Batched distances: fills `out` with the row-major
    /// `sources × targets` table (entry `i * targets.len() + j` is
    /// `distance(sources[i], targets[j])`).
    ///
    /// The default runs the point-to-point query per pair; indexes with
    /// a native many-to-many algorithm (CH's bucket technique) override
    /// this, which is what makes dense batches cheaper than their
    /// point-to-point decomposition.
    fn distances(&mut self, sources: &[NodeId], targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        out.clear();
        out.reserve(sources.len() * targets.len());
        for &s in sources {
            for &t in targets {
                out.push(self.distance(s, t));
            }
        }
    }

    /// One-to-many distances: fills `out[j]` with
    /// `distance(s, targets[j])`.
    ///
    /// The default routes through the batched [`Session::distances`]
    /// (a 1×m table); engines with a dedicated one-to-many kernel —
    /// the PHAST-style rank sweep in `spq-many` — override this to beat
    /// the decomposition into point-to-point queries.
    fn one_to_many(&mut self, s: NodeId, targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        self.distances(&[s], targets, out);
    }

    /// k-nearest-neighbour query over a registered POI set: fills `out`
    /// with up to `k` `(poi_vertex, distance)` pairs, ascending by
    /// `(distance, vertex id)` — the deterministic total order every
    /// implementation must produce. Unreachable POIs never appear.
    ///
    /// The default brute-forces the whole set through
    /// [`Session::one_to_many`] and selects the k best; bucket-based
    /// engines override with one upward search plus bucket merges.
    fn knn(&mut self, s: NodeId, k: usize, poi: PoiRef<'_>, out: &mut Vec<(NodeId, Dist)>) {
        let mut row = Vec::with_capacity(poi.nodes.len());
        self.one_to_many(s, poi.nodes, &mut row);
        out.clear();
        out.extend(
            poi.nodes
                .iter()
                .zip(row.iter())
                .filter_map(|(&p, d)| d.map(|d| (p, d))),
        );
        out.sort_unstable_by_key(|&(p, d)| (d, p));
        out.truncate(k);
    }

    /// Network range query: fills `out` with every `(vertex, distance)`
    /// within `limit` of `s`, ascending by vertex id, and returns
    /// `true`. Returns `false` (leaving `out` untouched) when the
    /// backend has no way to enumerate the network — the server answers
    /// such backends with an error rather than a wrong result.
    fn range(&mut self, _s: NodeId, _limit: Dist, _out: &mut Vec<(NodeId, Dist)>) -> bool {
        false
    }

    /// Installs the budget the next queries run under (sessions copy
    /// it with `clone_from`, so a caller re-installing one long-lived
    /// budget per query pays a few word copies). The default does
    /// nothing — a workspace that ignores budgets simply cannot be
    /// cancelled (and [`Session::interrupted`] stays `false`, so its
    /// `None` answers keep meaning "unreachable").
    fn set_budget(&mut self, _budget: &QueryBudget) {}

    /// Whether the most recent query was cut short by its budget rather
    /// than answered. Servers use this to distinguish a genuine
    /// "unreachable" from a deadline abort — an interrupted `None` must
    /// never be cached or reported as a distance.
    fn interrupted(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::figure1;

    /// A trivial backend over the raw network (BFS-free: only immediate
    /// neighbours and self-loops) — just enough to exercise the default
    /// `distances` implementation and object safety.
    struct OneHop;

    struct OneHopSession<'a> {
        net: &'a RoadNetwork,
    }

    impl Backend for OneHop {
        fn backend_name(&self) -> &'static str {
            "OneHop"
        }
        fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
            Box::new(OneHopSession { net })
        }
    }

    impl Session for OneHopSession<'_> {
        fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
            if s == t {
                return Some(0);
            }
            self.net
                .neighbors(s)
                .filter(|&(u, _)| u == t)
                .map(|(_, w)| w as Dist)
                .min()
        }
        fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
            let d = self.distance(s, t)?;
            Some((d, if s == t { vec![s] } else { vec![s, t] }))
        }
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let mut b = QueryBudget::unlimited();
        for _ in 0..10_000 {
            assert!(b.charge());
        }
        assert!(!b.exhausted());
        assert_eq!(b.spent(), 10_000);
    }

    #[test]
    fn node_cap_trips_exactly_and_resets() {
        let mut b = QueryBudget::unlimited().with_node_cap(5);
        for _ in 0..5 {
            assert!(b.charge());
        }
        assert!(!b.charge(), "sixth unit must trip the cap");
        assert!(b.exhausted());
        assert!(!b.charge(), "a tripped budget stays tripped");
        b.reset();
        assert!(!b.exhausted());
        assert!(b.charge());
    }

    #[test]
    fn past_deadline_trips_at_next_poll() {
        let mut b = QueryBudget::unlimited().with_deadline(Instant::now());
        // The deadline is polled every POLL_MASK + 1 charges; an
        // already-expired deadline must trip within one poll window.
        let mut tripped = false;
        for _ in 0..=POLL_MASK {
            if !b.charge() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert!(b.exhausted());
    }

    #[test]
    fn kill_flag_aborts_from_another_thread() {
        let kill = Arc::new(AtomicBool::new(false));
        let mut b = QueryBudget::unlimited().with_kill_flag(kill.clone());
        for _ in 0..2048 {
            assert!(b.charge());
        }
        kill.store(true, Ordering::Relaxed);
        let mut tripped = false;
        for _ in 0..=POLL_MASK {
            if !b.charge() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn reinstalling_a_budget_reuses_the_shared_kill_flag() {
        let kill = Arc::new(AtomicBool::new(false));
        let mut template = QueryBudget::unlimited().with_kill_flag(Arc::clone(&kill));
        let mut installed = QueryBudget::unlimited();
        installed.clone_from(&template);
        assert_eq!(Arc::strong_count(&kill), 3, "first install shares the flag");
        for _ in 0..5 {
            assert!(installed.charge());
        }
        // Re-deadlined and re-installed: limits and accounting are
        // copied, the flag's Arc is left alone.
        let deadline = Instant::now();
        template.rearm(Some(deadline));
        installed.clone_from(&template);
        assert_eq!(Arc::strong_count(&kill), 3);
        assert_eq!(installed.deadline, Some(deadline));
        assert_eq!(installed.spent(), 0);
        template.rearm(None);
        installed.clone_from(&template);
        assert_eq!(installed.deadline, None);
        // A different (or absent) flag is still replaced.
        installed.clone_from(&QueryBudget::unlimited());
        assert_eq!(Arc::strong_count(&kill), 2);
    }

    #[test]
    fn default_one_to_many_matches_singles() {
        let g = figure1();
        let backend: Box<dyn Backend> = Box::new(OneHop);
        let mut session = backend.session(&g);
        let targets = [0u32, 3, 5, 7];
        let mut out = Vec::new();
        session.one_to_many(7, &targets, &mut out);
        assert_eq!(out.len(), targets.len());
        for (j, &t) in targets.iter().enumerate() {
            assert_eq!(out[j], session.distance(7, t));
        }
    }

    #[test]
    fn default_knn_selects_k_nearest_deterministically() {
        let g = figure1();
        let backend: Box<dyn Backend> = Box::new(OneHop);
        let mut session = backend.session(&g);
        let nodes: Vec<NodeId> = (0..8).collect();
        let poi = PoiRef {
            name: "all",
            nodes: &nodes,
        };
        let mut out = Vec::new();
        session.knn(7, 3, poi, &mut out);
        // From v8, OneHop reaches itself (0), v1 (1), then v2 and v6 at
        // distance 2 — the tie must break toward the smaller id.
        assert_eq!(out, vec![(7, 0), (0, 1), (1, 2)]);
        // k larger than the reachable set returns only reachable POIs.
        session.knn(7, 100, poi, &mut out);
        assert!(out.len() < nodes.len());
        assert!(out.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn default_range_reports_unsupported() {
        let g = figure1();
        let backend: Box<dyn Backend> = Box::new(OneHop);
        let mut session = backend.session(&g);
        let mut out = vec![(9u32, 9u64)];
        assert!(!session.range(0, 100, &mut out));
        assert_eq!(out, vec![(9, 9)], "unsupported range must not touch out");
    }

    #[test]
    fn default_batch_matches_singles() {
        let g = figure1();
        let backend: Box<dyn Backend> = Box::new(OneHop);
        let mut session = backend.session(&g);
        let sources = [0u32, 1, 2];
        let targets = [0u32, 3, 5, 7];
        let mut out = Vec::new();
        session.distances(&sources, &targets, &mut out);
        assert_eq!(out.len(), sources.len() * targets.len());
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(out[i * targets.len() + j], session.distance(s, t));
            }
        }
    }
}
