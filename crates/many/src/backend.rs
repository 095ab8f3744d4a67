//! The serving face of the batched-query engines: a [`Backend`] that
//! wraps a shared contraction hierarchy and answers every [`Session`]
//! capability natively — point-to-point through `ChQuery`, one-to-many
//! and tables with a short side through restricted sweeps, wide tables
//! through the multi-source batch kernel, kNN through registered POI
//! buckets, and range through the bounded search the baseline serves
//! it with ([`Ball::range`]): a ball has no target set to select in
//! advance, and the plain search over the network costs the ball.
//!
//! The hierarchy is held behind an `Arc` so the serving engine can keep
//! one copy visible to this backend, the bench harness, and POI-index
//! builds alike. POI sets live in a [`PoiTable`] that is installed
//! exactly once per epoch (after the hierarchy exists, before the first
//! query) — sessions see either the full table or, before
//! installation, an empty one; they never see it change.

use std::sync::{Arc, OnceLock};

use spq_ch::{BatchDistances, ChQuery, ContractionHierarchy};
use spq_dijkstra::Ball;
use spq_graph::backend::{Backend, PoiRef, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;

use crate::phast::OneToMany;
use crate::poi::{KnnWorkspace, PoiIndex, PoiSet};

/// Rows of at least this many targets are answered by a restricted
/// sweep, shorter ones by point queries. One target costs the same
/// either way (a sweep of one target's closure *is* a backward search);
/// from two on, a sweep over a selection built for that one request
/// already beats the point queries on all four full-mode bench proxies
/// and on the 100k-vertex benchmark network, and the gap only widens
/// (EXPERIMENTS.md, "Restricted sweeps", has the table).
pub const O2M_SWEEP_CUTOFF: usize = 2;

/// Tables whose shorter side is at most this are answered as that many
/// restricted sweeps over the selection of the longer side; wider ones
/// go to [`BatchDistances`]. A sweep pays for the whole selection once
/// per row, the batch kernel one upward search per row *and* column: up
/// to 64 rows the sweeps win on every measured shape and network, at
/// 128 the two trade wins, and from 256 the batch kernel is ahead on the
/// 100k-vertex network (1.8x at 512x512; same section of
/// EXPERIMENTS.md).
pub const TABLE_SWEEP_SIDE: usize = 64;

/// One registered POI set plus its bucket index over the serving
/// hierarchy.
#[derive(Debug)]
pub struct PoiEntry {
    /// The set as registered (persisted form).
    pub set: PoiSet,
    /// Buckets over the epoch's hierarchy.
    pub index: PoiIndex,
}

/// The epoch-scoped registry of POI sets, installed once after the
/// engine's hierarchy is built and immutable from then on.
#[derive(Debug, Default)]
pub struct PoiTable {
    entries: OnceLock<Vec<PoiEntry>>,
}

impl PoiTable {
    /// An empty, not-yet-installed table.
    pub fn empty() -> Arc<PoiTable> {
        Arc::new(PoiTable::default())
    }

    /// Installs the entries. A table can be installed only once — a
    /// second install is a bug in epoch construction and is reported,
    /// not silently ignored.
    pub fn install(&self, entries: Vec<PoiEntry>) -> Result<(), String> {
        self.entries
            .set(entries)
            .map_err(|_| "POI table already installed for this epoch".to_string())
    }

    /// Looks a set up by name.
    pub fn get(&self, name: &str) -> Option<&PoiEntry> {
        self.entries().iter().find(|e| e.set.name() == name)
    }

    /// All registered entries (empty before installation).
    pub fn entries(&self) -> &[PoiEntry] {
        self.entries.get().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The CH-backed backend serving all five query shapes.
pub struct ManyBackend {
    ch: Arc<ContractionHierarchy>,
    pois: Arc<PoiTable>,
}

impl ManyBackend {
    /// Wraps a shared hierarchy and the epoch's POI table.
    pub fn new(ch: Arc<ContractionHierarchy>, pois: Arc<PoiTable>) -> Self {
        ManyBackend { ch, pois }
    }

    /// The wrapped hierarchy.
    pub fn hierarchy(&self) -> &Arc<ContractionHierarchy> {
        &self.ch
    }
}

impl Backend for ManyBackend {
    fn backend_name(&self) -> &'static str {
        // Serves the same index and answers as the plain CH backend; the
        // batched engines are capability extensions, not a new backend.
        "CH"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(ManySession {
            net,
            ch: &self.ch,
            pois: &self.pois,
            query: ChQuery::new(&self.ch),
            batch: None,
            o2m: None,
            flipped: Vec::new(),
            knn_ws: KnnWorkspace::new(),
            ball: Ball::new(),
            range_budget: QueryBudget::unlimited(),
            budget: QueryBudget::unlimited(),
        })
    }

    /// `DISTANCE` and `PATH` are the plain CH backend's `ChQuery`.
    fn bounded_point_queries(&self) -> bool {
        true
    }
}

/// Per-thread workspace bundle. Every engine is created lazily, so a
/// worker only pays for the query shapes it actually serves. The
/// one-to-many engine's upward search is the session's: tables,
/// one-to-many rows and kNN all run on it.
pub struct ManySession<'a> {
    net: &'a RoadNetwork,
    ch: &'a ContractionHierarchy,
    pois: &'a PoiTable,
    query: ChQuery<'a>,
    batch: Option<BatchDistances<'a>>,
    o2m: Option<OneToMany<'a>>,
    /// A swept table before it is transposed into the caller's layout.
    flipped: Vec<Option<Dist>>,
    knn_ws: KnnWorkspace,
    ball: Ball,
    /// The budget range charges, re-armed by each range.
    range_budget: QueryBudget,
    budget: QueryBudget,
}

/// The session's one-to-many engine, created on first use under the
/// session's current budget.
fn engine<'s, 'a>(
    slot: &'s mut Option<OneToMany<'a>>,
    ch: &'a ContractionHierarchy,
    budget: &QueryBudget,
) -> &'s mut OneToMany<'a> {
    slot.get_or_insert_with(|| {
        let mut engine = OneToMany::new(ch);
        engine.set_budget(budget);
        engine
    })
}

impl ManySession<'_> {
    /// `rows` restricted sweeps over the selection of `cols`, row-major
    /// into `out`.
    fn swept(&mut self, rows: &[NodeId], cols: &[NodeId], out: &mut Vec<Option<Dist>>) {
        if !engine(&mut self.o2m, self.ch, &self.budget).table(rows, cols, out) {
            // Interrupted: the caller sees it via `interrupted()` and
            // must discard; fill the table so lengths still line up.
            out.resize(rows.len() * cols.len(), None);
        }
    }
}

impl Session for ManySession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        self.query.distance(s, t)
    }

    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.query.shortest_path(s, t)
    }

    /// Sweeps from the shorter side of the table over the selection of
    /// the longer one (the network is undirected, so a column is its
    /// target's row); tables wider than [`TABLE_SWEEP_SIDE`] both ways
    /// ride the multi-source SoA batch kernel.
    fn distances(&mut self, sources: &[NodeId], targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        let flip = targets.len() < sources.len();
        let (rows, cols) = if flip {
            (targets, sources)
        } else {
            (sources, targets)
        };
        if cols.len() < O2M_SWEEP_CUTOFF {
            // At most one cell.
            out.clear();
            out.extend(
                sources
                    .iter()
                    .zip(targets)
                    .map(|(&s, &t)| self.query.distance(s, t)),
            );
        } else if rows.len() > TABLE_SWEEP_SIDE {
            let batch = self
                .batch
                .get_or_insert_with(|| BatchDistances::new(self.ch));
            batch.set_budget(&self.budget);
            out.clear();
            match batch.table(sources, targets) {
                Some(table) => {
                    out.extend(
                        table
                            .into_iter()
                            .map(|d| if d >= INFINITY { None } else { Some(d) }),
                    )
                }
                // Interrupted mid-table: report nothing rather than a
                // mix of answered and fabricated cells.
                None => out.resize(sources.len() * targets.len(), None),
            }
        } else if flip {
            let mut flipped = std::mem::take(&mut self.flipped);
            self.swept(rows, cols, &mut flipped);
            out.clear();
            out.extend(
                (0..cols.len())
                    .flat_map(|i| (0..rows.len()).map(move |j| j * cols.len() + i))
                    .map(|at| flipped[at]),
            );
            self.flipped = flipped;
        } else {
            self.swept(rows, cols, out);
        }
    }

    fn one_to_many(&mut self, s: NodeId, targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        self.distances(&[s], targets, out);
    }

    fn knn(&mut self, s: NodeId, k: usize, poi: PoiRef<'_>, out: &mut Vec<(NodeId, Dist)>) {
        if let Some(entry) = self.pois.get(poi.name) {
            let o2m = engine(&mut self.o2m, self.ch, &self.budget);
            if !entry.index.knn(o2m.search(), &mut self.knn_ws, s, k, out) {
                out.clear();
            }
            return;
        }
        // No buckets registered under this name (e.g. the caller
        // resolved the set elsewhere): brute-force over the vertex list.
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

    fn range(&mut self, s: NodeId, limit: Dist, out: &mut Vec<(NodeId, Dist)>) -> bool {
        self.range_budget.reset();
        self.ball
            .range(self.net, s, limit, &mut self.range_budget, out);
        true
    }

    fn set_budget(&mut self, budget: &QueryBudget) {
        self.query.set_budget(budget);
        if let Some(engine) = self.o2m.as_mut() {
            engine.set_budget(budget);
        }
        if let Some(batch) = self.batch.as_mut() {
            batch.set_budget(budget);
        }
        self.knn_ws.set_budget(budget);
        self.range_budget.clone_from(budget);
        self.budget.clone_from(budget);
    }

    fn interrupted(&self) -> bool {
        self.query.budget_exhausted()
            || self.o2m.as_ref().is_some_and(|e| e.interrupted())
            || self.batch.as_ref().is_some_and(|b| b.budget_exhausted())
            || self.knn_ws.interrupted()
            || self.range_budget.exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::grid_graph;

    fn backend_with_pois(g: &RoadNetwork) -> (ManyBackend, PoiSet) {
        let ch = Arc::new(ContractionHierarchy::build(g));
        let set = PoiSet::sample(g, "poi", 6, 11).unwrap();
        let index = PoiIndex::build(&ch, &set).unwrap();
        let pois = PoiTable::empty();
        pois.install(vec![PoiEntry {
            set: set.clone(),
            index,
        }])
        .unwrap();
        (ManyBackend::new(ch, pois), set)
    }

    #[test]
    fn session_one_to_many_exact_on_both_routing_paths() {
        let g = grid_graph(12, 12);
        let (backend, _) = backend_with_pois(&g);
        let mut session = backend.session(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(&g, 5);
        // Below the cutoff (point queries) and from it on (sweep).
        for m in [0, O2M_SWEEP_CUTOFF - 1, O2M_SWEEP_CUTOFF, 100] {
            let targets: Vec<NodeId> = (0..m as NodeId).collect();
            let mut out = vec![Some(7)];
            session.one_to_many(5, &targets, &mut out);
            assert!(!session.interrupted());
            assert_eq!(out.len(), m);
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(out[j], d.distance(t), "m={m} t={t}");
            }
        }
    }

    /// Every routing class of `distances` against the oracle: rows and
    /// columns, sweeps from either side, the batch kernel, the empty
    /// and one-cell tables.
    #[test]
    fn session_tables_exact_in_every_shape() {
        let g = grid_graph(12, 12);
        let (backend, _) = backend_with_pois(&g);
        let mut session = backend.session(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        let wide = TABLE_SWEEP_SIDE as NodeId + 3;
        let pick = |count: NodeId, stride: NodeId| -> Vec<NodeId> {
            (0..count).map(|i| (i * stride + 5) % 144).collect()
        };
        for (rows, cols) in [
            (0, 4),
            (4, 0),
            (1, 1),
            (1, 50),
            (50, 1),
            (3, 40),
            (40, 3),
            (9, 9),
            (wide, 2),
            (wide, wide + 1),
            (wide + 1, wide),
        ] {
            let (sources, targets) = (pick(rows, 7), pick(cols, 11));
            let mut out = vec![Some(1)];
            session.distances(&sources, &targets, &mut out);
            assert!(!session.interrupted());
            assert_eq!(out.len(), sources.len() * targets.len(), "{rows}x{cols}");
            for (i, &s) in sources.iter().enumerate() {
                d.run(&g, s);
                for (j, &t) in targets.iter().enumerate() {
                    assert_eq!(
                        out[i * targets.len() + j],
                        d.distance(t),
                        "{rows}x{cols} ({s},{t})"
                    );
                }
            }
        }
    }

    #[test]
    fn session_column_is_the_transpose_of_its_row() {
        let g = grid_graph(10, 10);
        let (backend, _) = backend_with_pois(&g);
        let mut session = backend.session(&g);
        let many: Vec<NodeId> = (0..100).rev().collect();
        let (mut row, mut column) = (Vec::new(), Vec::new());
        session.distances(&[7], &many, &mut row);
        session.distances(&many, &[7], &mut column);
        assert_eq!(row, column, "undirected: N×1 is 1×N read downwards");
        let mut direct = Vec::new();
        session.one_to_many(7, &many, &mut direct);
        assert_eq!(row, direct);
    }

    #[test]
    fn session_knn_uses_buckets_and_matches_brute_force() {
        let g = grid_graph(9, 9);
        let (backend, set) = backend_with_pois(&g);
        let mut session = backend.session(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        for s in [0u32, 40, 80] {
            d.run(&g, s);
            let mut expect: Vec<(NodeId, Dist)> = set
                .nodes()
                .iter()
                .filter_map(|&p| d.distance(p).map(|x| (p, x)))
                .collect();
            expect.sort_unstable_by_key(|&(p, x)| (x, p));
            expect.truncate(3);
            let mut got = Vec::new();
            session.knn(
                s,
                3,
                PoiRef {
                    name: "poi",
                    nodes: set.nodes(),
                },
                &mut got,
            );
            assert_eq!(got, expect, "s={s}");
            // An unregistered name falls back to brute force over the
            // provided vertex list — same answers.
            session.knn(
                s,
                3,
                PoiRef {
                    name: "unregistered",
                    nodes: set.nodes(),
                },
                &mut got,
            );
            assert_eq!(got, expect, "fallback s={s}");
        }
    }

    #[test]
    fn session_range_exact() {
        let g = grid_graph(8, 8);
        let (backend, _) = backend_with_pois(&g);
        let mut session = backend.session(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(&g, 0);
        let mut out = Vec::new();
        assert!(session.range(0, 6, &mut out));
        let expect: Vec<(NodeId, Dist)> = (0..64)
            .filter_map(|v| d.distance(v).filter(|&x| x <= 6).map(|x| (v, x)))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn a_path_cut_by_its_budget_leaves_the_next_paths_exact() {
        let g = grid_graph(9, 9);
        let (backend, _) = backend_with_pois(&g);
        let mut session = backend.session(&g);
        let mut oracle = Dijkstra::new(g.num_nodes());
        for cap in 0..12 {
            session.set_budget(&QueryBudget::unlimited().with_node_cap(cap));
            assert_eq!(session.shortest_path(0, 80), None, "cap {cap}");
            assert!(session.interrupted());
            session.set_budget(&QueryBudget::unlimited());
            for (s, t) in [(80, 0), (4, 76), (cap as NodeId, 40)] {
                oracle.run_to_target(&g, s, t);
                let (d, path) = session.shortest_path(s, t).expect("connected");
                assert_eq!(Some(d), oracle.distance(t), "({s},{t}) after cap {cap}");
                assert_eq!((path[0], path[path.len() - 1]), (s, t));
                assert_eq!(g.path_length(&path), Some(d));
            }
            assert!(!session.interrupted());
        }
    }

    #[test]
    fn deadline_interrupts_every_shape() {
        let g = grid_graph(10, 10);
        let (backend, set) = backend_with_pois(&g);
        let mut session = backend.session(&g);
        session.set_budget(&QueryBudget::unlimited().with_node_cap(1));
        let targets: Vec<NodeId> = (0..100).collect();
        let mut row = Vec::new();
        session.one_to_many(0, &targets, &mut row);
        assert!(session.interrupted(), "o2m must trip");

        session.set_budget(&QueryBudget::unlimited().with_node_cap(1));
        let mut hits = Vec::new();
        session.knn(
            0,
            2,
            PoiRef {
                name: "poi",
                nodes: set.nodes(),
            },
            &mut hits,
        );
        assert!(session.interrupted(), "knn must trip");
        assert!(hits.is_empty());

        session.set_budget(&QueryBudget::unlimited().with_node_cap(1));
        let mut out = Vec::new();
        assert!(session.range(0, 100, &mut out));
        assert!(session.interrupted(), "range must trip");
        assert!(out.is_empty());

        // Fresh budget -> everything recovers.
        session.set_budget(&QueryBudget::unlimited());
        session.one_to_many(0, &targets, &mut row);
        assert!(!session.interrupted());
        assert_eq!(row[0], Some(0));
    }

    #[test]
    fn poi_table_installs_once() {
        let table = PoiTable::empty();
        assert!(table.entries().is_empty());
        assert!(table.get("x").is_none());
        table.install(Vec::new()).unwrap();
        assert!(table.install(Vec::new()).is_err());
    }
}
