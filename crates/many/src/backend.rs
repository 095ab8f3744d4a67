//! The serving face of the batched-query engines: a [`Backend`] that
//! wraps a shared contraction hierarchy and answers every [`Session`]
//! capability natively — point-to-point through `ChQuery`; one-to-many
//! and tables with a side that names every member of a registered POI
//! set (once each, in any order) through that set's kNN buckets, one
//! bucket row per vertex of the other side ([`PoiIndex::row`]); other
//! one-to-many and tables with a short side through restricted sweeps,
//! wide tables through the multi-source batch kernel; kNN through
//! registered POI buckets; and range through the bounded search the
//! baseline serves it with ([`Ball::range`]): a ball has no target set
//! to select in advance, and the plain search over the network costs
//! the ball.
//!
//! The whole-set route costs no index data and no registration work:
//! the buckets kNN merges already hold every member's upward distance,
//! so a row is the source's upward search plus one merge, where a
//! restricted sweep adds a pass over the set's whole selection. A
//! request whose side has no registered set's size is passed over at
//! once; one of that size is checked by binary search in the set's
//! sorted vertex list.
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

    fn many_session<'a>(&'a self, net: &'a RoadNetwork) -> ManySession<'a> {
        ManySession {
            net,
            ch: &self.ch,
            pois: &self.pois,
            query: ChQuery::new(&self.ch),
            batch: None,
            o2m: None,
            flipped: Vec::new(),
            knn_ws: KnnWorkspace::new(),
            ball: Ball::new(),
            set_row: Vec::new(),
            set_pos: Vec::new(),
            set_seen: Vec::new(),
            own_budget: QueryBudget::unlimited(),
            budget: QueryBudget::unlimited(),
        }
    }
}

impl Backend for ManyBackend {
    fn backend_name(&self) -> &'static str {
        // Serves the same index and answers as the plain CH backend; the
        // batched engines are capability extensions, not a new backend.
        "CH"
    }

    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(self.many_session(net))
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
    /// One source's whole-set row, in the set's vertex order.
    set_row: Vec<Dist>,
    /// Where each vertex of the request's whole-set side sits in the
    /// set's vertex list.
    set_pos: Vec<u32>,
    /// The set members the request has named so far.
    set_seen: Vec<bool>,
    /// The budget range and the whole-set rows charge, re-armed by each
    /// request that runs them.
    own_budget: QueryBudget,
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

/// The index of the registered set that `list` names member for member
/// — each exactly once, in any order — with every entry's position in
/// the set's sorted vertex list in `pos`. A set of another size is
/// passed over without reading `list`.
fn whole_set<'p>(
    pois: &'p PoiTable,
    list: &[NodeId],
    pos: &mut Vec<u32>,
    seen: &mut Vec<bool>,
) -> Option<&'p PoiIndex> {
    pois.entries()
        .iter()
        .map(|e| &e.index)
        .filter(|index| index.nodes().len() == list.len())
        .find(|index| {
            let nodes = index.nodes();
            pos.clear();
            seen.clear();
            seen.resize(nodes.len(), false);
            list.iter().all(|v| match nodes.binary_search(v) {
                Ok(j) if !std::mem::replace(&mut seen[j], true) => {
                    pos.push(j as u32);
                    true
                }
                _ => false,
            })
        })
}

impl ManySession<'_> {
    /// Answers the table from a registered set's buckets when one side
    /// names the whole set ([`whole_set`]; the targets are tried
    /// first): one bucket row per vertex of the other side, written
    /// row-major, transposed when the set is the source side. `false`
    /// if neither side is a whole set, with `out` untouched.
    fn whole_set_table(
        &mut self,
        sources: &[NodeId],
        targets: &[NodeId],
        out: &mut Vec<Option<Dist>>,
    ) -> bool {
        let pois = self.pois;
        let (pos, seen) = (&mut self.set_pos, &mut self.set_seen);
        let (index, others, set_is_targets) = match whole_set(pois, targets, pos, seen) {
            Some(index) => (index, sources, true),
            None => match whole_set(pois, sources, pos, seen) {
                Some(index) => (index, targets, false),
                None => return false,
            },
        };
        self.own_budget.reset();
        let search = engine(&mut self.o2m, self.ch, &self.budget).search();
        out.clear();
        if !set_is_targets {
            out.resize(sources.len() * targets.len(), None);
        }
        let cell = |d: Dist| (d < INFINITY).then_some(d);
        for (i, &s) in others.iter().enumerate() {
            if !index.row(search, s, &mut self.own_budget, &mut self.set_row) {
                // Interrupted: the caller sees it via `interrupted()`
                // and must discard; the cells line up all the same.
                out.clear();
                out.resize(sources.len() * targets.len(), None);
                break;
            }
            let row = &self.set_row;
            if set_is_targets {
                out.extend(self.set_pos.iter().map(|&j| cell(row[j as usize])));
            } else {
                for (k, &j) in self.set_pos.iter().enumerate() {
                    out[k * others.len() + i] = cell(row[j as usize]);
                }
            }
        }
        true
    }

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

    /// A side that names a whole registered POI set is answered from
    /// the set's buckets, one row per vertex of the other side. Any
    /// other table is swept from its shorter side over the selection of
    /// the longer one (the network is undirected, so a column is its
    /// target's row); tables wider than [`TABLE_SWEEP_SIDE`] both ways
    /// ride the multi-source SoA batch kernel.
    fn distances(&mut self, sources: &[NodeId], targets: &[NodeId], out: &mut Vec<Option<Dist>>) {
        if self.whole_set_table(sources, targets, out) {
            return;
        }
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
        self.own_budget.reset();
        self.ball
            .range(self.net, s, limit, &mut self.own_budget, out);
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
        self.own_budget.clone_from(budget);
        self.budget.clone_from(budget);
    }

    fn interrupted(&self) -> bool {
        self.query.budget_exhausted()
            || self.o2m.as_ref().is_some_and(|e| e.interrupted())
            || self.batch.as_ref().is_some_and(|b| b.budget_exhausted())
            || self.knn_ws.interrupted()
            || self.own_budget.exhausted()
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

    /// Every cell of a `sources × targets` table against the oracle.
    fn assert_exact(
        g: &RoadNetwork,
        d: &mut Dijkstra,
        sources: &[NodeId],
        targets: &[NodeId],
        out: &[Option<Dist>],
        case: &str,
    ) {
        assert_eq!(out.len(), sources.len() * targets.len(), "{case}");
        for (i, &s) in sources.iter().enumerate() {
            d.run(g, s);
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    out[i * targets.len() + j],
                    d.distance(t),
                    "{case} ({s},{t})"
                );
            }
        }
    }

    /// A side that names the whole registered set, in any order, is
    /// answered from the buckets (no selection is built); the set plus
    /// or minus a vertex, or with a member repeated, takes the old
    /// routes. Every answer is the oracle's.
    #[test]
    fn whole_set_tables_ride_the_buckets_and_stay_exact() {
        let g = grid_graph(12, 12);
        let ch = Arc::new(ContractionHierarchy::build(&g));
        let set = PoiSet::sample(&g, "depots", 30, 5).unwrap();
        let pois = PoiTable::empty();
        pois.install(vec![PoiEntry {
            index: PoiIndex::build(&ch, &set).unwrap(),
            set: set.clone(),
        }])
        .unwrap();
        let backend = ManyBackend::new(ch, pois);
        let mut session = backend.many_session(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        let built =
            |session: &ManySession| session.o2m.as_ref().map_or(0, |e| e.selections_built());

        let mut shuffled = set.nodes().to_vec();
        shuffled.reverse();
        shuffled.swap(3, 17);
        shuffled.rotate_left(11);
        let outsider = (0..144)
            .find(|v| set.nodes().binary_search(v).is_err())
            .unwrap();
        let mut out = vec![Some(1)];
        for (sources, case) in [(vec![5], "row"), (vec![0, 77, 143], "3 rows")] {
            session.distances(&sources, &shuffled, &mut out);
            assert_exact(&g, &mut d, &sources, &shuffled, &out, case);
            session.distances(&shuffled, &sources, &mut out);
            assert_exact(
                &g,
                &mut d,
                &shuffled,
                &sources,
                &out,
                &format!("flipped {case}"),
            );
        }
        session.one_to_many(outsider, &shuffled, &mut out);
        assert_exact(&g, &mut d, &[outsider], &shuffled, &out, "one_to_many");
        session.distances(&shuffled, &shuffled, &mut out);
        assert_exact(&g, &mut d, &shuffled, &shuffled, &out, "set x set");
        assert!(!session.interrupted());
        assert_eq!(built(&session), 0, "a whole set needs no selection");

        let mut plus = shuffled.clone();
        plus.push(outsider);
        let minus = shuffled[1..].to_vec();
        let mut repeated = shuffled.clone();
        repeated.push(shuffled[4]);
        let mut swapped = shuffled.clone();
        swapped[0] = shuffled[1];
        for (list, case) in [
            (plus, "plus one"),
            (minus, "minus one"),
            (repeated, "repeated member"),
            (swapped, "a member for another"),
        ] {
            let mut session = backend.many_session(&g);
            session.distances(&[9], &list, &mut out);
            assert_exact(&g, &mut d, &[9], &list, &out, case);
            assert_eq!(built(&session), 1, "{case} must take the sweep");
            session.distances(&list, &[9, 70], &mut out);
            assert_exact(
                &g,
                &mut d,
                &list,
                &[9, 70],
                &out,
                &format!("flipped {case}"),
            );
            assert!(!session.interrupted());
        }
    }

    /// A whole-set table cut after any number of budget charges is all
    /// `None` and reported as interrupted; the next request is exact.
    #[test]
    fn a_whole_set_table_cut_anywhere_leaves_the_next_exact() {
        let g = grid_graph(9, 9);
        let (backend, set) = backend_with_pois(&g);
        let mut session = backend.many_session(&g);
        let mut d = Dijkstra::new(g.num_nodes());
        let set = set.nodes().to_vec();
        for (sources, targets) in [(vec![40, 3], set.clone()), (set.clone(), vec![40, 3])] {
            let mut out = Vec::new();
            session.distances(&sources, &targets, &mut out);
            let charges = session.own_budget.spent();
            assert!(charges > 2, "one charge per settled rank");
            for cap in 0..charges {
                session.set_budget(&QueryBudget::unlimited().with_node_cap(cap));
                out = vec![Some(1)];
                session.distances(&sources, &targets, &mut out);
                assert!(session.interrupted(), "cap {cap}");
                assert_eq!(out, vec![None; sources.len() * targets.len()], "cap {cap}");
                session.set_budget(&QueryBudget::unlimited());
                session.distances(&sources, &targets, &mut out);
                assert!(!session.interrupted());
                assert_exact(
                    &g,
                    &mut d,
                    &sources,
                    &targets,
                    &out,
                    &format!("after cap {cap}"),
                );
            }
            session.set_budget(&QueryBudget::unlimited().with_node_cap(charges));
            session.distances(&sources, &targets, &mut out);
            assert!(!session.interrupted(), "exactly enough budget");
            session.set_budget(&QueryBudget::unlimited());
        }
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
