//! Target-restricted PHAST (RPHAST) and frontier-driven range over the
//! flat CH search graph.
//!
//! A point-to-point CH query explores two tiny upward cones; answering
//! `dist(s, t)` for *many* targets that way repeats the forward cone and
//! pays a heap-ordered backward cone per target. The PHAST observation
//! (Delling et al.) is that after one upward Dijkstra from `s`, the
//! downward half needs no priority queue: scanning vertices in
//! **descending rank order** and relaxing each vertex's upward edges
//! *backwards* (`dist[r] = min(dist[r], dist[head] + w)`) finalises every
//! vertex, because each shortest path in a CH is up-down — its apex is
//! settled exactly by the upward search, and each vertex on the downward
//! leg is reached from a strictly higher rank the scan has already
//! finalised. On an undirected network the upward adjacency is its own
//! transpose, so one CSR half serves both phases.
//!
//! # Selections
//!
//! A full scan finalises all `n` vertices whatever was asked. The value
//! at a target depends only on the vertices that can reach it going
//! *down* — its **reverse-upward closure**: the target, the heads of its
//! upward edges, their heads, and so on. A **selection** is that closure
//! for a whole target set, compacted into its own CSR: members in
//! descending rank order (slot `i` ↔ `rank[i]`), each with its upward
//! edges rewritten to *slots* (every head of a member is a member, and
//! outranks it, so its slot is smaller), plus the slot of every target.
//! A query is then
//!
//! 1. an upward search from the source on the workspace's
//!    [`UpwardSearch`], which resets only what its previous search
//!    touched, so there is no O(n) fill;
//! 2. **one linear pass over the selection**: slot `i` takes the minimum
//!    of the search's label at `rank[i]` and `local[head] + w` over its
//!    edges — one budget charge per swept member.
//!
//! Selecting every vertex is the classic full PHAST sweep; it needs no
//! code of its own. There is one sweep loop in this crate.
//!
//! # The memo
//!
//! Building a selection costs about as much as sweeping it a few times,
//! and callers repeat target sets (one depot list, many sources), so a
//! workspace keeps its last [`MEMO_SLOTS`] selections in an LRU holding
//! at most [`MEMO_BYTES`]. The key is the target **set**: the targets'
//! ranks, sorted and deduplicated — request order, rotation and
//! duplicates do not matter. A selection that alone exceeds the byte cap
//! is used once and dropped. The memo lives in the workspace, the
//! workspace in a serving session, and sessions are rebuilt at every
//! epoch swap, so a selection can never outlive the hierarchy it was
//! cut from.
//!
//! # Range
//!
//! [`OneToMany::range`] does not walk the hierarchy top to bottom at
//! all. After an upward search pruned at `limit`, the settled vertices
//! are marked in a rank bitset; marked ranks are then processed in
//! descending order, each *pushing* `dist + w` along its downward edges
//! into the same search's labels ([`UpwardSearch::lower`]) and marking a
//! lower vertex only when the pushed value is within `limit`. Every
//! value ever written is the length of a real path, so every marked
//! vertex lies in the ball and the work is proportional to the ball,
//! not to `n`.
//!
//! Pruning at `limit` is exact: if `dist(s, v) ≤ limit`, every vertex on
//! `v`'s shortest up-down path is at most that far from `s` (a prefix of
//! a shortest path is shortest). The upward leg is therefore settled
//! with exact labels before the search stops, and by induction down the
//! other leg each vertex receives its exact distance from a predecessor
//! that was marked, processed earlier (it outranks its successor) and
//! pushed a value `≤ limit`. When a rank is popped every in-range head
//! has already pushed into it, so its value is final and it is emitted
//! on the spot.

use spq_ch::{ContractionHierarchy, SearchGraph, UpwardSearch, Visit};
use spq_graph::backend::QueryBudget;
use spq_graph::types::{Dist, NodeId, Weight, INFINITY};

/// Selections a workspace remembers.
pub const MEMO_SLOTS: usize = 8;

/// Bytes of selections a workspace keeps between queries. On the
/// 100k-vertex benchmark network the selection of 1 024 POIs takes
/// 0.4 MB and the one of every vertex 6.1 MB; the cap leaves room for
/// [`MEMO_SLOTS`] depot lists while bounding what one session can pin on
/// a continental network.
pub const MEMO_BYTES: usize = 8 << 20;

/// A set of ranks that hands its members back in descending order: a
/// bitset with a one-bit-per-word summary above it, so finding the next
/// member skips 4 096 empty ranks per summary word.
#[derive(Debug, Default)]
struct RankSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    /// No summary word at or above this index is non-zero.
    hi: usize,
}

impl RankSet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        RankSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            hi: 0,
        }
    }

    /// Adds `r`; `false` if it was already a member.
    #[inline]
    fn insert(&mut self, r: u32) -> bool {
        let w = (r >> 6) as usize;
        let bit = 1u64 << (r & 63);
        let old = self.words[w];
        if old & bit != 0 {
            return false;
        }
        self.words[w] = old | bit;
        if old == 0 {
            self.summary[w >> 6] |= 1u64 << (w & 63);
            self.hi = self.hi.max((w >> 6) + 1);
        }
        true
    }

    /// Removes and returns the largest member.
    #[inline]
    fn pop_max(&mut self) -> Option<u32> {
        while self.hi > 0 {
            let s = self.hi - 1;
            let summary = self.summary[s];
            if summary == 0 {
                self.hi = s;
                continue;
            }
            let w = (s << 6) + (63 - summary.leading_zeros() as usize);
            let bit = 63 - self.words[w].leading_zeros();
            self.words[w] &= !(1u64 << bit);
            if self.words[w] == 0 {
                self.summary[s] &= !(1u64 << (w & 63));
            }
            return Some(((w as u32) << 6) + bit);
        }
        None
    }
}

/// One upward edge of a selection member, head rewritten to a slot.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct SlotEdge {
    head: u32,
    weight: Weight,
}

/// The reverse-upward closure of a target set as its own
/// descending-rank CSR (module docs).
#[derive(Debug, Default)]
struct Selection {
    /// The memo key: target ranks, descending, deduplicated.
    key: Vec<u32>,
    /// `key_slot[i]` is the slot of `key[i]`.
    key_slot: Vec<u32>,
    /// Member ranks, descending.
    rank: Vec<u32>,
    /// CSR offsets into `edges`, one per member plus the end.
    first: Vec<u32>,
    edges: Vec<SlotEdge>,
}

impl Selection {
    fn clear(&mut self) {
        self.key.clear();
        self.key_slot.clear();
        self.rank.clear();
        self.first.clear();
        self.edges.clear();
    }

    /// Heap bytes held (capacities, since that is what the process pays).
    fn bytes(&self) -> usize {
        4 * (self.key.capacity()
            + self.key_slot.capacity()
            + self.rank.capacity()
            + self.first.capacity())
            + std::mem::size_of::<SlotEdge>() * self.edges.capacity()
    }
}

/// The per-workspace LRU of selections, most recently used first.
#[derive(Debug)]
struct Memo {
    entries: Vec<Selection>,
    /// Buffers of the last evicted selection, reused by the next build
    /// so that a stream of one-off target sets does not churn the
    /// allocator.
    spare: Option<Selection>,
    cap_bytes: usize,
    built: u64,
}

impl Memo {
    fn new() -> Self {
        Memo {
            entries: Vec::new(),
            spare: None,
            cap_bytes: MEMO_BYTES,
            built: 0,
        }
    }

    /// Moves the selection keyed `key` to the front; `false` on a miss.
    fn find(&mut self, key: &[u32]) -> bool {
        match self.entries.iter().position(|sel| sel.key == key) {
            Some(at) => {
                self.entries[..=at].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Empty buffers to build the next selection into.
    fn blank(&mut self) -> Selection {
        let mut sel = self.spare.take().unwrap_or_default();
        sel.clear();
        sel
    }

    fn recycle(&mut self, sel: Selection) {
        if sel.bytes() <= self.cap_bytes {
            self.spare = Some(sel);
        }
    }

    /// Puts a freshly built selection at the front. The byte cap is
    /// enforced by [`Memo::trim`] once the query that needed it is done.
    fn admit(&mut self, sel: Selection) {
        self.built += 1;
        if self.entries.len() == MEMO_SLOTS {
            let evicted = self.entries.pop().expect("MEMO_SLOTS > 0");
            self.recycle(evicted);
        }
        self.entries.insert(0, sel);
    }

    fn bytes(&self) -> usize {
        self.entries.iter().map(Selection::bytes).sum()
    }

    /// Evicts least-recently-used selections until the cap holds — the
    /// front one too if it alone is over.
    fn trim(&mut self) {
        while self.bytes() > self.cap_bytes {
            let evicted = self.entries.pop().expect("bytes() > 0 implies an entry");
            self.recycle(evicted);
        }
    }
}

/// One row against `sel`: an upward search from `s` (one budget charge
/// per settled vertex), then the one sweep loop — a linear pass over
/// `sel`, each slot taking the minimum of its upward label and
/// `local[head] + w`; every head has a smaller slot, so it is already
/// final.
fn sweep(
    search: &mut UpwardSearch,
    local: &mut Vec<Dist>,
    sel: &Selection,
    s: NodeId,
    budget: &mut QueryBudget,
) -> bool {
    let mut ok = true;
    search.run(search.graph().rank_of(s), |_, _, _| {
        ok = budget.charge();
        if ok {
            Visit::Expand(INFINITY)
        } else {
            Visit::Stop
        }
    });
    if !ok {
        return false;
    }
    let m = sel.rank.len();
    if local.len() < m {
        local.resize(m, INFINITY);
    }
    let local = &mut local[..m];
    for i in 0..m {
        if !budget.charge() {
            return false;
        }
        let mut d = search.label(sel.rank[i]).unwrap_or(INFINITY);
        for e in &sel.edges[sel.first[i] as usize..sel.first[i + 1] as usize] {
            d = d.min(local[e.head as usize] + e.weight as Dist);
        }
        local[i] = d;
    }
    true
}

/// A reusable one-to-many / table / range workspace bound to one
/// hierarchy.
///
/// Like `ChQuery`, construction allocates nothing; the n-sized arrays
/// appear on the first query and are reused afterwards. A repeated
/// target set and a repeated range allocate nothing at all. One
/// workspace per worker thread.
#[derive(Debug)]
pub struct OneToMany<'a> {
    sg: &'a SearchGraph,
    /// The upward search of every query; a range also pushes its
    /// labels down the hierarchy.
    search: UpwardSearch<'a>,
    /// Slot-indexed results of the last sweep.
    local: Vec<Dist>,
    /// Closure marks while compacting, frontier while ranging; empty
    /// between queries.
    marks: RankSet,
    /// Rank → slot: for every member while a selection is compacted,
    /// for the targets while a table is answered from it; stale
    /// elsewhere and never read there.
    slot_of: Vec<u32>,
    /// The closure's DFS stack.
    stack: Vec<u32>,
    /// The memo key of the request being answered.
    key: Vec<u32>,
    memo: Memo,
    budget: QueryBudget,
}

/// Reverse-upward closure of `seeds` (ranks), compacted into `sel`
/// (whose `key` the caller has set). One budget charge per member;
/// `false` — with `marks` emptied — if it tripped.
fn compact(
    sg: &SearchGraph,
    seeds: impl IntoIterator<Item = u32>,
    marks: &mut RankSet,
    stack: &mut Vec<u32>,
    slot_of: &mut [u32],
    budget: &mut QueryBudget,
    sel: &mut Selection,
) -> bool {
    stack.clear();
    for seed in seeds {
        if marks.insert(seed) {
            stack.push(seed);
        }
        while let Some(r) = stack.pop() {
            if !budget.charge() {
                while marks.pop_max().is_some() {}
                return false;
            }
            for e in sg.up(r) {
                if marks.insert(e.target) {
                    stack.push(e.target);
                }
            }
        }
    }
    while let Some(r) = marks.pop_max() {
        slot_of[r as usize] = sel.rank.len() as u32;
        sel.rank.push(r);
        sel.first.push(sel.edges.len() as u32);
        // Heads outrank `r`, so their slots are already assigned.
        sel.edges.extend(sg.up(r).iter().map(|e| SlotEdge {
            head: slot_of[e.target as usize],
            weight: e.weight,
        }));
    }
    sel.first.push(sel.edges.len() as u32);
    sel.key_slot
        .extend(sel.key.iter().map(|&r| slot_of[r as usize]));
    true
}

impl<'a> OneToMany<'a> {
    /// Creates a workspace over `ch`'s search graph. Allocation is
    /// deferred to the first query.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        let sg = ch.search_graph();
        OneToMany {
            sg,
            search: UpwardSearch::new(sg),
            local: Vec::new(),
            marks: RankSet::default(),
            slot_of: Vec::new(),
            stack: Vec::new(),
            key: Vec::new(),
            memo: Memo::new(),
            budget: QueryBudget::unlimited(),
        }
    }

    /// The workspace's upward search, for a caller that runs its own
    /// upward queries beside this one's (a session's kNN).
    pub fn search(&mut self) -> &mut UpwardSearch<'a> {
        &mut self.search
    }

    /// Installs the cancellation budget subsequent queries execute
    /// under: one charge per closure member when a selection is built,
    /// one per settled vertex in the upward phase, one per swept member
    /// (per vertex of the ball, for a range).
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether the most recent query was cut short by its budget (its
    /// results were discarded, not partially exposed).
    pub fn interrupted(&self) -> bool {
        self.budget.exhausted()
    }

    /// Selections built so far — a query that found its target set in
    /// the memo does not move this.
    pub fn selections_built(&self) -> u64 {
        self.memo.built
    }

    /// Bytes of memoised selections currently held (at most
    /// [`MEMO_BYTES`] between queries).
    pub fn memo_bytes(&self) -> usize {
        self.memo.bytes()
    }

    /// Starts a query: fresh budget, n-sized arrays in place.
    fn begin(&mut self) {
        self.budget.reset();
        let n = self.sg.num_nodes();
        if self.slot_of.len() < n {
            self.marks = RankSet::new(n);
            self.slot_of = vec![0; n];
        }
    }

    /// Fills `out` row-major with `dist(sources[i], targets[j])` — one
    /// restricted sweep per source over the targets' selection, which is
    /// fetched from the memo or built and memoised. Returns `false`
    /// (with `out` cleared) if the budget tripped.
    pub fn table(
        &mut self,
        sources: &[NodeId],
        targets: &[NodeId],
        out: &mut Vec<Option<Dist>>,
    ) -> bool {
        out.clear();
        self.begin();
        if sources.is_empty() || targets.is_empty() {
            return true;
        }
        let sg = self.sg;
        // The key — distinct target ranks, descending — falls out of
        // the rank set without a comparison sort.
        for &t in targets {
            self.marks.insert(sg.rank_of(t));
        }
        self.key.clear();
        while let Some(r) = self.marks.pop_max() {
            self.key.push(r);
        }
        if !self.memo.find(&self.key) {
            let mut sel = self.memo.blank();
            sel.key.extend_from_slice(&self.key);
            if !compact(
                sg,
                self.key.iter().copied(),
                &mut self.marks,
                &mut self.stack,
                &mut self.slot_of,
                &mut self.budget,
                &mut sel,
            ) {
                self.memo.recycle(sel);
                return false;
            }
            self.memo.admit(sel);
        }
        let sel = &self.memo.entries[0];
        for (&r, &slot) in sel.key.iter().zip(&sel.key_slot) {
            self.slot_of[r as usize] = slot;
        }
        let mut ok = true;
        for &s in sources {
            ok = sweep(&mut self.search, &mut self.local, sel, s, &mut self.budget);
            if !ok {
                out.clear();
                break;
            }
            out.extend(targets.iter().map(|&t| {
                let d = self.local[self.slot_of[sg.rank_of(t) as usize] as usize];
                (d < INFINITY).then_some(d)
            }));
        }
        self.memo.trim();
        ok
    }

    /// Network range query: fills `out` with every `(vertex, distance)`
    /// within `limit` of `s`, ascending by vertex id. Returns `false`
    /// (with `out` cleared) if the budget tripped. The module docs
    /// explain the frontier and why pruning at `limit` is exact.
    pub fn range(&mut self, s: NodeId, limit: Dist, out: &mut Vec<(NodeId, Dist)>) -> bool {
        out.clear();
        self.begin();
        let sg = self.sg;
        let (marks, budget) = (&mut self.marks, &mut self.budget);
        let mut ok = true;
        self.search.run(sg.rank_of(s), |_, r, _| {
            ok = budget.charge();
            if !ok {
                return Visit::Stop;
            }
            marks.insert(r);
            Visit::Expand(limit)
        });
        while let Some(r) = self.marks.pop_max() {
            // Once the budget has tripped the frontier is only drained.
            ok = ok && self.budget.charge();
            if !ok {
                continue;
            }
            let d = self.search.label(r).expect("a marked rank is labelled");
            out.push((sg.orig_of(r), d));
            for e in sg.down(r) {
                let pushed = d + e.weight as Dist;
                if pushed <= limit && self.search.lower(e.target, pushed) {
                    self.marks.insert(e.target);
                }
            }
        }
        if !ok {
            out.clear();
            return false;
        }
        out.sort_unstable_by_key(|&(v, _)| v);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};
    use spq_graph::RoadNetwork;

    fn row(o2m: &mut OneToMany<'_>, s: NodeId, targets: &[NodeId]) -> Vec<Option<Dist>> {
        let mut out = Vec::new();
        assert!(o2m.table(&[s], targets, &mut out));
        out
    }

    fn oracle_row(g: &RoadNetwork, s: NodeId, targets: &[NodeId]) -> Vec<Option<Dist>> {
        let mut d = Dijkstra::new(g.num_nodes());
        d.run(g, s);
        targets.iter().map(|&t| d.distance(t)).collect()
    }

    #[test]
    fn rank_set_pops_descending_across_summary_words() {
        let mut set = RankSet::new(10_000);
        let members = [0u32, 1, 63, 64, 4095, 4096, 4097, 8191, 9999];
        for &r in members.iter().rev().chain(&members) {
            set.insert(r);
        }
        assert!(!set.insert(4096), "already a member");
        let mut popped = Vec::new();
        while let Some(r) = set.pop_max() {
            popped.push(r);
            if r == 4097 {
                // Inserting below the cursor mid-drain, as range does.
                assert!(set.insert(70));
            }
        }
        assert_eq!(popped, [9999, 8191, 4097, 4096, 4095, 70, 64, 63, 1, 0]);
        assert!(set.insert(5), "drained set is reusable");
        assert_eq!(set.pop_max(), Some(5));
        assert_eq!(set.pop_max(), None);
    }

    /// Every vertex as a target: the selection of everything, swept
    /// from every source — the classic full PHAST sweep.
    fn check_all_sources(g: &RoadNetwork) {
        let ch = ContractionHierarchy::build(g);
        let mut o2m = OneToMany::new(&ch);
        let everyone: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        for s in 0..g.num_nodes() as NodeId {
            assert_eq!(
                row(&mut o2m, s, &everyone),
                oracle_row(g, s, &everyone),
                "source {s}"
            );
        }
        assert_eq!(o2m.selections_built(), 1);
    }

    /// What a query leaves on the shared upward search must not reach
    /// the next one: a search that settles only its root leaves only the
    /// root labelled, whatever was cut, extended or pushed down before.
    fn assert_search_resets(o2m: &mut OneToMany, case: &str) {
        o2m.search.run(0, |_, _, _| Visit::Stop);
        let n = o2m.sg.num_nodes() as u32;
        assert!(
            (1..n).all(|r| o2m.search.label(r).is_none()),
            "{case}: a label outlived its query"
        );
    }

    #[test]
    fn every_vertex_table_exact_on_paper_figure_and_grid() {
        check_all_sources(&figure1());
        check_all_sources(&grid_graph(7, 9));
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = grid_graph(6, 6);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        assert!(o2m.slot_of.is_empty(), "construction must not allocate");
        let everyone: Vec<NodeId> = (0..36).collect();
        let first = row(&mut o2m, 0, &everyone);
        assert_eq!(first, oracle_row(&g, 0, &everyone));
        row(&mut o2m, 35, &everyone);
        let mut ball = Vec::new();
        assert!(o2m.range(20, 3, &mut ball));
        // Nothing of the row from 35 or the range may leak.
        assert_eq!(row(&mut o2m, 0, &everyone), first);
        assert!(o2m.range(20, 3, &mut ball));
        assert_search_resets(&mut o2m, "after a range");
    }

    #[test]
    fn restricted_rows_match_every_vertex_rows_and_oracle() {
        let g = grid_graph(9, 8);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let everyone: Vec<NodeId> = (0..72).collect();
        for (s, targets) in [
            (3u32, vec![0u32, 71, 17, 3, 17]),
            (40, vec![40]),
            (71, everyone.clone()),
            (0, vec![5, 5, 5]),
        ] {
            let got = row(&mut o2m, s, &targets);
            assert_eq!(got, oracle_row(&g, s, &targets), "source {s}");
            let full = row(&mut o2m, s, &everyone);
            let picked: Vec<_> = targets.iter().map(|&t| full[t as usize]).collect();
            assert_eq!(got, picked);
        }
        let mut out = vec![Some(1)];
        assert!(o2m.table(&[1, 2], &[], &mut out));
        assert!(out.is_empty(), "no targets, no cells");
    }

    #[test]
    fn multi_source_table_is_row_major() {
        let g = grid_graph(6, 7);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let (sources, targets) = ([41u32, 0, 13], [7u32, 7, 30, 2]);
        let mut out = Vec::new();
        assert!(o2m.table(&sources, &targets, &mut out));
        let expect: Vec<_> = sources
            .iter()
            .flat_map(|&s| oracle_row(&g, s, &targets))
            .collect();
        assert_eq!(out, expect);
        assert_eq!(o2m.selections_built(), 1, "one selection serves every row");
    }

    #[test]
    fn memo_key_is_the_target_set() {
        let g = grid_graph(10, 10);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let depots = [4u32, 99, 17, 60, 33];
        row(&mut o2m, 0, &depots);
        assert_eq!(o2m.selections_built(), 1);
        // Another source, a rotation, a permutation with duplicates:
        // all the same set.
        for (s, list) in [
            (50u32, vec![4u32, 99, 17, 60, 33]),
            (7, vec![60, 33, 4, 99, 17]),
            (8, vec![33, 33, 17, 4, 60, 99, 4]),
        ] {
            assert_eq!(row(&mut o2m, s, &list), oracle_row(&g, s, &list));
            assert_eq!(o2m.selections_built(), 1, "{list:?} must hit");
        }
        // A subset is a different set.
        row(&mut o2m, 0, &depots[..4]);
        assert_eq!(o2m.selections_built(), 2);
    }

    #[test]
    fn memo_evicts_least_recently_used_then_rebuilds() {
        let g = grid_graph(10, 10);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let set = |i: u32| [i, i + 10, i + 20];
        for i in 0..MEMO_SLOTS as u32 {
            row(&mut o2m, 0, &set(i));
        }
        row(&mut o2m, 1, &set(0)); // refresh the oldest
        assert_eq!(o2m.selections_built(), MEMO_SLOTS as u64);
        row(&mut o2m, 2, &set(50)); // evicts set(1), now the oldest
        assert_eq!(o2m.memo.entries.len(), MEMO_SLOTS);
        row(&mut o2m, 3, &set(0));
        assert_eq!(o2m.selections_built(), MEMO_SLOTS as u64 + 1, "set(0) kept");
        assert_eq!(row(&mut o2m, 4, &set(1)), oracle_row(&g, 4, &set(1)));
        assert_eq!(
            o2m.selections_built(),
            MEMO_SLOTS as u64 + 2,
            "set(1) rebuilt"
        );
    }

    #[test]
    fn memo_respects_its_byte_cap() {
        let g = grid_graph(12, 12);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let small = [0u32, 1];
        row(&mut o2m, 5, &small);
        let one = o2m.memo_bytes();
        assert!(one > 0);
        // Room for two small selections and nothing more.
        o2m.memo.cap_bytes = 2 * one + one / 2;
        for i in 0..6u32 {
            row(&mut o2m, 9, &[i * 20, i * 20 + 1]);
            assert!(o2m.memo_bytes() <= o2m.memo.cap_bytes);
        }
        assert!(o2m.memo.entries.len() <= 2);
        // A selection over the cap by itself is used, answers exactly,
        // and is not kept.
        let everyone: Vec<NodeId> = (0..144).collect();
        let built = o2m.selections_built();
        assert_eq!(row(&mut o2m, 77, &everyone), oracle_row(&g, 77, &everyone));
        assert_eq!(o2m.selections_built(), built + 1);
        assert!(o2m.memo_bytes() <= o2m.memo.cap_bytes);
        assert!(o2m.memo.entries.iter().all(|sel| sel.key.len() == 2));
        row(&mut o2m, 78, &everyone);
        assert_eq!(
            o2m.selections_built(),
            built + 2,
            "oversized: rebuilt each time"
        );
    }

    #[test]
    fn range_matches_truncated_dijkstra() {
        let g = grid_graph(8, 8);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let mut d = Dijkstra::new(g.num_nodes());
        for (s, limit) in [
            (0u32, 0u64),
            (0, 3),
            (27, 5),
            (63, 1_000_000),
            (9, u64::MAX),
        ] {
            let mut got = vec![(0, 0)];
            assert!(o2m.range(s, limit, &mut got));
            d.run(&g, s);
            let expect: Vec<(NodeId, Dist)> = (0..g.num_nodes() as NodeId)
                .filter_map(|v| d.distance(v).filter(|&x| x <= limit).map(|x| (v, x)))
                .collect();
            assert_eq!(got, expect, "source {s} limit {limit}");
        }
    }

    /// Trips the budget after every possible number of charges: in the
    /// selection build, in the upward search, in the sweep.
    #[test]
    fn budget_trip_anywhere_clears_out_and_spares_the_memo() {
        let g = grid_graph(10, 10);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let kept = [3u32, 96, 50];
        let kept_row = row(&mut o2m, 11, &kept);
        let targets = [0u32, 99, 45, 45, 12];
        let expect = oracle_row(&g, 20, &targets);
        let mut out = Vec::new();
        let mut cap = 0;
        loop {
            o2m.set_budget(&QueryBudget::unlimited().with_node_cap(cap));
            if o2m.table(&[20], &targets, &mut out) {
                break;
            }
            assert!(o2m.interrupted());
            assert!(out.is_empty(), "cap {cap}: interrupted table leaked cells");
            assert!(
                o2m.marks.pop_max().is_none(),
                "cap {cap}: marks left behind"
            );
            assert_search_resets(&mut o2m, &format!("table cap {cap}"));
            cap += 1;
        }
        assert!(cap > 10, "the loop must have tripped inside every phase");
        assert_eq!(out, expect);
        // Same walk through a range.
        let mut ball = Vec::new();
        let mut cap = 0;
        loop {
            o2m.set_budget(&QueryBudget::unlimited().with_node_cap(cap));
            if o2m.range(20, 4, &mut ball) {
                break;
            }
            assert!(
                ball.is_empty(),
                "cap {cap}: interrupted range leaked entries"
            );
            assert!(
                o2m.marks.pop_max().is_none(),
                "cap {cap}: frontier left behind"
            );
            assert_search_resets(&mut o2m, &format!("range cap {cap}"));
            cap += 1;
        }
        assert!(cap > 5);
        // The memo still answers exactly, without rebuilding.
        o2m.set_budget(&QueryBudget::unlimited());
        let built = o2m.selections_built();
        assert_eq!(row(&mut o2m, 11, &kept), kept_row);
        assert_eq!(row(&mut o2m, 20, &targets), expect);
        assert_eq!(o2m.selections_built(), built);
        assert!(!o2m.interrupted());
    }

    #[test]
    fn budget_interrupts_every_vertex_table_and_recovers() {
        let g = grid_graph(10, 10);
        let ch = ContractionHierarchy::build(&g);
        let mut o2m = OneToMany::new(&ch);
        let everyone: Vec<NodeId> = (0..100).collect();
        let mut out = Vec::new();
        o2m.set_budget(&QueryBudget::unlimited().with_node_cap(5));
        assert!(
            !o2m.table(&[0], &everyone, &mut out),
            "5 charges cannot select 100 ranks"
        );
        assert!(o2m.interrupted());
        assert!(out.is_empty());
        assert_eq!(o2m.selections_built(), 0);
        // Enough to select everything once, not to sweep it as well.
        o2m.set_budget(&QueryBudget::unlimited().with_node_cap(150));
        assert!(!o2m.table(&[0], &everyone, &mut out));
        assert!(out.is_empty());
        assert_eq!(o2m.selections_built(), 1);
        o2m.set_budget(&QueryBudget::unlimited());
        assert!(o2m.table(&[0], &everyone, &mut out));
        assert!(!o2m.interrupted());
        assert_eq!(out, oracle_row(&g, 0, &everyone));
        assert_eq!(o2m.selections_built(), 1, "the selection survived the trip");
    }
}
