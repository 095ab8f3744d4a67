//! POI sets and the bucket-CH kNN index built over them.
//!
//! A **POI set** is a named, immutable list of vertices (restaurants,
//! chargers, depots) registered with the server ahead of queries. The
//! kNN engine is the classic bucket technique run *offline*: one upward
//! search per POI deposits `(poi, distance)` entries at every vertex of
//! its search space, stored as one flat CSR over ranks. A query is then
//! a single upward search from the source plus a merge of the buckets
//! it settles — `dist(s, p) = min over settled r of d↑(s, r) + d↑(p, r)`,
//! exact because every shortest path in a CH is up-down and the network
//! is undirected (the backward cone from a POI *is* its upward cone).
//! Both are `spq_ch`'s one [`UpwardSearch`]: the build collects each
//! POI's search space, the query merges buckets from its visitor.
//!
//! The search stops early. While it runs, the k smallest per-POI
//! candidates seen so far are kept in a heap whose largest member is a
//! **bound** on the final k-th distance; it only ever falls. Buckets are
//! sorted by distance at build time, so a merge breaks at the first
//! entry whose total exceeds the bound, the visitor hands the bound to
//! the search as its relaxation limit, and stops it when the popped key
//! passes the bound. Both tests are *strictly greater*: a candidate that
//! ties the bound may still win its place under the `(distance, vertex)`
//! order. Nothing exact is lost — a POI whose true distance is within
//! the final bound has an apex no farther than that, which is popped,
//! and a bucket entry there whose total is that distance, which is not
//! skipped.
//!
//! Persistence stores only the set itself (`SPQP` container): buckets
//! depend on the serving hierarchy, so they are rebuilt at registration
//! time against whatever CH the epoch publishes — this is what makes a
//! registered set survive a hot index swap unchanged.

use std::io::{self, Read, Write};

use spq_ch::{ContractionHierarchy, UpwardSearch, Visit};
use spq_graph::backend::QueryBudget;
use spq_graph::binio::{self, IndexLoadError};
use spq_graph::heap::IndexedHeap;
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::{par, RoadNetwork};

const MAGIC: &[u8; 4] = b"SPQP";
const VERSION: u32 = 1;

/// Longest accepted set name. Names appear in reload-spec lines and
/// STATS output, so they are kept short and shell-safe.
pub const MAX_POI_NAME: usize = 64;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_POI_NAME
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

/// A named, validated set of POI vertices for one network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoiSet {
    name: String,
    /// Vertex count of the network the set was sampled from — a load
    /// against a different network is rejected instead of answering
    /// nonsense.
    net_nodes: u64,
    /// Sorted, deduplicated vertex ids.
    nodes: Vec<NodeId>,
}

impl PoiSet {
    /// Builds a set from raw vertices, sorting and deduplicating them.
    pub fn new(name: &str, net_nodes: usize, mut nodes: Vec<NodeId>) -> Result<PoiSet, String> {
        if !valid_name(name) {
            return Err(format!(
                "invalid POI set name {name:?}: 1..={MAX_POI_NAME} chars of [A-Za-z0-9_.-]"
            ));
        }
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.is_empty() {
            return Err(format!("POI set {name:?} is empty"));
        }
        if let Some(&v) = nodes.last() {
            if v as u64 >= net_nodes as u64 {
                return Err(format!(
                    "POI set {name:?} names vertex {v} but the network has {net_nodes} vertices"
                ));
            }
        }
        Ok(PoiSet {
            name: name.to_string(),
            net_nodes: net_nodes as u64,
            nodes,
        })
    }

    /// Deterministically samples `count` distinct vertices of `net`.
    pub fn sample(
        net: &RoadNetwork,
        name: &str,
        count: usize,
        seed: u64,
    ) -> Result<PoiSet, String> {
        let n = net.num_nodes();
        if count == 0 || count > n {
            return Err(format!(
                "cannot sample {count} POIs from a {n}-vertex network"
            ));
        }
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut nodes = Vec::with_capacity(count);
        while nodes.len() < count {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) % n as u64) as NodeId;
            if !nodes.contains(&v) {
                nodes.push(v);
            }
        }
        PoiSet::new(name, n, nodes)
    }

    /// The set's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The POI vertices, sorted ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of POIs in the set.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty (never true for a validated set).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rejects the set if it was sampled from a different network than
    /// the one about to serve it.
    pub fn validate_for(&self, net_nodes: usize) -> Result<(), String> {
        if self.net_nodes != net_nodes as u64 {
            return Err(format!(
                "POI set {:?} was built for a {}-vertex network, not {net_nodes}",
                self.name, self.net_nodes
            ));
        }
        Ok(())
    }

    /// Serialises the set inside a checksummed `SPQP` container.
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        binio::write_container(w, MAGIC, VERSION, |w| {
            binio::write_u8s(w, self.name.as_bytes())?;
            binio::write_u64(w, self.net_nodes)?;
            binio::write_u32s(w, &self.nodes)
        })
    }

    /// Deserialises a set written by [`PoiSet::write_binary`], verifying
    /// the checksum and re-validating every structural invariant.
    pub fn read_binary(r: &mut impl Read) -> Result<PoiSet, IndexLoadError> {
        let (name_bytes, net_nodes, nodes) = binio::read_container(r, MAGIC, VERSION, |body| {
            let sections = (body.read_u8s()?, binio::read_u64(body)?, body.read_u32s()?);
            // A vertex list shorter than the body is a lying length
            // prefix, not a smaller set: refuse it as CH and HL do.
            if body.remaining() > 0 {
                return Err(IndexLoadError::Corrupt(format!(
                    "{} bytes follow the last section",
                    body.remaining()
                )));
            }
            Ok(sections)
        })?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| IndexLoadError::Corrupt("POI set name is not UTF-8".into()))?;
        if usize::try_from(net_nodes).is_err() {
            return Err(IndexLoadError::Corrupt(
                "network size overflows usize".into(),
            ));
        }
        let set = PoiSet::new(&name, net_nodes as usize, nodes).map_err(IndexLoadError::Corrupt)?;
        Ok(set)
    }
}

/// The precomputed bucket index for one POI set over one hierarchy.
///
/// `bucket_first` is a CSR over ranks: the entries for rank `r` are
/// `bucket_poi/bucket_dist[bucket_first[r]..bucket_first[r + 1]]`, where
/// `bucket_poi[i]` indexes into the set's vertex list and
/// `bucket_dist[i]` is the upward distance from that POI to `r`;
/// entries of one bucket ascend by `(distance, poi)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoiIndex {
    nodes: Vec<NodeId>,
    bucket_first: Vec<u32>,
    bucket_poi: Vec<u32>,
    bucket_dist: Vec<Dist>,
}

impl PoiIndex {
    /// Builds the bucket index for `set` over `ch`. The upward searches
    /// fan out across the preprocessing worker pool; the deposit order
    /// is fixed by POI index, so the result is byte-identical at any
    /// thread count.
    pub fn build(ch: &ContractionHierarchy, set: &PoiSet) -> Result<PoiIndex, String> {
        let sg = ch.search_graph();
        let n = sg.num_nodes();
        set.validate_for(n)?;
        let settled: Vec<Vec<(u32, Dist)>> = par::par_map(
            set.nodes(),
            || (UpwardSearch::new(sg), Vec::new()),
            |(search, space), &p| {
                search.search_space(sg.rank_of(p), space);
                // Exact-size copies: all of them are held at once.
                space.clone()
            },
        );
        let mut counts = vec![0u32; n + 1];
        for per_poi in &settled {
            for &(r, _) in per_poi {
                counts[r as usize + 1] += 1;
            }
        }
        let mut bucket_first = counts;
        for i in 1..bucket_first.len() {
            bucket_first[i] += bucket_first[i - 1];
        }
        let total = *bucket_first.last().unwrap() as usize;
        let mut cursor: Vec<u32> = bucket_first[..n].to_vec();
        let mut bucket_poi = vec![0u32; total];
        let mut bucket_dist = vec![0 as Dist; total];
        for (j, per_poi) in settled.iter().enumerate() {
            for &(r, d) in per_poi {
                let at = cursor[r as usize] as usize;
                bucket_poi[at] = j as u32;
                bucket_dist[at] = d;
                cursor[r as usize] += 1;
            }
        }
        // Ascending distance within each bucket, so a query's merge can
        // stop at the first entry past its bound.
        let mut bucket: Vec<(Dist, u32)> = Vec::new();
        for r in 0..n {
            let span = bucket_first[r] as usize..bucket_first[r + 1] as usize;
            bucket.clear();
            bucket.extend(
                bucket_dist[span.clone()]
                    .iter()
                    .copied()
                    .zip(bucket_poi[span.clone()].iter().copied()),
            );
            bucket.sort_unstable();
            for (at, &(d, j)) in span.zip(&bucket) {
                bucket_dist[at] = d;
                bucket_poi[at] = j;
            }
        }
        Ok(PoiIndex {
            nodes: set.nodes().to_vec(),
            bucket_first,
            bucket_poi,
            bucket_dist,
        })
    }

    /// The POI vertices the index answers for.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Total bucket entries (index-size accounting).
    pub fn num_bucket_entries(&self) -> usize {
        self.bucket_poi.len()
    }

    /// k nearest POIs from `s`: up to `k` `(poi_vertex, distance)` pairs
    /// ascending by `(distance, vertex id)`, found by one upward search
    /// from `s` on `search` (a workspace over the hierarchy the index
    /// was built on). Returns `false` (with `out` cleared) if the budget
    /// tripped mid-query.
    pub fn knn(
        &self,
        search: &mut UpwardSearch,
        ws: &mut KnnWorkspace,
        s: NodeId,
        k: usize,
        out: &mut Vec<(NodeId, Dist)>,
    ) -> bool {
        out.clear();
        if k == 0 {
            return true;
        }
        ws.begin(self.nodes.len());
        // The k-th smallest candidate so far: `ws.top` holds the k
        // smallest per-POI bests under the key `!total`, so its minimum
        // is the largest of them.
        let mut bound = INFINITY;
        let mut ok = true;
        let root = search.graph().rank_of(s);
        search.run(root, |_, u, d| {
            if d > bound {
                return Visit::Stop;
            }
            if !ws.budget.charge() {
                ok = false;
                return Visit::Stop;
            }
            // Merge this vertex's bucket: each entry closes an up-down
            // path s ↑ u ↓ poi.
            let lo = self.bucket_first[u as usize] as usize;
            let hi = self.bucket_first[u as usize + 1] as usize;
            for i in lo..hi {
                let total = d + self.bucket_dist[i];
                if total > bound {
                    break;
                }
                let j = self.bucket_poi[i];
                let best = &mut ws.best[j as usize];
                if total >= *best {
                    continue;
                }
                if *best == INFINITY {
                    ws.touched.push(j);
                }
                *best = total;
                if ws.top.len() < k || ws.top.contains(j) {
                    ws.top.push_or_update(j, !total);
                } else if total < bound {
                    ws.top.pop_min();
                    ws.top.push_or_update(j, !total);
                }
                if ws.top.len() == k {
                    bound = !ws.top.peek_key().expect("k > 0 entries");
                }
            }
            Visit::Expand(bound)
        });
        if !ok {
            return false;
        }
        // Candidates past the bound may be stale upper estimates; the
        // ones within it are exact (module docs).
        out.extend(
            ws.touched
                .iter()
                .map(|&j| (self.nodes[j as usize], ws.best[j as usize]))
                .filter(|&(_, d)| d <= bound),
        );
        out.sort_unstable_by_key(|&(p, d)| (d, p));
        out.truncate(k);
        true
    }
}

/// Reusable per-thread scratch for bucket kNN queries beside the upward
/// search they run on: a best distance per POI, all `INFINITY` between
/// queries (each query resets the ones it wrote). Lazily sized, so a
/// worker that never serves kNN never allocates it.
#[derive(Debug)]
pub struct KnnWorkspace {
    best: Vec<Dist>,
    /// POIs whose `best` the current query wrote.
    touched: Vec<u32>,
    /// The k smallest per-POI bests of the running query, keyed by
    /// `!total` so that the heap's minimum is the k-th smallest.
    top: IndexedHeap,
    budget: QueryBudget,
}

impl Default for KnnWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl KnnWorkspace {
    /// Creates an empty workspace; arrays appear on first use.
    pub fn new() -> Self {
        KnnWorkspace {
            best: Vec::new(),
            touched: Vec::new(),
            top: IndexedHeap::new(0),
            budget: QueryBudget::unlimited(),
        }
    }

    /// Starts a query over a set of `m` POIs: fresh budget, every best
    /// back to `INFINITY`, room for `m`.
    fn begin(&mut self, m: usize) {
        self.budget.reset();
        for j in self.touched.drain(..) {
            self.best[j as usize] = INFINITY;
        }
        if self.best.len() < m {
            self.best = vec![INFINITY; m];
            self.top = IndexedHeap::new(m);
        }
        self.top.clear();
    }

    /// Installs the cancellation budget subsequent queries run under.
    pub fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }

    /// Whether the most recent query was cut short by its budget.
    pub fn interrupted(&self) -> bool {
        self.budget.exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_dijkstra::Dijkstra;
    use spq_graph::toy::{figure1, grid_graph};

    fn brute_knn(
        g: &RoadNetwork,
        d: &mut Dijkstra,
        s: NodeId,
        k: usize,
        pois: &[NodeId],
    ) -> Vec<(NodeId, Dist)> {
        d.run(g, s);
        let mut all: Vec<(NodeId, Dist)> = pois
            .iter()
            .filter_map(|&p| d.distance(p).map(|x| (p, x)))
            .collect();
        all.sort_unstable_by_key(|&(p, x)| (x, p));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let g = grid_graph(9, 9);
        let ch = ContractionHierarchy::build(&g);
        let set = PoiSet::new("poi", g.num_nodes(), vec![0, 8, 40, 72, 80, 13]).unwrap();
        let idx = PoiIndex::build(&ch, &set).unwrap();
        let mut ws = KnnWorkspace::new();
        let mut search = UpwardSearch::new(ch.search_graph());
        let mut d = Dijkstra::new(g.num_nodes());
        for s in 0..g.num_nodes() as NodeId {
            for k in [1usize, 3, 6, 10] {
                let mut got = Vec::new();
                assert!(idx.knn(&mut search, &mut ws, s, k, &mut got));
                assert_eq!(got, brute_knn(&g, &mut d, s, k, set.nodes()), "s={s} k={k}");
            }
        }
    }

    #[test]
    fn knn_workspace_survives_different_sets() {
        let g = grid_graph(6, 6);
        let ch = ContractionHierarchy::build(&g);
        let small = PoiSet::new("small", 36, vec![0, 35]).unwrap();
        let big = PoiSet::new("big", 36, (0..36).step_by(3).collect()).unwrap();
        let small_idx = PoiIndex::build(&ch, &small).unwrap();
        let big_idx = PoiIndex::build(&ch, &big).unwrap();
        let mut ws = KnnWorkspace::new();
        let mut search = UpwardSearch::new(ch.search_graph());
        let mut d = Dijkstra::new(36);
        for s in [0u32, 17, 35] {
            let mut got = Vec::new();
            assert!(small_idx.knn(&mut search, &mut ws, s, 2, &mut got));
            assert_eq!(got, brute_knn(&g, &mut d, s, 2, small.nodes()));
            assert!(big_idx.knn(&mut search, &mut ws, s, 5, &mut got));
            assert_eq!(got, brute_knn(&g, &mut d, s, 5, big.nodes()));
        }
    }

    #[test]
    fn knn_budget_interrupts() {
        let g = grid_graph(8, 8);
        let ch = ContractionHierarchy::build(&g);
        let set = PoiSet::new("p", 64, vec![0, 63]).unwrap();
        let idx = PoiIndex::build(&ch, &set).unwrap();
        let mut ws = KnnWorkspace::new();
        let mut search = UpwardSearch::new(ch.search_graph());
        ws.set_budget(&QueryBudget::unlimited().with_node_cap(1));
        let mut out = vec![(1u32, 1u64)];
        assert!(!idx.knn(&mut search, &mut ws, 30, 2, &mut out));
        assert!(ws.interrupted());
        assert!(out.is_empty(), "interrupted query must not leak results");
    }

    #[test]
    fn build_is_deterministic_across_threads() {
        let g = grid_graph(7, 7);
        let ch = ContractionHierarchy::build(&g);
        let set = PoiSet::new("p", 49, (0..49).step_by(4).collect()).unwrap();
        let one = par::with_threads(1, || PoiIndex::build(&ch, &set).unwrap());
        let four = par::with_threads(4, || PoiIndex::build(&ch, &set).unwrap());
        assert_eq!(one, four);
    }

    #[test]
    fn set_validation_rejects_bad_inputs() {
        assert!(PoiSet::new("", 10, vec![0]).is_err());
        assert!(PoiSet::new("has space", 10, vec![0]).is_err());
        assert!(PoiSet::new("x", 10, vec![]).is_err());
        assert!(PoiSet::new("x", 10, vec![10]).is_err(), "id out of range");
        let set = PoiSet::new("x", 10, vec![3, 1, 3, 2]).unwrap();
        assert_eq!(set.nodes(), &[1, 2, 3], "sorted and deduplicated");
        assert!(set.validate_for(10).is_ok());
        assert!(set.validate_for(11).is_err());
    }

    #[test]
    fn sample_is_deterministic_and_distinct() {
        let g = figure1();
        let a = PoiSet::sample(&g, "s", 5, 42).unwrap();
        let b = PoiSet::sample(&g, "s", 5, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(PoiSet::sample(&g, "s", 9, 42).is_err(), "more than n");
        let c = PoiSet::sample(&g, "s", 5, 43).unwrap();
        assert_ne!(a.nodes(), c.nodes(), "different seed, different sample");
    }

    #[test]
    fn container_roundtrip_and_rejection() {
        let g = grid_graph(5, 5);
        let set = PoiSet::sample(&g, "chargers", 7, 9).unwrap();
        let mut buf = Vec::new();
        set.write_binary(&mut buf).unwrap();
        let back = PoiSet::read_binary(&mut &buf[..]).unwrap();
        assert_eq!(back, set);
        let mut buf2 = Vec::new();
        back.write_binary(&mut buf2).unwrap();
        assert_eq!(buf2, buf, "write → read → write is byte-stable");

        let mut bad_magic = buf.clone();
        bad_magic[1] ^= 0xff;
        assert!(matches!(
            PoiSet::read_binary(&mut &bad_magic[..]),
            Err(IndexLoadError::BadMagic { .. })
        ));
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x08;
        assert!(matches!(
            PoiSet::read_binary(&mut &flipped[..]),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
        let mut truncated = buf.clone();
        truncated.truncate(truncated.len() - 5);
        assert!(matches!(
            PoiSet::read_binary(&mut &truncated[..]),
            Err(IndexLoadError::Truncated { .. })
        ));
    }

    /// The checksum covers the body, not its meaning: a vertex-count
    /// prefix one short, resealed, must not load as a smaller set.
    #[test]
    fn a_resealed_short_vertex_list_is_refused_not_shortened() {
        let g = grid_graph(5, 5);
        let set = PoiSet::sample(&g, "chargers", 7, 9).unwrap();
        let mut buf = Vec::new();
        set.write_binary(&mut buf).unwrap();
        // header(24) · name prefix(8) + name · network size(8) · count …
        let at = 24 + 8 + set.name().len() + 8;
        let count = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        assert_eq!(count, 7);
        buf[at..at + 8].copy_from_slice(&(count - 1).to_le_bytes());
        let sum = binio::xxhash64(&buf[24..], 1);
        buf[16..24].copy_from_slice(&sum.to_le_bytes());
        match PoiSet::read_binary(&mut &buf[..]) {
            Err(IndexLoadError::Corrupt(why)) => assert!(why.contains("follow"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
