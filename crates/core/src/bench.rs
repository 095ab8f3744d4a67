//! `spq bench` — the query-latency measurement and regression harness.
//!
//! Times the point-to-point distance query of every backend (the five
//! paper techniques plus ALT, arc flags, and hub labeling — the CH and
//! HL kernels on one shared hierarchy, the rest through the registry's
//! own sessions), the CH shortest-path (unpack) kernel, and CH's
//! bucket-based many-to-many, on Table-1 proxy networks. Results go to
//! a JSON report with one entry per line:
//!
//! ```text
//! {"mode":"smoke","network":"DE","vertices":122,"backend":"ch","op":"distance","queries":512,"median_ns":850.2,"ratio":0.2284},
//! ```
//!
//! Two modes live in one file: `full` (Table-1 proxies at 1/40 scale,
//! DE–CO) is the number that matters, `smoke` (1/400 scale, DE–ME) is
//! cheap enough for CI. A default run produces both; `--smoke`
//! restricts to the smoke entries so CI can regenerate them and compare
//! against the committed baseline with [`check_against`].
//!
//! The regression check compares each row's `ratio`: its cost in units
//! of the same run's bidirectional-Dijkstra distance query on the same
//! network, so it tolerates absolute machine-speed differences between
//! the baseline host and the CI runner. Every point-query row, and every
//! one-to-many, kNN and range row (of which the gate compares kNN and
//! range), is timed *interleaved* with Dijkstra, in the same windows (`paired_ns`), so
//! both sides of a ratio see the same machine; the ratio is the median
//! over windows, and windows that lost the CPU are left out. The
//! trade-off: a regression confined to the baseline itself shifts every
//! ratio down instead of tripping its own row, which is why the
//! benchmark also times the Dijkstra kernel on its own
//! (`dijkstra.distance.p50_ns`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spq_ch::{BatchDistances, ChQuery, ContractionHierarchy, ManyToMany};
use spq_dijkstra::Dijkstra;
use spq_graph::backend::{Backend, PoiRef};
use spq_graph::types::{Dist, NodeId, INFINITY};
use spq_graph::RoadNetwork;
use spq_hl::HubLabels;
use spq_many::{ManyBackend, PoiEntry, PoiIndex, PoiSet, PoiTable};
use spq_serve::BackendKind;
use spq_synth::{Dataset, Scale};

/// The distance rows timed through the registry's own builds and
/// sessions, each against the Dijkstra denominator. CH and HL are kernel
/// rows instead: they share one hierarchy with the CH shortest-path,
/// table and one-to-many rows.
const REGISTRY_ROWS: [BackendKind; 5] = [
    BackendKind::Tnr,
    BackendKind::Alt,
    BackendKind::ArcFlags,
    BackendKind::Silc,
    BackendKind::Pcpd,
];

/// Vertex ceiling for the all-pairs techniques (SILC, PCPD): beyond
/// this the quadratic preprocessing dominates the whole run, and the
/// paper itself confines them to the smallest datasets (§4.3).
const ALL_PAIRS_CAP: usize = 6_000;

/// Chunk size for the chunked-median timer: one `Instant` read per
/// `CHUNK` queries keeps clock overhead under ~1% even for the
/// sub-microsecond CH kernel.
const CHUNK: usize = 32;

/// Repetitions of the whole chunked-median measurement per cell; the
/// *minimum* of the per-rep medians is reported. A single median still
/// jitters ±30% on the microsecond-scale smoke cells — enough to trip
/// a 25% gate on machine noise alone — while the min over a few reps
/// converges on the noise-free cost, which is the quantity a
/// regression check should compare.
const REPS: usize = 3;

/// Fewest windows per gated row in [`paired_ns`]. Each window times
/// the row and its Dijkstra denominator over the whole pair set, back to
/// back; the median over windows is what the gate compares.
const WINDOWS: usize = 9;

/// Shortest wall time [`paired_ns`] spreads one network's windows over.
/// The cost of a cache-heavy kernel (PCPD) relative to Dijkstra moves
/// by up to a third with what the machine's other tenants do, in
/// episodes of a second or less; a median over windows that span a few
/// seconds lands in the common state instead of in whichever episode
/// one short stretch happened to hit.
const SPAN: Duration = Duration::from_secs(3);

/// Many-to-many table side (sources × targets per `table` call).
const M2M_SIDE: usize = 24;

/// Repetitions of the many-to-many table, median taken across them.
const M2M_REPS: usize = 9;

/// Batched-distances table sizes (total entries); each is measured as
/// a square `√K × √K` table, the shape the serving path's DISTANCES
/// op produces. Per-entry ns is the reported median, so the row is
/// directly comparable against the CH point-query distance row.
const BATCH_SIZES: [usize; 3] = [16, 256, 1024];

/// Repetitions of each batched table, median taken across them.
const BATCH_REPS: usize = 9;

/// Required full-mode speedup of the batched kernel's per-entry cost
/// over one CH point query at the largest table (1024 entries). On the
/// smoke proxies a plain win suffices: at 1/400 scale one upward
/// sweep has almost nothing to amortise.
const BATCH_FULL_SPEEDUP: f64 = 2.0;

/// Medians below this are excluded from the regression gate, unless
/// the row's ratio is windowed ([`windowed`]): a single-pass median in
/// the tens of nanoseconds (the smoke `ch m2m` cells, per table entry)
/// is dominated by timer granularity and branch-predictor state. A
/// windowed row runs over the whole pair set in every window, so even a
/// 100 ns row fills a window of 100 µs and its ratio holds still.
const NOISE_FLOOR_NS: f64 = 500.0;

/// Whether `op`'s rows are timed by [`paired_ns`], in windows shared
/// with Dijkstra, so that their ratio is a median over windows: the
/// point queries and the one-to-many family ([`ShapeRows`]). Of the
/// latter, [`check_against`] gates `knn8` and `range`.
fn windowed(op: &str) -> bool {
    matches!(
        op,
        "distance" | "path" | "o2m_64" | "o2m_1024" | "knn8" | "range"
    )
}

/// Options for one `spq bench` invocation.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Only produce the `smoke` entries (the CI configuration).
    pub smoke_only: bool,
    /// Report path.
    pub out: PathBuf,
    /// Baseline report to compare against; any entry regressing by more
    /// than `tolerance` fails the run.
    pub check: Option<PathBuf>,
    /// Allowed relative regression per entry (0.25 = 25%).
    pub tolerance: f64,
    /// Timed query pairs per (network, backend); 0 picks the default
    /// (1024, or 256 under `SPQ_TEST_FAST=1`).
    pub queries: usize,
    /// Workload seed.
    pub seed: u64,
    /// Op families to measure (`distance`, `path`, `m2m`, `o2m`,
    /// `knn`, `range`); empty measures everything. The Dijkstra
    /// distance row is exempt — it is the normalisation denominator and
    /// is always measured.
    pub only: Vec<String>,
    /// Backends to measure; empty measures everything. `dijkstra` is
    /// exempt for the same reason as above.
    pub backends: Vec<String>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            smoke_only: false,
            out: PathBuf::from("BENCH_query.json"),
            check: None,
            tolerance: 0.25,
            queries: 0,
            seed: 0x5eed_0bec,
            only: Vec::new(),
            backends: Vec::new(),
        }
    }
}

/// Op families recognised by `--only`. `o2m_64`/`o2m_1024` and `knn8`
/// collapse onto their family so a filter selects the whole family,
/// not one parameterisation.
pub const OP_FAMILIES: [&str; 7] = [
    "distance",
    "path",
    "m2m",
    "o2m",
    "knn",
    "range",
    "distances_batch",
];

fn op_family(op: &str) -> &str {
    // `distances_batch` before any `distance` comparison: the batch
    // family's op names share the point-query prefix.
    if op.starts_with("distances_batch") {
        "distances_batch"
    } else if op.starts_with("o2m") {
        "o2m"
    } else if op.starts_with("knn") {
        "knn"
    } else {
        op
    }
}

/// One measured (network, backend, op) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// `smoke` or `full`.
    pub mode: String,
    /// Table-1 dataset name.
    pub network: String,
    /// Vertices in the proxy network.
    pub vertices: usize,
    /// Backend name (`dijkstra`, `ch`, `hl`, ...).
    pub backend: String,
    /// `distance`, `path`, or `m2m` (ns per table entry).
    pub op: String,
    /// Timed queries (or table entries) behind the median.
    pub queries: usize,
    /// Median nanoseconds per query.
    pub median_ns: f64,
    /// Cost in units of the same run's Dijkstra distance query on the
    /// same network: for the point-query rows the median over
    /// `paired_ns`'s windows, for the rest `median_ns` over the
    /// Dijkstra row's. What [`check_against`] compares.
    pub ratio: f64,
}

impl Entry {
    /// The comparison key: everything but the measurement itself.
    fn key(&self) -> (String, String, String, String) {
        (
            self.mode.clone(),
            self.network.clone(),
            self.backend.clone(),
            self.op.clone(),
        )
    }

    fn to_json_line(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"network\":\"{}\",\"vertices\":{},\"backend\":\"{}\",\"op\":\"{}\",\"queries\":{},\"median_ns\":{:.1},\"ratio\":{:.4}}}",
            self.mode,
            self.network,
            self.vertices,
            self.backend,
            self.op,
            self.queries,
            self.median_ns,
            self.ratio
        )
    }
}

/// Renders the whole report (line-oriented: one entry per line, so the
/// regression checker and shell tools can grep it without a JSON
/// parser).
pub fn render_report(entries: &[Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"spq-bench-v2\",\n  \"unit\": \"median_ns per query; ratio to the same run's dijkstra distance\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{}", e.to_json_line(), comma);
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a report produced by [`render_report`]. Entry objects are
/// recognised line by line; malformed entry lines are an error (a
/// silently shrinking baseline would disable the regression gate).
pub fn parse_report(text: &str) -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"mode\"") {
            continue;
        }
        let parse = || -> Option<Entry> {
            Some(Entry {
                mode: json_str(line, "mode")?,
                network: json_str(line, "network")?,
                vertices: json_num(line, "vertices")? as usize,
                backend: json_str(line, "backend")?,
                op: json_str(line, "op")?,
                queries: json_num(line, "queries")? as usize,
                median_ns: json_num(line, "median_ns")?,
                ratio: json_num(line, "ratio")?,
            })
        };
        match parse() {
            Some(e) => out.push(e),
            None => return Err(format!("malformed bench entry on line {}", lineno + 1)),
        }
    }
    if out.is_empty() {
        return Err("no bench entries found in report".into());
    }
    Ok(out)
}

/// Extracts `"key":"value"` from a single-line JSON object.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts `"key":number` from a single-line JSON object.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Chunked-median timer: runs `pairs` through `f` in chunks of
/// [`CHUNK`], one warm-up chunk untimed, and takes the median of the
/// per-chunk mean ns/query — the median across chunks shrugs off a
/// scheduler hiccup that would wreck a single mean. The whole pass is
/// repeated [`REPS`] times and the minimum median reported. It times
/// the Dijkstra row and the rows the gate does not compare against
/// Dijkstra window by window (see [`paired_ns`]).
fn median_ns<F: FnMut(NodeId, NodeId) -> u64>(pairs: &[(NodeId, NodeId)], mut f: F) -> f64 {
    warm_up(pairs, &mut f);
    (0..REPS)
        .map(|_| chunk_median_ns(pairs, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Runs one chunk of `pairs` through `f` untimed.
fn warm_up<F: FnMut(NodeId, NodeId) -> u64>(pairs: &[(NodeId, NodeId)], f: &mut F) {
    assert!(pairs.len() >= 2 * CHUNK, "need at least two chunks");
    let sink = pairs[..CHUNK]
        .iter()
        .fold(0u64, |acc, &(s, t)| acc.wrapping_add(f(s, t)));
    std::hint::black_box(sink);
}

/// One pass of `pairs` through `f` in chunks of [`CHUNK`]: the median
/// of the per-chunk mean ns/query.
fn chunk_median_ns<F: FnMut(NodeId, NodeId) -> u64>(pairs: &[(NodeId, NodeId)], f: &mut F) -> f64 {
    let mut sink = 0u64;
    let mut per_chunk: Vec<f64> = Vec::with_capacity(pairs.len() / CHUNK);
    for chunk in pairs.chunks_exact(CHUNK) {
        let t0 = Instant::now();
        for &(s, t) in chunk {
            sink = sink.wrapping_add(f(s, t));
        }
        per_chunk.push(t0.elapsed().as_nanos() as f64 / CHUNK as f64);
    }
    std::hint::black_box(sink);
    median(&mut per_chunk)
}

/// One gated point-query row: backend, op, and the kernel it times.
type GatedRow<'a> = (
    &'static str,
    &'static str,
    Box<dyn FnMut(NodeId, NodeId) -> u64 + 'a>,
);

/// The gated timer. Each window times every row over the whole pair
/// set, each one back to back with its denominator `unit` (the
/// network's Dijkstra distance query) in alternating order, so both
/// sides of a window's ratio see the same machine. The rows take turns
/// within a window, and windows repeat until there are at least
/// [`WINDOWS`] of them spanning at least [`SPAN`], so every row's
/// windows spread over the whole measurement. Returns, per row, the
/// median over windows of its chunked median and of its ratio. A
/// window that lost the CPU (see [`lost_cpu_ns`]) for more than a
/// fiftieth of its length is left out, as long as half of the row's
/// windows remain: its numbers say how long the machine was gone, not
/// how fast the kernel is.
fn paired_ns<U>(
    pairs: &[(NodeId, NodeId)],
    unit: &mut U,
    rows: &mut [GatedRow<'_>],
) -> Vec<(f64, f64)>
where
    U: FnMut(NodeId, NodeId) -> u64,
{
    warm_up(pairs, unit);
    for (_, _, f) in rows.iter_mut() {
        warm_up(pairs, f);
    }
    // Per row: (ns, ratio, disturbed) of every window.
    let mut windows: Vec<Vec<(f64, f64, bool)>> = vec![Vec::new(); rows.len()];
    let start = Instant::now();
    let mut w = 0;
    while w < WINDOWS || start.elapsed() < SPAN {
        for ((_, _, f), out) in rows.iter_mut().zip(&mut windows) {
            let (lost0, t0) = (lost_cpu_ns(), Instant::now());
            let (ns, unit_ns) = if w % 2 == 0 {
                let ns = chunk_median_ns(pairs, f);
                (ns, chunk_median_ns(pairs, unit))
            } else {
                let unit_ns = chunk_median_ns(pairs, unit);
                (chunk_median_ns(pairs, f), unit_ns)
            };
            let lost = lost_cpu_ns().saturating_sub(lost0) as f64;
            let disturbed = lost > t0.elapsed().as_nanos() as f64 / 50.0;
            out.push((ns, ns / unit_ns, disturbed));
        }
        w += 1;
    }
    windows
        .into_iter()
        .map(|mut row| {
            let clean = row.iter().filter(|w| !w.2).count();
            if 2 * clean >= row.len() {
                row.retain(|w| !w.2);
            }
            let mut ns: Vec<f64> = row.iter().map(|w| w.0).collect();
            let mut ratios: Vec<f64> = row.iter().map(|w| w.1).collect();
            (median(&mut ns), median(&mut ratios))
        })
        .collect()
}

/// Nanoseconds this process has lost the CPU so far: time its thread
/// sat runnable on a run queue (`/proc/thread-self/schedstat`) plus the
/// machine's hypervisor steal (`/proc/stat`, all CPUs, 10 ms ticks).
/// 0 where the kernel reports neither.
fn lost_cpu_ns() -> u64 {
    let waited = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .unwrap_or(0);
    let stolen_ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("cpu "))?
                .split_whitespace()
                .nth(7)?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0);
    waited + stolen_ticks * 10_000_000
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Deterministic query pairs: uniform over vertices, seeded per
/// (network, seed) — same workload on every run and host.
fn query_pairs(net: &RoadNetwork, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = net.num_nodes() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                (rng.random::<u64>() % n) as NodeId,
                (rng.random::<u64>() % n) as NodeId,
            )
        })
        .collect()
}

/// The timed query count for one backend row. Deliberately *not*
/// shrunk under `SPQ_TEST_FAST`: the regression gate compares medians
/// against a committed baseline, and the two runs must draw the exact
/// same workload — a different pair count changes which chunk is the
/// median, which reads as a phantom regression on the bimodal backends
/// (TNR's locality filter, PCPD's pair classes).
fn default_queries() -> usize {
    1024
}

/// Measures every backend on one network, appending entries. The
/// `only`/`backends` filters subset the measured cells; the Dijkstra
/// distance row is exempt from both because every other row is gated
/// relative to it.
#[allow(clippy::too_many_arguments)]
fn bench_network(
    entries: &mut Vec<Entry>,
    mode: &str,
    dataset: &Dataset,
    net: &RoadNetwork,
    queries: usize,
    seed: u64,
    only: &[String],
    backends: &[String],
) -> Result<(), String> {
    let n = net.num_nodes();
    let pairs = query_pairs(net, queries, seed ^ dataset.paper_vertices);
    let want = |backend: &str, op: &str| {
        (backends.is_empty() || backends.iter().any(|b| b == backend))
            && (only.is_empty() || only.iter().any(|o| o == op_family(op)))
    };

    // Dijkstra is measured whatever the filters say: it is the
    // normalisation denominator for the regression check, so it must
    // exist for every network.
    let dijkstra = BackendKind::Dijkstra.build(net);
    let mut dijkstra_session = dijkstra.backend.session(net);
    let mut unit = |s, t| dijkstra_session.distance(s, t).unwrap_or(0);
    let unit_ns = median_ns(&pairs, &mut unit);
    // `ratio: None` for a row not timed by `paired_ns`: its ratio is its
    // median over the Dijkstra row's.
    let mut push = |backend: &str, op: &str, q: usize, ns: f64, ratio: Option<f64>| {
        eprintln!(
            "[bench {mode}/{}] {backend:>9} {op:<8} {ns:>12.1} ns/query",
            dataset.name
        );
        entries.push(Entry {
            mode: mode.to_string(),
            network: dataset.name.to_string(),
            vertices: n,
            backend: backend.to_string(),
            op: op.to_string(),
            queries: q,
            median_ns: ns,
            ratio: ratio.unwrap_or(ns / unit_ns),
        });
    };
    push("dijkstra", "distance", pairs.len(), unit_ns, None);

    let mut built = Vec::new();
    for kind in REGISTRY_ROWS {
        if !want(kind.name(), "distance") {
            continue;
        }
        if kind.needs_all_pairs() && n > ALL_PAIRS_CAP {
            eprintln!(
                "[bench {mode}/{}] {} skipped: {n} vertices exceeds the all-pairs cap ({ALL_PAIRS_CAP})",
                dataset.name,
                kind.name()
            );
            continue;
        }
        built.push(kind.build(net));
    }

    // One CH build serves every hierarchy-based kernel: the distance and
    // path kernels, the bucket many-to-many, the one-to-many family, and
    // hub labeling. Skip the build entirely when the filters select none
    // of them.
    let need_ch = [
        "distance",
        "path",
        "m2m",
        "o2m_64",
        "knn8",
        "range",
        "distances_batch_16",
    ]
    .iter()
    .any(|op| want("ch", op))
        || want("hl", "distance");
    let ch = if need_ch {
        Some(Arc::new(ContractionHierarchy::build(net)))
    } else {
        None
    };
    // Hub labels reuse the hierarchy the CH rows already built — the
    // label store is a pure function of it.
    let labels = match &ch {
        Some(ch) if want("hl", "distance") => Some(HubLabels::build(ch)),
        _ => None,
    };

    let shapes = match &ch {
        Some(ch) => ShapeRows::new(
            &want,
            mode,
            dataset,
            net,
            ch,
            &pairs,
            seed ^ dataset.paper_vertices,
        )?,
        None => None,
    };

    // The gated rows — point queries and the one-to-many family —
    // timed together by `paired_ns`.
    let mut rows: Vec<GatedRow> = Vec::new();
    for b in &built {
        let mut session = b.backend.session(net);
        rows.push((
            b.kind.name(),
            "distance",
            Box::new(move |s, t| session.distance(s, t).unwrap_or(0)),
        ));
    }
    if let Some(ch) = &ch {
        if want("ch", "distance") {
            let mut q = ChQuery::new(ch);
            rows.push((
                "ch",
                "distance",
                Box::new(move |s, t| q.distance(s, t).unwrap_or(0)),
            ));
        }
        if want("ch", "path") {
            let mut q = ChQuery::new(ch);
            rows.push((
                "ch",
                "path",
                Box::new(move |s, t| {
                    q.shortest_path(s, t)
                        .map(|(d, p)| d + p.len() as u64)
                        .unwrap_or(0)
                }),
            ));
        }
    }
    if let Some(labels) = &labels {
        rows.push((
            "hl",
            "distance",
            Box::new(|s, t| labels.distance(s, t).unwrap_or(0)),
        ));
    }
    if let Some(shapes) = &shapes {
        shapes.push_rows(net, &mut rows);
    }
    let timed = paired_ns(&pairs, &mut unit, &mut rows);
    for ((backend, op, _), (ns, ratio)) in rows.iter().zip(timed) {
        push(backend, op, pairs.len(), ns, Some(ratio));
    }
    drop(rows);

    if let Some(ch) = &ch {
        if want("ch", "m2m") {
            let side = M2M_SIDE.min(n);
            let sources: Vec<NodeId> = pairs.iter().take(side).map(|&(s, _)| s).collect();
            let targets: Vec<NodeId> = pairs.iter().take(side).map(|&(_, t)| t).collect();
            let mut m2m = ManyToMany::new(ch);
            let mut sink = 0u64;
            let mut reps: Vec<f64> = Vec::with_capacity(M2M_REPS);
            sink = sink.wrapping_add(m2m.table(&sources, &targets).len() as u64); // warm-up
            for _ in 0..M2M_REPS {
                let t0 = Instant::now();
                let table = m2m.table(&sources, &targets);
                reps.push(t0.elapsed().as_nanos() as f64 / table.len() as f64);
                sink = sink.wrapping_add(table.iter().copied().fold(0u64, u64::wrapping_add));
            }
            std::hint::black_box(sink);
            push("ch", "m2m", side * side, median(&mut reps), None);
        }
        if want("ch", "distances_batch_16") {
            bench_batch_distances(&mut push, net, ch, seed ^ dataset.paper_vertices)?;
        }
    }
    if let Some(shapes) = &shapes {
        shapes.audit(mode, dataset, net, &pairs)?;
    }

    Ok(())
}

/// Measures the batched multi-source kernel ([`BatchDistances`]) on
/// square tables of [`BATCH_SIZES`] total entries, reporting median ns
/// *per table entry* so the rows compare directly against the CH
/// point-query distance row ([`check_batch_beats_pointwise`]). Every
/// measured shape is first audited entry-by-entry against the flat CH
/// point kernel: a fast-but-wrong batch must not produce a report.
fn bench_batch_distances(
    push: &mut impl FnMut(&str, &str, usize, f64, Option<f64>),
    net: &RoadNetwork,
    ch: &ContractionHierarchy,
    seed: u64,
) -> Result<(), String> {
    let n = net.num_nodes();
    let mut batch = BatchDistances::new(ch);
    let mut point = ChQuery::new(ch);
    let mut out: Vec<Dist> = Vec::new();
    for &k in &BATCH_SIZES {
        let side = ((k as f64).sqrt() as usize).min(n);
        let sources: Vec<NodeId> = query_pairs(net, side, seed ^ 0xba7c ^ k as u64)
            .iter()
            .map(|&(s, _)| s)
            .collect();
        let targets: Vec<NodeId> = query_pairs(net, side, seed ^ 0x7a26 ^ k as u64)
            .iter()
            .map(|&(_, t)| t)
            .collect();

        // Exactness audit before the clock starts.
        if !batch.table_into(&sources, &targets, &mut out) {
            return Err("distances_batch: unbudgeted table tripped a budget".into());
        }
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let want = point.distance(s, t).unwrap_or(INFINITY);
                if out[i * side + j] != want {
                    return Err(format!(
                        "distances_batch_{k}: entry ({s}, {t}) disagrees with the CH point kernel \
                         — refusing to report"
                    ));
                }
            }
        }

        let mut sink = 0u64;
        let mut reps: Vec<f64> = Vec::with_capacity(BATCH_REPS);
        for _ in 0..BATCH_REPS {
            let t0 = Instant::now();
            batch.table_into(&sources, &targets, &mut out);
            reps.push(t0.elapsed().as_nanos() as f64 / out.len() as f64);
            sink = sink.wrapping_add(out.iter().copied().fold(0u64, u64::wrapping_add));
        }
        std::hint::black_box(sink);
        push(
            "ch",
            &format!("distances_batch_{k}"),
            side * side,
            median(&mut reps),
            None,
        );
    }
    Ok(())
}

/// One-to-many rows and their target-set sizes; [`check_o2m_beats_ch`]
/// gates both.
const O2M_SIZES: [(&str, usize); 2] = [("o2m_64", 64), ("o2m_1024", 1024)];

/// Required full-mode speedup of one restricted sweep over |T|
/// independent CH point queries, at both [`O2M_SIZES`] (measured:
/// 20–50x at 64, 100x and more at 1024).
const O2M_FULL_SPEEDUP: f64 = 5.0;

/// Sources audited against the one-to-all Dijkstra oracle per network.
const ORACLE_SOURCES: usize = 4;

/// The one-to-many family on one network (restricted sweep, bucket-CH
/// kNN, network range), measured through the serving session — the
/// entry points the server calls. Its rows are gated point-query rows
/// like any other: [`paired_ns`] times each against the Dijkstra
/// denominator in the same windows. Each row runs on a session of its
/// own, so one row's memo never evicts another's. [`ShapeRows::audit`]
/// checks all three against a plain one-to-all Dijkstra; a
/// fast-but-wrong kernel must not produce a report, so any mismatch
/// fails the whole run.
///
/// Each `o2m_*` row sends one fixed target list from every source, so
/// it times the memoised selection (upward search + sweep), the
/// depot-list case; what a never-seen target set costs on top is in
/// EXPERIMENTS.md ("Restricted sweeps").
struct ShapeRows {
    backend: ManyBackend,
    set: PoiSet,
    /// Range limit at roughly the 10th percentile of one source's
    /// distance profile: a local neighbourhood, the regime the paper's
    /// range queries target.
    limit: Dist,
    /// The measured `o2m_*` rows: op name and target list.
    o2m: Vec<(&'static str, Vec<NodeId>)>,
    knn: bool,
    range: bool,
}

impl ShapeRows {
    /// The fixture for whichever of the family's rows the filters
    /// select; `None` if they select none.
    fn new(
        want: &impl Fn(&str, &str) -> bool,
        mode: &str,
        dataset: &Dataset,
        net: &RoadNetwork,
        ch: &Arc<ContractionHierarchy>,
        pairs: &[(NodeId, NodeId)],
        seed: u64,
    ) -> Result<Option<ShapeRows>, String> {
        let n = net.num_nodes();
        let o2m: Vec<(&'static str, Vec<NodeId>)> = if want("ch", "o2m_64") {
            O2M_SIZES
                .iter()
                .map(|&(op, k)| {
                    let targets = query_pairs(net, k, seed ^ 0x02e0 ^ k as u64)
                        .iter()
                        .map(|&(_, t)| t)
                        .collect();
                    (op, targets)
                })
                .collect()
        } else {
            Vec::new()
        };
        let (knn, range) = (want("ch", "knn8"), want("ch", "range"));
        if o2m.is_empty() && !knn && !range {
            return Ok(None);
        }
        // POI set for kNN: a deterministic sample, sized so buckets stay
        // non-trivial on the smoke networks without dominating the full
        // ones.
        let poi_count = (n / 16).clamp(1, 256).min(n);
        let set = PoiSet::sample(net, "bench", poi_count, seed ^ 0x9015)
            .map_err(|e| format!("{mode}/{}: sample POI set: {e}", dataset.name))?;
        let index =
            PoiIndex::build(ch, &set).map_err(|e| format!("{mode}/{}: {e}", dataset.name))?;
        let pois = PoiTable::empty();
        pois.install(vec![PoiEntry {
            set: set.clone(),
            index,
        }])?;
        let limit = {
            let mut truth = Dijkstra::new(n);
            truth.run(net, pairs[0].0);
            let mut ds: Vec<Dist> = (0..n as NodeId).filter_map(|v| truth.distance(v)).collect();
            ds.sort_unstable();
            ds.get(ds.len() / 10).copied().unwrap_or(0)
        };
        Ok(Some(ShapeRows {
            backend: ManyBackend::new(Arc::clone(ch), pois),
            set,
            limit,
            o2m,
            knn,
            range,
        }))
    }

    fn poi(&self) -> PoiRef<'_> {
        PoiRef {
            name: self.set.name(),
            nodes: self.set.nodes(),
        }
    }

    /// Appends the selected rows, each a closure over its own session.
    fn push_rows<'a>(&'a self, net: &'a RoadNetwork, rows: &mut Vec<GatedRow<'a>>) {
        for (op, targets) in &self.o2m {
            let mut session = self.backend.session(net);
            let mut dists: Vec<Option<Dist>> = Vec::new();
            rows.push((
                "ch",
                op,
                Box::new(move |s, _| {
                    session.one_to_many(s, targets, &mut dists);
                    dists
                        .iter()
                        .flatten()
                        .copied()
                        .fold(0u64, u64::wrapping_add)
                }),
            ));
        }
        if self.knn {
            let (mut session, poi) = (self.backend.session(net), self.poi());
            let mut out = Vec::new();
            rows.push((
                "ch",
                "knn8",
                Box::new(move |s, _| {
                    session.knn(s, 8, poi, &mut out);
                    out.iter()
                        .map(|&(v, d)| u64::from(v).wrapping_add(d))
                        .fold(0u64, u64::wrapping_add)
                }),
            ));
        }
        if self.range {
            let (mut session, limit) = (self.backend.session(net), self.limit);
            let mut out = Vec::new();
            rows.push((
                "ch",
                "range",
                Box::new(move |s, _| {
                    session.range(s, limit, &mut out);
                    out.len() as u64
                }),
            ));
        }
    }

    /// Exactness audit: a handful of sources against the one-to-all
    /// oracle, across whichever of the three kernels were measured.
    fn audit(
        &self,
        mode: &str,
        dataset: &Dataset,
        net: &RoadNetwork,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<(), String> {
        let n = net.num_nodes();
        let mut session = self.backend.session(net);
        let mut truth = Dijkstra::new(n);
        let everyone: Vec<NodeId> = (0..n as NodeId).collect();
        let mut row: Vec<Option<Dist>> = Vec::new();
        let mut out: Vec<(NodeId, Dist)> = Vec::new();
        let mut mismatches = 0usize;
        for &(s, _) in pairs.iter().take(ORACLE_SOURCES) {
            truth.run(net, s);
            if !self.o2m.is_empty() {
                session.one_to_many(s, &everyone, &mut row);
                mismatches += everyone
                    .iter()
                    .filter(|&&v| row[v as usize] != truth.distance(v))
                    .count();
            }
            if self.knn {
                let mut expect: Vec<(Dist, NodeId)> = self
                    .set
                    .nodes()
                    .iter()
                    .filter_map(|&p| truth.distance(p).map(|d| (d, p)))
                    .collect();
                expect.sort_unstable();
                expect.truncate(8);
                session.knn(s, 8, self.poi(), &mut out);
                let got_kv: Vec<(Dist, NodeId)> = out.iter().map(|&(v, d)| (d, v)).collect();
                if got_kv != expect {
                    mismatches += 1;
                }
            }
            if self.range {
                let expect: Vec<(NodeId, Dist)> = (0..n as NodeId)
                    .filter_map(|v| {
                        truth
                            .distance(v)
                            .filter(|&d| d <= self.limit)
                            .map(|d| (v, d))
                    })
                    .collect();
                session.range(s, self.limit, &mut out);
                if out != expect {
                    mismatches += 1;
                }
            }
        }
        if mismatches > 0 {
            return Err(format!(
                "{mode}/{}: o2m/knn/range oracle found {mismatches} mismatch(es) — refusing to report",
                dataset.name
            ));
        }
        eprintln!(
            "[bench {mode}/{}] o2m/knn/range oracle: 0 mismatches over {ORACLE_SOURCES} sources",
            dataset.name
        );
        Ok(())
    }
}

/// Runs the harness: builds each mode's networks, measures every
/// backend, writes the report, and (when requested) gates against a
/// baseline. Returns the entries it measured.
pub fn run(opts: &BenchOptions) -> Result<Vec<Entry>, String> {
    let queries = if opts.queries > 0 {
        opts.queries.max(2 * CHUNK)
    } else {
        default_queries()
    };
    for o in &opts.only {
        if !OP_FAMILIES.contains(&o.as_str()) {
            return Err(format!(
                "--only: unknown op family '{o}' (choose from {})",
                OP_FAMILIES.join(",")
            ));
        }
    }
    let mut modes: Vec<(&str, Scale, Vec<&'static Dataset>)> = vec![(
        "smoke",
        Scale::Smoke,
        ["DE", "NH", "ME"]
            .iter()
            .map(|n| Dataset::by_name(n).unwrap())
            .collect(),
    )];
    if !opts.smoke_only {
        modes.push((
            "full",
            Scale::Paper,
            ["DE", "NH", "ME", "CO"]
                .iter()
                .map(|n| Dataset::by_name(n).unwrap())
                .collect(),
        ));
    }

    let mut entries = Vec::new();
    for (mode, scale, datasets) in modes {
        for dataset in datasets {
            let t0 = Instant::now();
            let net = dataset.build_with_seed(scale, opts.seed);
            eprintln!(
                "[bench {mode}/{}] n = {}, m = {} (built in {:.2?})",
                dataset.name,
                net.num_nodes(),
                net.num_edges(),
                t0.elapsed()
            );
            bench_network(
                &mut entries,
                mode,
                dataset,
                &net,
                queries,
                opts.seed,
                &opts.only,
                &opts.backends,
            )?;
        }
    }

    if let Some(parent) = opts.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    spq_graph::atomic_io::write_atomic(&opts.out, |w| {
        use std::io::Write;
        w.write_all(render_report(&entries).as_bytes())
    })
    .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    eprintln!(
        "[bench] wrote {} ({} entries)",
        opts.out.display(),
        entries.len()
    );

    // Speed gates only fire when the filters left their rows in the
    // report — `--only distance --backends tnr` must not fail for lack
    // of HL or one-to-many rows.
    let has_ch_distance = entries
        .iter()
        .any(|e| e.backend == "ch" && e.op == "distance");
    if has_ch_distance && entries.iter().any(|e| e.backend == "hl") {
        check_hl_beats_ch(&entries)?;
    }
    if has_ch_distance && entries.iter().any(|e| e.op.starts_with("o2m_")) {
        check_o2m_beats_ch(&entries)?;
    }
    if has_ch_distance && entries.iter().any(|e| e.op.starts_with("distances_batch_")) {
        check_batch_beats_pointwise(&entries)?;
    }

    if let Some(baseline) = &opts.check {
        check_against(&entries, baseline, opts.tolerance)?;
    }
    Ok(entries)
}

/// Enforces the hub-labeling speed claim: per mode, the HL distance
/// median must beat CH's on at least one measured network (on the full
/// Table-1 proxies it wins all four; the weaker per-mode gate keeps CI
/// robust to sub-microsecond jitter on the smoke networks).
pub fn check_hl_beats_ch(entries: &[Entry]) -> Result<(), String> {
    let mut modes: Vec<&str> = entries.iter().map(|e| e.mode.as_str()).collect();
    modes.sort();
    modes.dedup();
    for mode in modes {
        let median_of = |backend: &str, network: &str| -> Option<f64> {
            entries
                .iter()
                .find(|e| {
                    e.mode == mode
                        && e.network == network
                        && e.backend == backend
                        && e.op == "distance"
                })
                .map(|e| e.median_ns)
        };
        let mut networks: Vec<&str> = entries
            .iter()
            .filter(|e| e.mode == mode)
            .map(|e| e.network.as_str())
            .collect();
        networks.sort();
        networks.dedup();
        let mut wins = 0usize;
        let mut rows = Vec::new();
        for network in &networks {
            if let (Some(hl), Some(ch)) = (median_of("hl", network), median_of("ch", network)) {
                rows.push(format!("{network}: hl {hl:.1} ns vs ch {ch:.1} ns"));
                if hl < ch {
                    wins += 1;
                }
            }
        }
        if rows.is_empty() {
            return Err(format!("{mode}: no hl/ch distance rows to compare"));
        }
        if wins == 0 {
            return Err(format!(
                "{mode}: HL slower than CH on every network:\n  {}",
                rows.join("\n  ")
            ));
        }
        eprintln!(
            "[bench] {mode}: HL beats CH on {wins}/{} network(s)",
            rows.len()
        );
    }
    Ok(())
}

/// Enforces the one-to-many speed claims. Per (mode, network), one
/// restricted sweep answering |T| targets must beat |T| independent CH
/// point queries (|T| × the same run's CH distance median) — by at least
/// [`O2M_FULL_SPEEDUP`]x on the full Table-1 proxies, at 64 targets as
/// at 1024. And there the 64-target sweep must cost less than half the
/// 1024-target one on the same network: a sweep that visits only what
/// was asked for cannot cost the same whatever was asked. The smoke
/// networks only need the plain win: at 1/400 scale (|T| up to 8x the
/// vertex count) a ratio gate would measure timer noise.
pub fn check_o2m_beats_ch(entries: &[Entry]) -> Result<(), String> {
    let mut checked = 0usize;
    for e in entries
        .iter()
        .filter(|e| e.backend == "ch" && e.op.starts_with("o2m_"))
    {
        let k: f64 = e.op["o2m_".len()..]
            .parse()
            .map_err(|_| format!("malformed o2m op name '{}'", e.op))?;
        let sibling = |op: &str| {
            entries.iter().find(|c| {
                c.mode == e.mode && c.network == e.network && c.backend == "ch" && c.op == op
            })
        };
        let Some(chd) = sibling("distance") else {
            return Err(format!(
                "{}/{}: {} row has no ch distance row to compare against",
                e.mode, e.network, e.op
            ));
        };
        let loop_ns = chd.median_ns * k;
        let required = if e.mode == "full" {
            O2M_FULL_SPEEDUP
        } else {
            1.0
        };
        let speedup = loop_ns / e.median_ns;
        if speedup < required {
            return Err(format!(
                "{}/{} {}: one sweep costs {:.1} ns vs {:.1} ns for {k:.0} CH point queries \
                 ({speedup:.2}x, need >= {required:.0}x)",
                e.mode, e.network, e.op, e.median_ns, loop_ns
            ));
        }
        eprintln!(
            "[bench] {}/{} {}: sweep beats {k:.0} CH point queries by {speedup:.1}x",
            e.mode, e.network, e.op
        );
        if let ("full", "o2m_64", Some(wide)) =
            (e.mode.as_str(), e.op.as_str(), sibling("o2m_1024"))
        {
            if e.median_ns * 2.0 >= wide.median_ns {
                return Err(format!(
                    "full/{}: o2m_64 costs {:.1} ns, not under half of o2m_1024's {:.1} ns \
                     — the sweep is not restricted to its targets",
                    e.network, e.median_ns, wide.median_ns
                ));
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("no o2m rows to gate".into());
    }
    Ok(())
}

/// Enforces the batched-execution speed claim: per (mode, network),
/// the batched kernel's per-entry cost must not lose to one CH point
/// query (the same run's CH distance median), and on the full Table-1
/// proxies the 1024-entry table must win by at least
/// [`BATCH_FULL_SPEEDUP`]x — the amortisation the batch kernel exists
/// to deliver. Smaller tables only need the plain win.
pub fn check_batch_beats_pointwise(entries: &[Entry]) -> Result<(), String> {
    let mut checked = 0usize;
    for e in entries
        .iter()
        .filter(|e| e.backend == "ch" && e.op.starts_with("distances_batch_"))
    {
        let k: f64 = e.op["distances_batch_".len()..]
            .parse()
            .map_err(|_| format!("malformed batch op name '{}'", e.op))?;
        let Some(chd) = entries.iter().find(|c| {
            c.mode == e.mode && c.network == e.network && c.backend == "ch" && c.op == "distance"
        }) else {
            return Err(format!(
                "{}/{}: {} row has no ch distance row to compare against",
                e.mode, e.network, e.op
            ));
        };
        let required = if e.mode == "full" && k >= 1024.0 {
            BATCH_FULL_SPEEDUP
        } else {
            1.0
        };
        let speedup = chd.median_ns / e.median_ns;
        if speedup < required {
            return Err(format!(
                "{}/{} {}: {:.1} ns per batched entry vs {:.1} ns per CH point query \
                 ({speedup:.2}x, need >= {required:.0}x)",
                e.mode, e.network, e.op, e.median_ns, chd.median_ns
            ));
        }
        eprintln!(
            "[bench] {}/{} {}: batched entry beats a CH point query by {speedup:.1}x",
            e.mode, e.network, e.op
        );
        checked += 1;
    }
    if checked == 0 {
        return Err("no distances_batch rows to gate".into());
    }
    Ok(())
}

/// Compares a run against a baseline report, Dijkstra-normalised.
///
/// For every entry of the current run whose (mode, network, backend,
/// op) also exists in the baseline, the entry fails when its
/// [`Entry::ratio`] (its cost in units of its own run's Dijkstra
/// distance query on the same network) exceeds the baseline's by more
/// than `tolerance`. Baseline entries missing from the current run
/// (for the modes that ran) also fail — a backend silently dropping out
/// of the bench must not pass the gate. Cells of a row without a
/// windowed ratio whose median is under [`NOISE_FLOOR_NS`] on either
/// side are reported but not gated; they still fail when missing
/// entirely.
pub fn check_against(current: &[Entry], baseline: &Path, tolerance: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline)
        .map_err(|e| format!("read baseline {}: {e}", baseline.display()))?;
    let base = parse_report(&text)?;

    let modes_run: Vec<String> = {
        let mut m: Vec<String> = current.iter().map(|e| e.mode.clone()).collect();
        m.sort();
        m.dedup();
        m
    };

    let mut failures = Vec::new();
    let mut compared = 0usize;
    let mut floored = 0usize;
    for b in base.iter().filter(|b| modes_run.contains(&b.mode)) {
        let Some(c) = current.iter().find(|c| c.key() == b.key()) else {
            failures.push(format!(
                "{}/{} {} {}: present in baseline but missing from this run",
                b.mode, b.network, b.backend, b.op
            ));
            continue;
        };
        if b.backend == "dijkstra" && b.op == "distance" {
            continue; // the normalisation unit compares as 1.0 by construction
        }
        if matches!(op_family(&b.op), "o2m" | "distances_batch") {
            // Gated structurally instead (the sweep and the batch must
            // beat their point-query decomposition within the same run),
            // so only their presence is enforced here. Batch-table
            // medians, timed apart from the Dijkstra unit, don't track
            // runner drift at smoke scale; the `o2m_*` ratios are
            // windowed but move by up to a third from one process to
            // the next, whatever the windows agree on.
            continue;
        }
        compared += 1;
        if !windowed(&b.op) && (b.median_ns < NOISE_FLOOR_NS || c.median_ns < NOISE_FLOOR_NS) {
            eprintln!(
                "[bench] {}/{} {} {}: under the {NOISE_FLOOR_NS:.0} ns noise floor ({:.1} ns), not gated",
                b.mode, b.network, b.backend, b.op, c.median_ns
            );
            floored += 1;
            continue;
        }
        let (base_ratio, cur_ratio) = (b.ratio, c.ratio);
        if cur_ratio > base_ratio * (1.0 + tolerance) {
            failures.push(format!(
                "{}/{} {} {}: {:.4}x dijkstra vs {:.4}x in baseline (+{:.0}% > {:.0}% tolerance)",
                b.mode,
                b.network,
                b.backend,
                b.op,
                cur_ratio,
                base_ratio,
                (cur_ratio / base_ratio - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    if compared == 0 && failures.is_empty() {
        return Err("baseline shares no comparable entries with this run".into());
    }
    if failures.is_empty() {
        eprintln!(
            "[bench] regression check passed: {} entries within {:.0}% of {} \
             ({floored} under the noise floor, not gated)",
            compared - floored,
            tolerance * 100.0,
            baseline.display()
        );
        Ok(())
    } else {
        Err(format!(
            "performance regression against {}:\n  {}",
            baseline.display(),
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mode: &str, network: &str, backend: &str, op: &str, ns: f64) -> Entry {
        gated(mode, network, backend, op, ns, 0.0)
    }

    /// An entry with the Dijkstra ratio the regression gate compares.
    fn gated(mode: &str, network: &str, backend: &str, op: &str, ns: f64, ratio: f64) -> Entry {
        Entry {
            mode: mode.into(),
            network: network.into(),
            vertices: 100,
            backend: backend.into(),
            op: op.into(),
            queries: 64,
            median_ns: ns,
            ratio,
        }
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let entries = vec![
            gated("smoke", "DE", "dijkstra", "distance", 51000.4, 1.0),
            gated("smoke", "DE", "ch", "distance", 850.0, 0.0167),
            gated("full", "CO", "ch", "m2m", 120.7, 0.0024),
        ];
        let text = render_report(&entries);
        assert_eq!(parse_report(&text).unwrap(), entries);
    }

    #[test]
    fn parser_rejects_malformed_entries() {
        let text = "{\n\"entries\": [\n{\"mode\":\"smoke\",\"network\":3}\n]}\n";
        assert!(parse_report(text).unwrap_err().contains("malformed"));
    }

    fn write_baseline(entries: &[Entry]) -> tempdir::TempPath {
        tempdir::write(render_report(entries))
    }

    /// Minimal temp-file helper (no tempfile crate in the workspace).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempPath(pub PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        static N: AtomicU64 = AtomicU64::new(0);

        pub fn write(text: String) -> TempPath {
            let path = std::env::temp_dir().join(format!(
                "spq_bench_test_{}_{}.json",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, text).unwrap();
            TempPath(path)
        }
    }

    #[test]
    fn check_passes_when_ratios_hold_despite_machine_speed() {
        let base = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_000.0, 0.1),
        ];
        // Twice as slow across the board: same ratios, must pass.
        let cur = vec![
            gated("smoke", "DE", "dijkstra", "distance", 20_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 2_000.0, 0.1),
        ];
        let f = write_baseline(&base);
        check_against(&cur, &f.0, 0.25).unwrap();
    }

    #[test]
    fn check_fails_on_relative_regression() {
        let base = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_000.0, 0.1),
        ];
        let cur = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_400.0, 0.14),
        ];
        let f = write_baseline(&base);
        let err = check_against(&cur, &f.0, 0.25).unwrap_err();
        assert!(err.contains("ch distance"), "{err}");
    }

    #[test]
    fn check_compares_the_windowed_ratio_not_the_quotient_of_medians() {
        let base = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_000.0, 0.1),
        ];
        // The Dijkstra row, timed on its own, caught a fast moment
        // (1 000 / 7 000 would read +43 %), but in the windows the CH row
        // shared with Dijkstra their ratio held: must pass.
        let cur = vec![
            gated("smoke", "DE", "dijkstra", "distance", 7_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_000.0, 0.1),
        ];
        let f = write_baseline(&base);
        check_against(&cur, &f.0, 0.25).unwrap();
        // And the converse: a ratio that moved fails whatever the
        // medians' quotient says.
        let cur = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_000.0, 0.13),
        ];
        assert!(check_against(&cur, &f.0, 0.25).is_err());
    }

    /// A windowed row is gated however fast it is; the floor spares
    /// only a row without a windowed ratio (`ch m2m`).
    #[test]
    fn check_gates_sub_noise_floor_windowed_rows_only() {
        let base = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "hl", "distance", 120.0, 0.012),
            gated("smoke", "DE", "ch", "m2m", 25.0, 0.0025),
        ];
        let f = write_baseline(&base);
        // `m2m` 3x slower, but 75 ns is under the floor: not gated.
        let mut cur = base.clone();
        cur[2] = gated("smoke", "DE", "ch", "m2m", 75.0, 0.0075);
        check_against(&cur, &f.0, 0.25).unwrap();
        // HL 1.5x slower at 180 ns: gated.
        cur[1] = gated("smoke", "DE", "hl", "distance", 180.0, 0.018);
        let err = check_against(&cur, &f.0, 0.25).unwrap_err();
        assert!(err.contains("hl distance"), "{err}");
        assert!(!err.contains("m2m"), "{err}");
    }

    /// The kNN and range rows are gated like the point queries; the
    /// one-to-many rows only have to be present.
    #[test]
    fn check_gates_knn_and_range_but_not_o2m() {
        let base = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "range", 4_000.0, 0.4),
            gated("smoke", "DE", "ch", "knn8", 2_000.0, 0.2),
            gated("smoke", "DE", "ch", "o2m_64", 5_000.0, 0.5),
        ];
        let f = write_baseline(&base);
        let mut cur = base.clone();
        cur[3] = gated("smoke", "DE", "ch", "o2m_64", 10_000.0, 1.0);
        check_against(&cur, &f.0, 0.25).unwrap();
        cur[1] = gated("smoke", "DE", "ch", "range", 6_000.0, 0.6);
        cur[2] = gated("smoke", "DE", "ch", "knn8", 3_000.0, 0.3);
        let err = check_against(&cur, &f.0, 0.25).unwrap_err();
        assert!(err.contains("ch range") && err.contains("ch knn8"), "{err}");
        assert!(!err.contains("o2m"), "{err}");
        assert!(check_against(&cur[..3], &f.0, 0.25)
            .unwrap_err()
            .contains("o2m_64: present in baseline but missing"));
    }

    #[test]
    fn hl_speed_gate_needs_one_win_per_mode() {
        let mut entries = vec![
            entry("smoke", "DE", "ch", "distance", 800.0),
            entry("smoke", "DE", "hl", "distance", 900.0),
            entry("smoke", "NH", "ch", "distance", 900.0),
            entry("smoke", "NH", "hl", "distance", 300.0),
        ];
        check_hl_beats_ch(&entries).unwrap();
        // HL losing everywhere fails the gate.
        entries[3].median_ns = 1_000.0;
        let err = check_hl_beats_ch(&entries).unwrap_err();
        assert!(err.contains("slower than CH on every network"), "{err}");
        // No comparable rows at all is an error, not a silent pass.
        assert!(check_hl_beats_ch(&entries[..1]).is_err());
    }

    #[test]
    fn check_fails_on_missing_entry() {
        let base = vec![
            entry("smoke", "DE", "dijkstra", "distance", 10_000.0),
            entry("smoke", "DE", "ch", "distance", 1_000.0),
        ];
        let cur = vec![entry("smoke", "DE", "dijkstra", "distance", 10_000.0)];
        let f = write_baseline(&base);
        let err = check_against(&cur, &f.0, 0.25).unwrap_err();
        assert!(err.contains("missing from this run"), "{err}");
    }

    #[test]
    fn check_ignores_modes_that_did_not_run() {
        let base = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_000.0, 0.1),
            gated("full", "CO", "dijkstra", "distance", 90_000.0, 1.0),
            gated("full", "CO", "ch", "distance", 2_000.0, 0.0222),
        ];
        // A --smoke run must not fail on the absent full entries.
        let cur = vec![
            gated("smoke", "DE", "dijkstra", "distance", 10_000.0, 1.0),
            gated("smoke", "DE", "ch", "distance", 1_050.0, 0.105),
        ];
        let f = write_baseline(&base);
        check_against(&cur, &f.0, 0.25).unwrap();
    }

    #[test]
    fn o2m_speed_gate_compares_against_k_point_queries() {
        let mut entries = vec![
            entry("full", "DE", "ch", "distance", 1_000.0),
            entry("full", "DE", "ch", "o2m_64", 10_000.0),
            entry("full", "DE", "ch", "o2m_1024", 200_000.0),
        ];
        // 64 × 1000 = 64k ≥ 5 × 10k, 1024 × 1000 = 1.024M ≥ 5 × 200k,
        // and 10k is under half of 200k: all pass.
        check_o2m_beats_ch(&entries).unwrap();
        // Full mode demands the 5x margin at both sizes, not just a win.
        entries[2].median_ns = 500_000.0;
        let err = check_o2m_beats_ch(&entries).unwrap_err();
        assert!(
            err.contains("o2m_1024") && err.contains("need >= 5x"),
            "{err}"
        );
        entries[2].median_ns = 200_000.0;
        entries[1].median_ns = 20_000.0;
        let err = check_o2m_beats_ch(&entries).unwrap_err();
        assert!(
            err.contains("o2m_64") && err.contains("need >= 5x"),
            "{err}"
        );
        // ... and a 64-target sweep clearly cheaper than a 1024-target
        // one: 12k beats the point queries 5.3x but is over half of 20k.
        entries[1].median_ns = 12_000.0;
        entries[2].median_ns = 20_000.0;
        let err = check_o2m_beats_ch(&entries).unwrap_err();
        assert!(err.contains("not restricted"), "{err}");
        // Smoke mode only needs the win.
        for e in &mut entries {
            e.mode = "smoke".into();
        }
        check_o2m_beats_ch(&entries).unwrap();
        // Losing outright fails even in smoke mode.
        entries[1].median_ns = 100_000.0;
        assert!(check_o2m_beats_ch(&entries).is_err());
        // No rows at all is an error, not a silent pass.
        assert!(check_o2m_beats_ch(&entries[..1]).is_err());
    }

    #[test]
    fn batch_speed_gate_compares_per_entry_cost() {
        let mut entries = vec![
            entry("full", "DE", "ch", "distance", 1_000.0),
            entry("full", "DE", "ch", "distances_batch_16", 900.0),
            entry("full", "DE", "ch", "distances_batch_1024", 400.0),
        ];
        // 16-entry table only needs a win; 1024 needs the 2x margin.
        check_batch_beats_pointwise(&entries).unwrap();
        entries[2].median_ns = 600.0;
        let err = check_batch_beats_pointwise(&entries).unwrap_err();
        assert!(err.contains("need >= 2x"), "{err}");
        // Smoke mode only needs the win at any size.
        for e in &mut entries {
            e.mode = "smoke".into();
        }
        check_batch_beats_pointwise(&entries).unwrap();
        // Losing outright fails even in smoke mode.
        entries[1].median_ns = 1_500.0;
        assert!(check_batch_beats_pointwise(&entries).is_err());
        // No rows at all is an error, not a silent pass.
        assert!(check_batch_beats_pointwise(&entries[..1]).is_err());
    }

    #[test]
    fn smoke_bench_produces_consistent_entries() {
        // One real (tiny) network through the whole measurement path.
        let d = Dataset::by_name("DE").unwrap();
        let net = d.build_with_seed(Scale::Divisor(800.0), 7);
        let mut entries = Vec::new();
        bench_network(&mut entries, "smoke", d, &net, 2 * CHUNK, 7, &[], &[]).unwrap();
        // All seven backends (the network is under the all-pairs cap),
        // plus the path row and the m2m row.
        let backends: Vec<&str> = entries.iter().map(|e| e.backend.as_str()).collect();
        for b in [
            "dijkstra", "ch", "hl", "tnr", "silc", "pcpd", "alt", "arcflags",
        ] {
            assert!(backends.contains(&b), "missing backend {b}");
        }
        assert_eq!(entries.iter().filter(|e| e.op == "path").count(), 1);
        assert_eq!(entries.iter().filter(|e| e.op == "m2m").count(), 1);
        // The one-to-many family rides the ch backend: one row per
        // target-set size plus the kNN and range rows, all
        // oracle-audited inside bench_network.
        for op in [
            "o2m_64",
            "o2m_1024",
            "knn8",
            "range",
            "distances_batch_16",
            "distances_batch_256",
            "distances_batch_1024",
        ] {
            assert_eq!(
                entries
                    .iter()
                    .filter(|e| e.backend == "ch" && e.op == op)
                    .count(),
                1,
                "missing ch row for {op}"
            );
        }
        assert!(entries.iter().all(|e| e.median_ns > 0.0 && e.ratio > 0.0));
        // And the rendered report must parse back to the same entries
        // (medians are serialised at 0.1 ns precision and ratios at
        // 1e-4 — derive the expectation through the same formatter,
        // since `{:.1}` rounds ties to even while `f64::round` rounds
        // them away from zero, and chunk medians land on exact .25/.75
        // ties).
        let rounded: Vec<Entry> = entries
            .iter()
            .cloned()
            .map(|mut e| {
                e.median_ns = format!("{:.1}", e.median_ns).parse().unwrap();
                e.ratio = format!("{:.4}", e.ratio).parse().unwrap();
                e
            })
            .collect();
        assert_eq!(parse_report(&render_report(&entries)).unwrap(), rounded);
    }

    #[test]
    fn bench_filters_subset_the_measured_cells() {
        let d = Dataset::by_name("DE").unwrap();
        let net = d.build_with_seed(Scale::Divisor(800.0), 7);
        let mut entries = Vec::new();
        bench_network(
            &mut entries,
            "smoke",
            d,
            &net,
            2 * CHUNK,
            7,
            &["distance".into()],
            &["ch".into(), "hl".into()],
        )
        .unwrap();
        // Dijkstra is exempt from both filters (it is the
        // normalisation unit); everything else obeys them.
        let mut rows: Vec<(&str, &str)> = entries
            .iter()
            .map(|e| (e.backend.as_str(), e.op.as_str()))
            .collect();
        rows.sort_unstable();
        assert_eq!(
            rows,
            vec![
                ("ch", "distance"),
                ("dijkstra", "distance"),
                ("hl", "distance"),
            ]
        );

        // An op-family filter selects every parameterisation of the
        // family without rebuilding anything else.
        let mut o2m_only = Vec::new();
        bench_network(
            &mut o2m_only,
            "smoke",
            d,
            &net,
            2 * CHUNK,
            7,
            &["o2m".into()],
            &["ch".into()],
        )
        .unwrap();
        let ops: Vec<&str> = o2m_only
            .iter()
            .filter(|e| e.backend == "ch")
            .map(|e| e.op.as_str())
            .collect();
        assert_eq!(ops, vec!["o2m_64", "o2m_1024"]);
    }
}
