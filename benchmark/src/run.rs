//! One benchmark run: set-up, loads, warm-up, the measured windows,
//! oracle verification and — with `--trace 1` — the traced repeat and
//! the layer probes.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use spq_ch::ChQuery;
use spq_dijkstra::Dijkstra;
use spq_graph::par;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_hl::Hl;
use spq_serve::protocol::Request;
use spq_serve::{Server, ServerConfig};

use crate::loadgen::{Conn, Recorder, Stop, Tally};
use crate::manifest::{Metrics, Outcome};
use crate::measure::{
    median, quantile_sorted, summarize, timed, PhaseSummary, Window, MAX_CLASSES, WINDOWS,
};
use crate::ops::{self, many, mixed, paper, Frames};
use crate::oracle::{decode_answer, Answer, Oracle, Verified, SAMPLE_EVERY};
use crate::probes;
use crate::reference::{Reference, ReferenceThread};
use crate::replay::Replayer;
use crate::setup::{self, Containers, Fixture, Loaded, Tier, Workload};
use crate::sys::{self, ScratchDir, Topology};
use crate::trace::{Trace, TRACE_EVERY};

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rate of the open-loop probe, requests per second.
const OPEN_LOOP_RATE: f64 = 8_000.0;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub tier: Tier,
}

impl RunArgs {
    fn warmup_s(&self) -> f64 {
        (self.seconds / 10.0).max(0.2)
    }

    fn verify_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 10.0)
    }
}

fn fail(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// The machine-speed reference of one run, on the CPU that bounds the
/// workload: the server's when there is one, else the generator's.
struct Machine {
    reference: ReferenceThread,
    /// What a reference sample takes at nominal machine speed.
    nominal_s: f64,
}

impl Machine {
    fn start(args: &RunArgs, topology: &Topology) -> Machine {
        let cpu = if args.workload.served() {
            topology.server
        } else {
            topology.generator
        };
        let reference = Reference::new(&setup::generate(args.tier));
        Machine {
            reference: ReferenceThread::spawn(reference, cpu),
            nominal_s: args.tier.nominal_reference_s(),
        }
    }

    /// A measured phase of `seconds`, scaled to nominal machine speed.
    fn measured(&self, seconds: f64) -> Plan<'_> {
        Plan {
            seconds,
            windows: WINDOWS,
            reference: Some(&self.reference),
            nominal_s: self.nominal_s,
        }
    }
}

/// A warm-up of `seconds`: one window, nothing kept.
fn warm_up(seconds: f64) -> Plan<'static> {
    Plan {
        seconds,
        windows: 1,
        reference: None,
        nominal_s: 0.0,
    }
}

/// Runs the benchmark once.
pub fn run(args: &RunArgs) -> io::Result<Outcome> {
    let topology = Topology::establish();
    let scratch = ScratchDir::create(&sys::out_dir())?;
    let files = Containers::in_dir(scratch.path());
    let machine = Machine::start(args, &topology);
    if args.trace {
        traced_run(args, &topology, &files, &machine)
    } else {
        plain_run(args, &topology, &files, &machine)
    }
}

/// A network radius that puts a couple of thousand vertices in range:
/// the median, over three fixed sources, of the distance to the 2 048th
/// nearest vertex. Fixed by the network, not by `--seed`.
fn range_limit(net: &RoadNetwork) -> Dist {
    let n = net.num_nodes();
    let mut tree = Dijkstra::new(n);
    let radii: Vec<f64> = (1..=3)
        .map(|i| {
            tree.run(net, (i * n / 4) as NodeId);
            let mut dists: Vec<Dist> = (0..n as NodeId).filter_map(|v| tree.distance(v)).collect();
            let k = 2048.min(dists.len() - 1);
            *dists.select_nth_unstable(k).1 as f64
        })
        .collect();
    median(&radii) as Dist
}

/// What one phase produced.
struct Phase {
    summary: PhaseSummary,
    tally: Tally,
    /// Sampled `(request, answer)` pairs, in op order.
    samples: Vec<(Request, Answer)>,
    wall_s: f64,
    /// CPU seconds of the generator thread.
    generator_cpu_s: f64,
    /// CPU seconds of the whole process.
    process_cpu_s: f64,
}

/// How long a phase runs and what it is normalised by.
struct Plan<'a> {
    /// Length of the phase, reference samples included.
    seconds: f64,
    /// Windows the phase is cut into.
    windows: usize,
    /// Sampled after every window (`None`: warm-up, nothing is kept).
    reference: Option<&'a ReferenceThread>,
    /// What a reference sample takes at nominal machine speed.
    nominal_s: f64,
}

impl Plan<'_> {
    /// Share of a window the workload runs for; the reference takes the
    /// rest, so that a phase lasts about `seconds` in all.
    fn load_share(&self) -> f64 {
        let window_s = self.seconds / self.windows as f64;
        ((window_s - self.nominal_s) / window_s).max(0.5)
    }
}

/// How a phase records.
struct Record<'a> {
    /// Keep every [`SAMPLE_EVERY`]-th answer.
    sample: bool,
    /// Record root spans and per-class latencies.
    trace: Option<&'a mut Trace>,
}

/// The thing that issues a workload's ops.
// One value per run; boxing the query would only add a hop to the loop.
#[allow(clippy::large_enum_variant)]
enum Driver<'a> {
    /// `paper-ch`: direct calls on one thread.
    InProcess {
        ops: Vec<(u8, NodeId, NodeId)>,
        query: ChQuery<'a>,
        cursor: usize,
        seq: u64,
    },
    /// Served workloads: the generator over one connection.
    Wire {
        frames: Frames,
        conn: Conn,
        depth: usize,
        connect_us: f64,
    },
}

impl<'a> Driver<'a> {
    /// Builds the workload's op list from the seed, connects, and (on
    /// `served-mixed`) sends the hot set once so that hits are hits.
    fn new(args: &RunArgs, fixture: &'a Fixture) -> io::Result<Driver<'a>> {
        let net = fixture.loaded.net();
        let (frames, prewarm) = match args.workload {
            Workload::PaperCh => {
                let Loaded::InProcess { ch, .. } = &fixture.loaded else {
                    unreachable!("paper-ch loads in process")
                };
                return Ok(Driver::InProcess {
                    ops: ops::paper_ch(net, args.seed),
                    query: ChQuery::new(ch),
                    cursor: 0,
                    seq: 0,
                });
            }
            Workload::ServedPoint => (ops::served_point(net, args.seed), None),
            Workload::ServedMixed => {
                let mixed = ops::served_mixed(net, args.seed);
                (mixed.main, Some(mixed.prewarm))
            }
            Workload::ServedMany => {
                let poi = setup::poi_nodes(&fixture.loaded);
                (
                    ops::served_many(net, &poi, range_limit(net), args.seed),
                    None,
                )
            }
        };
        let server = fixture
            .server
            .as_ref()
            .expect("served workloads have a server");
        let (mut conn, took) = Conn::open(server.local_addr())?;
        if let Some(prewarm) = prewarm {
            conn.closed_loop(
                &prewarm,
                setup::PIPELINE_DEPTH,
                Stop::AfterSent(prewarm.len() as u64),
                &mut Recorder::discard(),
            )?;
        }
        Ok(Driver::Wire {
            frames,
            conn,
            depth: args.workload.depth(),
            connect_us: took.as_secs_f64() * 1e6,
        })
    }

    /// Runs one phase: `plan.windows` windows of the workload, each
    /// followed by a sample of the machine-speed reference, continuing
    /// the op list where the previous phase stopped.
    fn phase(&mut self, plan: &Plan<'_>, record: Record<'_>) -> io::Result<Phase> {
        let window_s = plan.seconds / plan.windows as f64 * plan.load_share();
        let mut rec = Recorder {
            keep: plan.reference.is_some(),
            by_class: record
                .trace
                .is_some()
                .then(|| vec![Vec::new(); MAX_CLASSES]),
            sample_every: if record.sample { SAMPLE_EVERY } else { 0 },
            trace_every: TRACE_EVERY,
            trace: record.trace,
            ..Recorder::discard()
        };
        let mut samples = Vec::new();
        let mut windows = Vec::with_capacity(plan.windows);
        let (mut wall_s, mut generator_cpu_s, mut process_cpu_s) = (0.0, 0.0, 0.0);
        // A window the hypervisor stole from is run again, up to half a
        // phase of extra windows.
        let mut clean = 0;
        // The reference is sampled on both sides of every window; the
        // window is scaled by the mean of its two neighbours.
        let mut before = plan.reference.map_or(0.0, ReferenceThread::sample);
        while clean < plan.windows && windows.len() < plan.windows * 3 / 2 {
            let stolen0 = sys::stolen_s();
            let (cpu0, proc0) = (sys::thread_cpu_ns(), sys::process_cpu_ns());
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(window_s);
            match self {
                Driver::InProcess {
                    ops,
                    query,
                    cursor,
                    seq,
                } => loop {
                    let op = ops[*cursor];
                    let (class, s, t) = op;
                    let t0 = Instant::now();
                    if t0 >= end {
                        break;
                    }
                    let answer = if class == paper::DISTANCE {
                        Answer::Distance(black_box(query.distance(s, t)))
                    } else {
                        Answer::Path(black_box(query.shortest_path(s, t)))
                    };
                    let t1 = Instant::now();
                    rec.latency((t1 - t0).as_nanos() as u32, class);
                    if let Some(trace) = rec.trace.as_deref_mut() {
                        if *seq % TRACE_EVERY == 0 {
                            let root = trace.root(*seq, "paper.op", t0, t1);
                            rec.tally.traced.push((root, *cursor as u32));
                        }
                    }
                    if record.sample && *seq % SAMPLE_EVERY == 0 {
                        samples.push((ops::paper_request(op), answer));
                    }
                    *cursor = (*cursor + 1) % ops.len();
                    *seq += 1;
                    rec.tally.sent += 1;
                    rec.tally.completed += 1;
                },
                Driver::Wire {
                    frames,
                    conn,
                    depth,
                    ..
                } => conn.closed_loop(frames, *depth, Stop::At(end), &mut rec)?,
            }
            wall_s += start.elapsed().as_secs_f64();
            generator_cpu_s += (sys::thread_cpu_ns() - cpu0) as f64 / 1e9;
            process_cpu_s += (sys::process_cpu_ns() - proc0) as f64 / 1e9;
            let after = plan.reference.map_or(0.0, ReferenceThread::sample);
            let window = Window {
                lat_ns: std::mem::take(&mut rec.lat_ns),
                secs: window_s,
                reference_s: (before + after) / 2.0,
                stolen_s: sys::stolen_s() - stolen0,
            };
            before = after;
            clean += usize::from(!window.disturbed());
            // The next window records about as many; do not regrow the
            // vector inside its timed loop.
            rec.lat_ns.reserve(window.lat_ns.len());
            windows.push(window);
        }
        if let Driver::Wire { frames, .. } = self {
            samples = std::mem::take(&mut rec.tally.samples)
                .into_iter()
                .map(|(slot, payload)| {
                    let req = frames.request(slot as usize);
                    let answer = decode_answer(&req, &payload);
                    (req, answer)
                })
                .collect();
        }
        Ok(Phase {
            summary: summarize(windows, plan.nominal_s, rec.by_class),
            tally: rec.tally,
            samples,
            wall_s,
            generator_cpu_s,
            process_cpu_s,
        })
    }
}

/// A `key=value` counter from the line of the server's stats text that
/// starts with `line`.
fn stat(stats: &str, line: &str, key: &str) -> f64 {
    stats
        .lines()
        .find(|l| l.starts_with(line))
        .and_then(|l| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Cache hits, misses and evictions so far.
fn cache_counts(server: Option<&Server>) -> (f64, f64, f64) {
    let text = server.map(Server::stats_text).unwrap_or_default();
    (
        stat(&text, "cache:", "hits"),
        stat(&text, "cache:", "misses"),
        stat(&text, "cache:", "evictions"),
    )
}

/// Share of `DISTANCE` lookups between two counter readings that hit.
fn hit_ratio(before: (f64, f64, f64), after: (f64, f64, f64)) -> f64 {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// The conditions under which a measured phase means what the manifest
/// says it means; a run that breaks one fails instead of reporting.
fn check_validity(args: &RunArgs, phase: &Phase, cache_hit_ratio: f64) -> io::Result<()> {
    // A percentile wants ten samples beyond it.
    if phase.summary.min_window_samples < 200 && args.tier == Tier::Full {
        eprintln!(
            "[benchmark] WARNING: a window holds only {} samples; its p95 is coarse",
            phase.summary.min_window_samples
        );
    }
    if args.workload.served() {
        let share = phase.generator_cpu_s / phase.wall_s;
        if share > 0.8 {
            return Err(fail(format!(
                "generator-bound: the load generator used {share:.2} of its CPU, so the numbers measure it, not the server"
            )));
        }
    }
    if args.workload == Workload::ServedMixed && (cache_hit_ratio - 0.75).abs() > 0.01 {
        return Err(fail(format!(
            "served-mixed is built for a 0.75 cache hit ratio, the server reports {cache_hit_ratio:.4}"
        )));
    }
    Ok(())
}

fn verify(fixture: &Fixture, samples: &[(Request, Answer)], budget: Duration) -> Verified {
    let poi = setup::poi_nodes(&fixture.loaded);
    Oracle::new(fixture.loaded.net(), &poi).verify(samples, budget)
}

/// `--trace 0`: the end-to-end metrics.
fn plain_run(
    args: &RunArgs,
    topology: &Topology,
    files: &Containers,
    machine: &Machine,
) -> io::Result<Outcome> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        // The previous system is torn down before the next is built, as
        // a restart would; only the last one is measured against.
        drop(fixture.take());
        let stolen0 = sys::stolen_s();
        let built = setup::set_up(args.workload, args.tier, topology, files)?;
        // Wall time less what the hypervisor took: the other CPU idles
        // during a set-up, so all steal counted is the builder's.
        setup_s.push(built.report.total_s - (sys::stolen_s() - stolen0));
        fixture = Some(built);
    }
    let fixture = fixture.expect("SETUPS > 0");
    eprintln!("[benchmark] set-ups: {setup_s:.3?} s");

    let mut driver = Driver::new(args, &fixture)?;
    driver.phase(
        &warm_up(args.warmup_s()),
        Record {
            sample: false,
            trace: None,
        },
    )?;
    let cache_before = cache_counts(fixture.server.as_ref());
    let phase = driver.phase(
        &machine.measured(args.seconds),
        Record {
            sample: true,
            trace: None,
        },
    )?;
    let cache_after = cache_counts(fixture.server.as_ref());
    drop(driver);
    check_validity(args, &phase, hit_ratio(cache_before, cache_after))?;

    let verified = verify(&fixture, &phase.samples, args.verify_budget());
    eprintln!(
        "[benchmark] {}: {} ops, {} refused, {} of {} sampled answers verified, {} wrong; raw qps {:.0}, p50 {:.1} us, p95 {:.1} us at machine speed {:.3}",
        args.workload.name(),
        phase.tally.completed,
        phase.tally.refused,
        verified.checked,
        phase.samples.len(),
        verified.wrong,
        phase.summary.raw_qps,
        phase.summary.raw_p50_us,
        phase.summary.raw_p95_us,
        phase.summary.speed,
    );

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s));
    m.set("qps", phase.summary.qps);
    m.set("lat_p50_us", phase.summary.p50_us);
    m.set("lat_p95_us", phase.summary.p95_us);
    m.set(
        "index_mb",
        fixture.report.loaded_bytes(args.workload) as f64 / 1e6,
    );
    drop(fixture);
    m.set("rss_peak_mb", sys::rss_peak_mb());
    Ok(Outcome::judge(
        false,
        phase.tally.completed,
        phase.tally.refused,
        verified.wrong,
        m,
    ))
}

/// Builds the workload's index(es) again with every CPU, for
/// `ch.build_par_s` / `hl.build_par_s`. Reported, never gated: with two
/// vCPUs a parallel build's wall time is the neighbours' business.
fn parallel_builds(args: &RunArgs, topology: &Topology, m: &mut Metrics) {
    let threads = topology.all.len().max(1);
    topology.unpinned(|| {
        par::with_threads(threads, || {
            let net = setup::generate(args.tier);
            let (ch, s) = timed(|| spq_ch::ContractionHierarchy::build(&net));
            m.set("ch.build_par_s", s);
            if args.workload == Workload::ServedPoint {
                let (hl, s) = timed(|| Hl::from_ch(ch));
                m.set("hl.build_par_s", s);
                drop(hl);
            }
        })
    });
}

/// The set-up report as per-layer metrics.
fn report_setup(args: &RunArgs, fixture: &Fixture, m: &mut Metrics) {
    let r = &fixture.report;
    m.set("synth.generate_s", r.generate_s);
    m.set("graph.vertices", r.vertices as f64);
    m.set("graph.edges", r.edges as f64);
    m.set("graph.write_s", r.graph_write_s);
    m.set("ch.build_s", r.ch_build_s);
    m.set("ch.shortcuts", r.ch_shortcuts as f64);
    if args.workload == Workload::ServedPoint {
        m.set("hl.build_s", r.hl_build_s);
        m.set("hl.label_entries", r.hl_label_entries as f64);
        m.set("hl.avg_label_len", r.hl_avg_label_len);
        m.set("hl.container_mb", r.hl_bytes as f64 / 1e6);
        m.set("hl.write_s", r.hl_write_s);
        m.set("hl.load_s", r.load_s);
    } else {
        m.set("ch.container_mb", r.ch_bytes as f64 / 1e6);
        m.set("ch.write_s", r.ch_write_s);
        m.set("ch.load_s", r.load_s);
    }
    m.set("many.poi.build_s", r.poi_build_s);
    m.set("server.selfcheck_s", r.selfcheck_s);
    m.set("server.start_s", r.server_start_s);
}

/// Per-op wire latencies of the traced phase.
fn report_wire_classes(args: &RunArgs, traced: &PhaseSummary, m: &mut Metrics) {
    let names: &[(u8, &'static str)] = match args.workload {
        Workload::PaperCh => &[],
        Workload::ServedPoint => &[(ops::POINT_DISTANCE_HL, "wire.distance_hl.p50_us")],
        Workload::ServedMixed => &[
            (mixed::HIT, "wire.distance_ch_hit.p50_us"),
            (mixed::MISS, "wire.distance_ch_miss.p50_us"),
            (mixed::PATH, "wire.path_ch.p50_us"),
        ],
        Workload::ServedMany => &[
            (many::O2M64, "wire.o2m64.p50_us"),
            (many::O2M1024, "wire.o2m1024.p50_us"),
            (many::KNN8, "wire.knn8.p50_us"),
            (many::RANGE, "wire.range.p50_us"),
            (many::SQUARE32, "wire.table_square32.p50_us"),
            (many::SKINNY, "wire.table_skinny1x1024.p50_us"),
            (many::RAGGED, "wire.table_ragged8x128.p50_us"),
        ],
    };
    for &(class, name) in names {
        m.set(name, traced.class_p50_us[class as usize]);
    }
}

/// Hangs the replayed layer calls under every traced root and reports
/// what the roots have left.
fn replay_traced(
    args: &RunArgs,
    fixture: &Fixture,
    driver: &Driver<'_>,
    traced: &[(u32, u32)],
    trace: &mut Trace,
    m: &mut Metrics,
) {
    match (driver, &fixture.loaded) {
        (Driver::InProcess { ops, .. }, Loaded::InProcess { ch, .. }) => {
            let mut query = ChQuery::new(ch);
            for &(root, slot) in traced {
                let (class, s, t) = ops[slot as usize];
                let t0 = Instant::now();
                let name = if class == paper::DISTANCE {
                    black_box(query.distance(s, t));
                    "ch.distance"
                } else {
                    black_box(query.shortest_path(s, t));
                    "ch.path"
                };
                trace.child(root, name, t0.elapsed().as_nanos() as u64, true);
            }
        }
        (Driver::Wire { frames, .. }, Loaded::Engine(engine)) => {
            let poi = setup::poi_nodes(&fixture.loaded);
            let defaults = ServerConfig::default();
            let capacity = if args.workload == Workload::ServedPoint {
                0
            } else {
                defaults.cache_capacity
            };
            let mut replayer = Replayer::new(
                setup::serving_session(engine, args.workload),
                capacity,
                defaults.cache_shards,
                &poi,
            );
            for &(root, slot) in traced {
                let hit = args.workload == Workload::ServedMixed
                    && frames.class(slot as usize) == mixed::HIT;
                replayer.replay(frames.payload(slot as usize), hit, root, trace);
            }
            let own = trace.self_times();
            let mut self_us: Vec<f64> = Vec::new();
            let (mut self_ns, mut total_ns) = (0u64, 0u64);
            for root in trace.roots() {
                self_us.push(own[&root.id] as f64 / 1e3);
                self_ns += own[&root.id];
                total_ns += root.end_ns - root.start_ns;
            }
            m.set("server.self_p50_us", median(&self_us));
            m.set("server.self_share", self_ns as f64 / total_ns.max(1) as f64);
        }
        _ => unreachable!("driver and loaded structures come from one workload"),
    }
    m.set("trace.spans", trace.spans().len() as f64);
}

/// Probes of the layers on the workload's path (see the layer → workload
/// map in the README).
fn probe_layers(
    args: &RunArgs,
    fixture: &Fixture,
    files: &Containers,
    driver: &Driver<'_>,
    m: &mut Metrics,
) -> io::Result<()> {
    let net = fixture.loaded.net();
    probes::dijkstra(net, m);
    let sets = ops::qsets(net, args.seed);
    let longest_path = |ch: &spq_ch::ContractionHierarchy| -> Vec<NodeId> {
        let &(s, t) = sets.last().and_then(|set| set.first()).expect("a Q-set");
        ChQuery::new(ch)
            .shortest_path(s, t)
            .map(|p| p.1)
            .unwrap_or_default()
    };
    match (args.workload, &fixture.loaded, driver) {
        (Workload::PaperCh, Loaded::InProcess { ch, .. }, _) => probes::ch_point(ch, &sets, m),
        (Workload::ServedPoint, Loaded::Engine(engine), _) => {
            probes::hl_point(
                setup::serving_session(engine, args.workload).as_mut(),
                &sets,
                m,
            );
            probes::protocol_codecs(net, ops::POI_COUNT, &[], m);
        }
        (Workload::ServedMixed, Loaded::Engine(_), _) => {
            let ch = setup::read_ch(files)?;
            probes::ch_point(&ch, &sets, m);
            let cfg = ServerConfig::default();
            probes::cache_ops(cfg.cache_capacity, cfg.cache_shards, m);
            probes::protocol_codecs(net, ops::POI_COUNT, &longest_path(&ch), m);
        }
        (Workload::ServedMany, Loaded::Engine(engine), Driver::Wire { frames, .. }) => {
            let ch = setup::read_ch(files)?;
            probes::ch_tables(&ch, frames, m);
            let poi = setup::poi_nodes(&fixture.loaded);
            probes::many_kernels(
                setup::serving_session(engine, args.workload).as_mut(),
                &poi,
                frames,
                m,
            );
            probes::protocol_codecs(net, poi.len(), &longest_path(&ch), m);
        }
        _ => unreachable!("driver and loaded structures come from one workload"),
    }
    Ok(())
}

/// Probes of the server itself: PING at depth 32 (no kernel, no cache),
/// depth-1 round trips, and the open-loop probe. Deliberately ungated:
/// a depth-1 round trip times four hypervisor wake-ups, and open-loop
/// latency moves 2× between identical runs on a shared box.
fn probe_server(args: &RunArgs, driver: &mut Driver<'_>, m: &mut Metrics) -> io::Result<()> {
    let Driver::Wire {
        frames,
        conn,
        connect_us,
        ..
    } = driver
    else {
        return Ok(());
    };
    m.set("server.connect_us", *connect_us);
    let probe_s = (args.seconds / 15.0).max(0.2);
    let closed = |conn: &mut Conn, frames: &Frames, depth: usize| -> io::Result<PhaseSummary> {
        let mut rec = Recorder::latencies();
        let end = Instant::now() + Duration::from_secs_f64(probe_s);
        conn.closed_loop(frames, depth, Stop::At(end), &mut rec)?;
        let window = Window {
            lat_ns: rec.lat_ns,
            secs: probe_s,
            reference_s: 0.0,
            stolen_s: 0.0,
        };
        Ok(summarize(vec![window], 0.0, None))
    };
    let mut ping = Frames::default();
    ping.push(&Request::Ping, 0);
    m.set(
        "server.ping_p50_us",
        closed(conn, &ping, setup::PIPELINE_DEPTH)?.raw_p50_us,
    );
    let rtt = closed(conn, frames, 1)?;
    m.set("server.rtt_d1_p50_us", rtt.raw_p50_us);
    m.set("server.rtt_d1_p99_us", rtt.p99_us);
    if args.workload.depth() > 1 {
        let mut open = conn.open_loop(
            frames,
            OPEN_LOOP_RATE,
            setup::PIPELINE_DEPTH,
            args.seconds / 5.0,
        )?;
        if open.refused > 0 {
            return Err(fail(format!(
                "the open-loop probe was refused {} times",
                open.refused
            )));
        }
        open.lat_us.sort_unstable();
        open.late_us.sort_unstable();
        m.set("wire.open8k.p50_us", quantile_sorted(&open.lat_us, 0.50));
        m.set("wire.open8k.p99_us", quantile_sorted(&open.lat_us, 0.99));
        m.set("wire.open8k.backlog_max", open.backlog_max as f64);
        m.set("loadgen.late_p99_us", quantile_sorted(&open.late_us, 0.99));
    }
    Ok(())
}

/// `--trace 1`: the per-layer metrics. The measured time is split into
/// an untraced and a traced phase of a third each; probes take the rest.
fn traced_run(
    args: &RunArgs,
    topology: &Topology,
    files: &Containers,
    machine: &Machine,
) -> io::Result<Outcome> {
    let mut m = Metrics::default();
    let mut fixture = setup::set_up(args.workload, args.tier, topology, files)?;
    report_setup(args, &fixture, &mut m);
    parallel_builds(args, topology, &mut m);

    let sockets_before = sys::open_sockets();
    let mut driver = Driver::new(args, &fixture)?;
    driver.phase(
        &warm_up(args.warmup_s()),
        Record {
            sample: false,
            trace: None,
        },
    )?;
    let phase_s = args.seconds / 3.0;
    let cache_before = cache_counts(fixture.server.as_ref());
    let plain = driver.phase(
        &machine.measured(phase_s),
        Record {
            sample: true,
            trace: None,
        },
    )?;
    let cache_after = cache_counts(fixture.server.as_ref());
    let rss_serving = sys::rss_now_mb();
    let mut trace = Trace::new();
    let traced = driver.phase(
        &machine.measured(phase_s),
        Record {
            sample: true,
            trace: Some(&mut trace),
        },
    )?;
    let cache_hit_ratio = hit_ratio(cache_before, cache_after);
    check_validity(args, &plain, cache_hit_ratio)?;
    if args.workload == Workload::PaperCh && sys::open_sockets() != sockets_before {
        return Err(fail("paper-ch opened a socket".into()));
    }

    m.set("machine.speed", plain.summary.speed);
    m.set("loadgen.cpu_share", plain.generator_cpu_s / plain.wall_s);
    m.set("loadgen.pinned", f64::from(u8::from(topology.pinned())));
    m.set("loadgen.sent", plain.tally.sent as f64);
    m.set("loadgen.completed", plain.tally.completed as f64);
    m.set(
        "trace.overhead_ratio",
        1.0 - traced.summary.qps / plain.summary.qps.max(f64::MIN_POSITIVE),
    );
    if args.workload.served() {
        let completed = plain.tally.completed.max(1) as f64;
        m.set(
            "server.cpu_us_per_req",
            (plain.process_cpu_s - plain.generator_cpu_s).max(0.0) * 1e6 / completed,
        );
        m.set("server.rss_serving_mb", rss_serving);
        m.set("wire.p99_us", plain.summary.p99_us);
        m.set("wire.p999_us", plain.summary.p999_us);
        m.set("wire.max_us", plain.summary.max_us);
        m.set(
            "wire.resp_bytes_avg",
            plain.tally.resp_bytes as f64 / completed,
        );
        report_wire_classes(args, &traced.summary, &mut m);
    }
    if args.workload == Workload::ServedMixed {
        m.set("cache.hit_ratio", cache_hit_ratio);
        m.set("cache.evictions", cache_after.2 - cache_before.2);
    }

    if let Some(server) = fixture.server.as_ref() {
        // Read before the probes below add their own traffic.
        let stats = server.stats_text();
        m.set("server.shed", stat(&stats, "faults:", "shed"));
        m.set(
            "server.client_timeouts",
            stat(&stats, "faults:", "client_timeouts"),
        );
        m.set(
            "server.worker_restarts",
            stat(&stats, "health:", "worker_restarts"),
        );
        m.set(
            "server.pipelined_frames",
            stat(&stats, "serve:", "pipelined_frames"),
        );
    }

    replay_traced(
        args,
        &fixture,
        &driver,
        &traced.tally.traced,
        &mut trace,
        &mut m,
    );
    probe_layers(args, &fixture, files, &driver, &mut m)?;
    probe_server(args, &mut driver, &mut m)?;

    let mut samples = plain.samples;
    samples.extend(traced.samples);
    let verified = verify(&fixture, &samples, args.verify_budget());

    drop(driver);
    m.set("server.shutdown_s", fixture.shut_down());
    let path = sys::out_dir().join(format!("trace-{}.jsonl", args.workload.name()));
    trace.write_jsonl(&path)?;
    eprintln!(
        "[benchmark] {}: {} spans written to {}",
        args.workload.name(),
        trace.spans().len(),
        path.display()
    );
    Ok(Outcome::judge(
        true,
        plain.tally.completed + traced.tally.completed,
        plain.tally.refused + traced.tally.refused,
        verified.wrong,
        m,
    ))
}
