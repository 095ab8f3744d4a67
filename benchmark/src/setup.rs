//! Set-up: generate the network, build and persist the index(es), load
//! them back, self-check, start the server — every step timed.
//!
//! One network serves all workloads, and its seed is fixed so container
//! sizes repeat exactly; `--seed` never reaches this module. Builds run
//! on one thread (`par::with_threads(1, ..)`): with two vCPUs a parallel
//! build's wall time depends on what the neighbours are doing.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spq_ch::{ChQuery, ContractionHierarchy};
use spq_graph::atomic_io::write_atomic;
use spq_graph::backend::Session;
use spq_graph::sample::PairSampler;
use spq_graph::types::{Dist, NodeId};
use spq_graph::{par, RoadNetwork};
use spq_hl::Hl;
use spq_many::PoiSet;
use spq_serve::{BackendKind, BackendSpec, Engine, Server, ServerConfig};
use spq_synth::SynthParams;

use crate::measure::timed;
use crate::ops::{POI_COUNT, POI_SEED, POI_SET};
use crate::oracle::Oracle;
use crate::sys::Topology;

/// Seed of the one network every workload runs on.
pub const NETWORK_SEED: u64 = 1;
/// Requests the generator keeps in flight on the pipelined workloads —
/// also the server's per-connection pipeline depth.
pub const PIPELINE_DEPTH: usize = 32;
/// Pairs the start-up self-check compares with the oracle.
const SELFCHECK_PAIRS: usize = 32;
const SELFCHECK_SEED: u64 = 7;

/// Network size and phase lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// 100k-vertex target (106 773 vertices, 149 160 edges): CH 11.6 MB,
    /// HL 58.7 MB on disk — past L2, and small enough that three
    /// set-ups fit in a run.
    Full,
    /// 20k-vertex target; numbers compare with nothing.
    Smoke,
}

impl Tier {
    /// Seconds a machine-speed reference sample (see `reference`) takes
    /// on the box the benchmark was defined on when its neighbours are
    /// quiet. Timings are reported as they would be at this speed.
    pub fn nominal_reference_s(self) -> f64 {
        match self {
            Tier::Full => 0.100,
            Tier::Smoke => 0.015,
        }
    }

    /// `target_vertices` handed to the generator.
    pub fn target_vertices(self) -> usize {
        match self {
            Tier::Full => 100_000,
            Tier::Smoke => 20_000,
        }
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process CH distance and path over Q1–Q10.
    PaperCh,
    /// Served HL `DISTANCE`, cache off, 32 in flight.
    ServedPoint,
    /// Served CH hits, misses and paths, 32 in flight.
    ServedMixed,
    /// Served one-to-many, kNN, range and tables, 1 in flight.
    ServedMany,
}

impl Workload {
    /// All four, in manifest order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCh,
        Workload::ServedPoint,
        Workload::ServedMixed,
        Workload::ServedMany,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCh => "paper-ch",
            Workload::ServedPoint => "served-point",
            Workload::ServedMixed => "served-mixed",
            Workload::ServedMany => "served-many",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload goes through the server.
    pub fn served(self) -> bool {
        self != Workload::PaperCh
    }

    /// The index the workload queries.
    pub fn backend(self) -> BackendKind {
        match self {
            Workload::ServedPoint => BackendKind::Hl,
            _ => BackendKind::Ch,
        }
    }

    /// Requests in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::ServedPoint | Workload::ServedMixed => PIPELINE_DEPTH,
            _ => 1,
        }
    }

    fn server_config(self) -> ServerConfig {
        let defaults = ServerConfig::default();
        ServerConfig {
            shards: 1,
            workers: 1,
            pipeline_depth: PIPELINE_DEPTH,
            audit: None,
            cache_capacity: if self == Workload::ServedPoint {
                0
            } else {
                defaults.cache_capacity
            },
            ..defaults
        }
    }
}

/// Wall time and size of every set-up step (seconds, bytes, counts);
/// a step the workload does not take stays 0.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    pub generate_s: f64,
    pub graph_write_s: f64,
    pub vertices: usize,
    pub edges: usize,
    pub net_bytes: u64,
    pub ch_build_s: f64,
    pub ch_shortcuts: usize,
    pub ch_write_s: f64,
    pub ch_bytes: u64,
    pub hl_build_s: f64,
    pub hl_label_entries: usize,
    pub hl_avg_label_len: f64,
    pub hl_write_s: f64,
    pub hl_bytes: u64,
    /// Containers opened → first answer.
    pub load_s: f64,
    pub poi_build_s: f64,
    pub selfcheck_s: f64,
    pub server_start_s: f64,
    /// Everything above, wall.
    pub total_s: f64,
}

impl SetupReport {
    /// Bytes of the containers the workload loads.
    pub fn loaded_bytes(&self, workload: Workload) -> u64 {
        self.net_bytes
            + if workload.backend() == BackendKind::Hl {
                self.hl_bytes
            } else {
                self.ch_bytes
            }
    }
}

/// A query workspace over the slot that answers `workload`'s wire id —
/// the session type the server's worker runs.
pub fn serving_session(engine: &Engine, workload: Workload) -> Box<dyn Session + '_> {
    let pos = engine
        .position_of_wire(workload.backend().wire_id())
        .expect("the workload's slot is served");
    engine.backends()[pos].backend.session(engine.net())
}

/// What a load produces: the structures queries run against.
// One value per set-up; nothing is gained by boxing the larger variant.
#[allow(clippy::large_enum_variant)]
pub enum Loaded {
    /// `paper-ch`: the network and hierarchy, queried directly.
    InProcess {
        net: RoadNetwork,
        ch: ContractionHierarchy,
    },
    /// Served workloads: the engine a server answers from.
    Engine(Arc<Engine>),
}

impl Loaded {
    /// The network.
    pub fn net(&self) -> &RoadNetwork {
        match self {
            Loaded::InProcess { net, .. } => net,
            Loaded::Engine(engine) => engine.net(),
        }
    }

    /// The engine of a served workload.
    pub fn engine(&self) -> &Arc<Engine> {
        match self {
            Loaded::Engine(engine) => engine,
            Loaded::InProcess { .. } => panic!("paper-ch has no engine"),
        }
    }

    /// Answers one distance query through the loaded index.
    fn distance(&self, workload: Workload, s: NodeId, t: NodeId) -> Option<Dist> {
        match self {
            Loaded::InProcess { ch, .. } => ChQuery::new(ch).distance(s, t),
            Loaded::Engine(engine) => serving_session(engine, workload).distance(s, t),
        }
    }
}

/// Where one run's containers live.
pub struct Containers {
    dir: PathBuf,
}

impl Containers {
    /// Containers under `dir`.
    pub fn in_dir(dir: &Path) -> Containers {
        Containers {
            dir: dir.to_path_buf(),
        }
    }

    fn net(&self) -> PathBuf {
        self.dir.join("net.spqg")
    }

    fn index(&self, kind: BackendKind) -> PathBuf {
        self.dir.join(format!("index.{}", kind.name()))
    }
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn file_len(path: &Path) -> io::Result<u64> {
    Ok(std::fs::metadata(path)?.len())
}

/// Reads the persisted hierarchy.
pub fn read_ch(files: &Containers) -> io::Result<ContractionHierarchy> {
    let file = File::open(files.index(BackendKind::Ch))?;
    ContractionHierarchy::read_binary(&mut BufReader::new(file)).map_err(invalid)
}

/// Opens the workload's containers and answers a first query: the
/// network, then the index (through `Engine::build_with_indexes` for
/// served workloads, exactly as `spq serve --index` does), then one
/// distance through a fresh session. Whether the answers are right is
/// the self-check's business, which follows.
fn load(workload: Workload, files: &Containers) -> io::Result<Loaded> {
    let net = RoadNetwork::read_binary(&mut BufReader::new(File::open(files.net())?))?;
    let kind = workload.backend();
    let loaded = if workload.served() {
        let spec = BackendSpec::from_file(kind, files.index(kind));
        Loaded::Engine(Arc::new(
            Engine::build_with_indexes(net, &[spec], false).map_err(invalid)?,
        ))
    } else {
        Loaded::InProcess {
            net,
            ch: read_ch(files)?,
        }
    };
    let far = loaded.net().num_nodes() as NodeId - 1;
    std::hint::black_box(loaded.distance(workload, 0, far));
    Ok(loaded)
}

/// A ready system: loaded structures, the running server (served
/// workloads) and what getting there cost.
pub struct Fixture {
    pub loaded: Loaded,
    pub server: Option<Server>,
    pub report: SetupReport,
}

impl Fixture {
    /// Stops the server (if any) and returns how long shutdown took.
    pub fn shut_down(&mut self) -> f64 {
        match self.server.take() {
            None => 0.0,
            Some(server) => {
                let ((), s) = timed(|| {
                    server.request_shutdown();
                    server.join();
                });
                s
            }
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Every process and thread the benchmark starts is stopped and
        // waited for, on error paths too.
        self.shut_down();
    }
}

/// Generates the fixed network of `tier`.
pub fn generate(tier: Tier) -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        tier.target_vertices(),
        NETWORK_SEED,
    ))
}

/// Full set-up of `workload`, timed step by step.
pub fn set_up(
    workload: Workload,
    tier: Tier,
    topology: &Topology,
    files: &Containers,
) -> io::Result<Fixture> {
    let mut report = SetupReport::default();
    let (fixture, total_s) = timed(|| -> io::Result<(Loaded, Option<Server>)> {
        let (net, s) = timed(|| generate(tier));
        report.generate_s = s;
        report.vertices = net.num_nodes();
        report.edges = net.num_edges();
        let (res, s) = timed(|| write_atomic(files.net(), |buf| net.write_binary(buf)));
        res?;
        report.graph_write_s = s;
        report.net_bytes = file_len(&files.net())?;

        let (ch, s) = timed(|| par::with_threads(1, || ContractionHierarchy::build(&net)));
        report.ch_build_s = s;
        report.ch_shortcuts = ch.num_shortcuts();
        if workload.backend() == BackendKind::Hl {
            let (hl, s) = timed(|| par::with_threads(1, || Hl::from_ch(ch)));
            report.hl_build_s = s;
            report.hl_label_entries = hl.labels().num_entries();
            report.hl_avg_label_len = hl.labels().avg_label_len();
            let path = files.index(BackendKind::Hl);
            let (res, s) = timed(|| write_atomic(&path, |buf| hl.write_binary(buf)));
            res?;
            report.hl_write_s = s;
            report.hl_bytes = file_len(&path)?;
        } else {
            let path = files.index(BackendKind::Ch);
            let (res, s) = timed(|| write_atomic(&path, |buf| ch.write_binary(buf)));
            res?;
            report.ch_write_s = s;
            report.ch_bytes = file_len(&path)?;
        }

        drop(net);
        let (loaded, s) = timed(|| load(workload, files));
        let loaded = loaded?;
        report.load_s = s;

        if workload == Workload::ServedMany {
            let (res, s) = timed(|| -> Result<(), String> {
                let set = PoiSet::sample(loaded.net(), POI_SET, POI_COUNT, POI_SEED)?;
                loaded.engine().register_pois(vec![set])
            });
            res.map_err(invalid)?;
            report.poi_build_s = s;
        }

        let (res, s) = timed(|| self_check(&loaded));
        res.map_err(invalid)?;
        report.selfcheck_s = s;

        let server = if workload.served() {
            let engine = Arc::clone(loaded.engine());
            let cfg = workload.server_config();
            let (server, s) = timed(|| topology.on_server_cpu(|| Server::start(engine, &cfg)));
            report.server_start_s = s;
            Some(server?)
        } else {
            None
        };
        Ok((loaded, server))
    });
    let (loaded, server) = fixture?;
    report.total_s = total_s;
    Ok(Fixture {
        loaded,
        server,
        report,
    })
}

/// The start-up gate: the loaded index agrees with the Dijkstra oracle
/// on sampled distance and path queries (`Engine::self_check` for served
/// workloads, the same comparison on `ChQuery` for `paper-ch`).
fn self_check(loaded: &Loaded) -> Result<(), String> {
    match loaded {
        Loaded::Engine(engine) => engine.self_check(SELFCHECK_PAIRS, SELFCHECK_SEED),
        Loaded::InProcess { net, ch } => {
            let mut oracle = Oracle::new(net, &[]);
            let mut query = ChQuery::new(ch);
            for (s, t) in PairSampler::new(net.num_nodes(), SELFCHECK_SEED).take(SELFCHECK_PAIRS) {
                let want = oracle.distance(s, t);
                if query.distance(s, t) != want {
                    return Err(format!("self-check: distance({s}, {t}) is not {want:?}"));
                }
                let path = query.shortest_path(s, t);
                if path.as_ref().map(|p| p.0) != want
                    || path.is_some_and(|(_, nodes)| net.path_length(&nodes) != want)
                {
                    return Err(format!("self-check: path({s}, {t}) is not {want:?}"));
                }
            }
            Ok(())
        }
    }
}

/// The POI set of `served-many` as registered with the engine.
pub fn poi_nodes(loaded: &Loaded) -> Vec<NodeId> {
    match loaded {
        Loaded::Engine(engine) => engine
            .poi_set(POI_SET)
            .map(|entry| entry.set.nodes().to_vec())
            .unwrap_or_default(),
        Loaded::InProcess { .. } => Vec::new(),
    }
}
