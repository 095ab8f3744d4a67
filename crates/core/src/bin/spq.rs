//! `spq` — command-line front end for the workspace.
//!
//! ```text
//! spq registry                               list the Table-1 datasets
//! spq generate --target N [--seed S] --out P write P.gr / P.co (DIMACS)
//! spq info --net P                           network statistics
//! spq prep --net P --out F [--kind ch|hl|poi] build + persist a CH/HL index or POI set
//! spq query --net P --from S --to T          answer one query
//!           [--technique BACKEND] [--ch F.ch] [--path]
//! spq verify --net P [--samples N] [--seed S] certify every backend
//! spq serve --net P [--addr A] [--backends L] run the query server
//!           [--reload-file P] [--no-audit]    (hot reload + oracle audit;
//!                                             refuses flags it does not know)
//! spq loadgen --net P [--concurrency L]      oracle-checked serving throughput
//! spq bench --json [--smoke] [--check B]     query-latency report + regression gate
//! ```
//!
//! `--net P` loads `P.gr` + `P.co` (DIMACS text); `serve` and `loadgen`
//! also accept `--target N` to synthesise a network instead.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use spq_graph::atomic_io;
use spq_graph::size::IndexSize;
use spq_graph::RoadNetwork;
use spq_serve::loadgen::{run_in_process, write_csv, LoadgenOptions, ThroughputRow};
use spq_serve::server::{install_signal_handlers, Server, ServerConfig};
use spq_serve::{
    verify_session, AuditConfig, BackendKind, BackendSpec, Engine, SELFCHECK_QUERIES,
    SELFCHECK_SEED,
};
use spq_synth::{SynthParams, DATASETS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(|s| s.as_str()) {
        Some("registry") => registry(),
        Some("generate") => generate(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("prep") => prep(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("loadgen") => loadgen(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("torture") => torture(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!("{USAGE}");
}

/// `spq --help`. The `serve` lines list exactly [`SERVE_FLAGS`] (a unit
/// test holds them to it).
const USAGE: &str = "spq — shortest path and distance queries on road networks\n\n\
         commands:\n\
         \x20 registry                               list the Table-1 datasets\n\
         \x20 generate --target N [--seed S] --out P write P.gr / P.co\n\
         \x20 info --net P                           network statistics\n\
         \x20 prep --net P --out F [--kind ch|hl|poi] [--name N] [--count K]\n\
         \x20                                        build + persist a CH/HL index or POI set\n\
         \x20 query --net P --from S --to T [--technique T] [--ch F.ch] [--path]\n\
         \x20 verify --net P [--samples N] [--seed S] certify every backend\n\
         \x20 serve (--net P | --target N [--seed S]) [--addr A] [--backends L]\n\
         \x20       [--index kind=path]* [--no-degrade] [--workers N] [--shards N]\n\
         \x20       [--pipeline-depth N] [--cache N] [--max-pending N] [--grace-ms N]\n\
         \x20       [--peer-timeout-ms N] [--wbuf-cap BYTES] [--mem-budget BYTES]\n\
         \x20       [--max-connections N] [--restart-cap N] [--reload-file P]\n\
         \x20       [--no-audit | [--audit-interval-ms N] [--no-failover]]\n\
         \x20                                        run the TCP query server\n\
         \x20 loadgen (--net P | --target N) [--seed S] [--backends L]\n\
         \x20         [--concurrency L] [--duration S] [--warmup-ms N]\n\
         \x20         [--per-set N] [--retries N] [--out F]\n\
         \x20                                        DISTANCE throughput, oracle-checked\n\
         \x20                                        after every timed run\n\
         \x20 bench --json [--smoke] [--out F] [--check BASELINE] [--tolerance R]\n\
         \x20       [--queries N] [--seed S] [--only OPS] [--backends L]\n\
         \x20                                        query-latency report + regression gate\n\
         \x20                                        (OPS: distance,path,m2m,o2m,knn,range,\n\
         \x20                                         distances_batch)\n\
         \x20 torture [--dir D] [--seed S] [--rounds N] [--target N] [--no-minimize]\n\
         \x20         [--artifact F] [--startup-timeout-s N] [--resource]\n\
         \x20                                        crash/chaos recovery harness\n\
         \x20                                        (--resource: fd/disk/memory/slow-reader\n\
         \x20                                         exhaustion schedules)\n\n\
         backends (query --technique, serve/loadgen --backends):\n\
         \x20 dijkstra,ch,tnr,silc,pcpd,alt,arcflags,hl\n\
         \x20 (omitting --backends serves dijkstra,ch,tnr,alt,hl; --index loads ch, hl);\n\
         see README.md for the wire protocol.";

/// Extracts `--key value` from an argument list.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Extracts every `--key value` occurrence (for repeatable flags).
fn opt_all<'a>(args: &'a [String], key: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == key)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(|s| s.as_str())
        .collect()
}

fn required<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    opt(args, key).ok_or_else(|| format!("missing required option {key}"))
}

fn load_net(base: &str) -> Result<RoadNetwork, String> {
    let gr = File::open(format!("{base}.gr")).map_err(|e| format!("cannot open {base}.gr: {e}"))?;
    let co = File::open(format!("{base}.co")).map_err(|e| format!("cannot open {base}.co: {e}"))?;
    spq_graph::dimacs::read(BufReader::new(gr), BufReader::new(co))
        .map_err(|e| format!("cannot parse {base}: {e}"))
}

fn registry() -> Result<(), String> {
    println!(
        "{:<6} {:<22} {:>12} {:>12}",
        "name", "region", "vertices", "edges"
    );
    for d in &DATASETS {
        println!(
            "{:<6} {:<22} {:>12} {:>12}",
            d.name, d.region, d.paper_vertices, d.paper_edges
        );
    }
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    let target: usize = required(args, "--target")?
        .parse()
        .map_err(|_| "--target must be an integer".to_string())?;
    let seed: u64 = opt(args, "--seed")
        .map(|s| {
            s.parse()
                .map_err(|_| "--seed must be an integer".to_string())
        })
        .transpose()?
        .unwrap_or(0x5eed_0002);
    let out = required(args, "--out")?;
    let net = spq_synth::generate(&SynthParams::with_target_vertices(target, seed));
    atomic_io::write_atomic(format!("{out}.gr"), |w| {
        spq_graph::dimacs::write_gr(&net, w)
    })
    .map_err(|e| e.to_string())?;
    atomic_io::write_atomic(format!("{out}.co"), |w| {
        spq_graph::dimacs::write_co(&net, w)
    })
    .map_err(|e| e.to_string())?;
    println!(
        "wrote {out}.gr / {out}.co — {} vertices, {} edges",
        net.num_nodes(),
        net.num_edges()
    );
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let net = load_net(required(args, "--net")?)?;
    let rect = net.bounding_rect();
    println!("vertices:    {}", net.num_nodes());
    println!("edges:       {}", net.num_edges());
    println!("arcs:        {}", net.num_arcs());
    println!("max degree:  {}", net.max_degree());
    println!(
        "avg degree:  {:.2}",
        net.num_arcs() as f64 / net.num_nodes() as f64
    );
    println!(
        "bounding:    ({}, {}) .. ({}, {})",
        rect.min_x, rect.min_y, rect.max_x, rect.max_y
    );
    println!(
        "memory:      {:.2} MB (CSR + coordinates)",
        net.index_size_mb()
    );
    Ok(())
}

/// Writes a container through [`atomic_io::write_atomic`] and reports
/// what `prep` prints about it: the bytes on disk, the seconds the write
/// took, and the most memory the process has held so far (`VmHWM`; the
/// build and the write are both behind it) — the index row an operator
/// sizes a prep box from.
fn persist(
    out: &str,
    write: impl FnOnce(&mut atomic_io::AtomicSink) -> std::io::Result<()>,
) -> Result<String, String> {
    let t0 = std::time::Instant::now();
    atomic_io::write_atomic(out, write).map_err(|e| e.to_string())?;
    let write_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len();
    let peak = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or("unknown".to_string(), |kb| format!("{:.1} MB", kb / 1024.0));
    Ok(format!(
        "wrote {bytes} bytes in {write_s:.3} s; peak RSS {peak}"
    ))
}

fn prep(args: &[String]) -> Result<(), String> {
    let net = load_net(required(args, "--net")?)?;
    let out = required(args, "--out")?;
    let kind = opt(args, "--kind").unwrap_or("ch");
    let t0 = std::time::Instant::now();
    match kind {
        "ch" => {
            let (ch, report) = spq_ch::ContractionHierarchy::build_with_report(&net);
            let elapsed = t0.elapsed();
            let persisted = persist(out, |w| ch.write_binary(w))?;
            let bytes = ch.serialized_len();
            println!(
                "built CH in {:.2?}: {} shortcuts inserted, {} upward edges -> {out}\n  \
                 container {:.2} MB ({:.2} bytes per upward edge), {:.2} MB in memory",
                elapsed,
                ch.num_shortcuts(),
                ch.num_upward_edges(),
                bytes as f64 / 1e6,
                bytes as f64 / ch.num_upward_edges().max(1) as f64,
                ch.index_size_bytes() as f64 / 1e6
            );
            println!("  contraction: {report}\n  {persisted}");
        }
        "hl" => {
            let (ch, report) = spq_ch::ContractionHierarchy::build_with_report(&net);
            let contracted = t0.elapsed();
            let hl = spq_hl::Hl::from_ch(ch);
            let labelled = t0.elapsed() - contracted;
            let persisted = persist(out, |w| hl.write_binary(w))?;
            let labels = hl.labels();
            let store_bytes = labels.index_size_bytes();
            println!(
                "built HL in {:.2?} (contraction {:.2?}, labels {:.2?}): {} label entries \
                 ({:.1} avg / {} max per vertex) in {} waves, \
                 largest stored distance {} -> {out}\n  \
                 label store {:.2} MB ({:.2} bytes per entry) + embedded CH {:.2} MB \
                 = container {:.2} MB",
                contracted + labelled,
                contracted,
                labelled,
                labels.num_entries(),
                labels.avg_label_len(),
                labels.max_label_len(),
                spq_hl::num_waves(hl.hierarchy()),
                labels.max_stored_dist(),
                store_bytes as f64 / 1e6,
                store_bytes as f64 / labels.num_entries().max(1) as f64,
                hl.hierarchy().serialized_len() as f64 / 1e6,
                hl.serialized_len() as f64 / 1e6,
            );
            println!("  contraction: {report}\n  {persisted}");
        }
        "poi" => {
            // A POI container for the one-to-many serving path: a
            // named, checksummed vertex set the server indexes against
            // its own hierarchy at registration (`poi=` reload lines).
            let name = opt(args, "--name").unwrap_or("poi");
            let count: usize = match opt(args, "--count") {
                Some(s) => s
                    .parse()
                    .map_err(|_| "--count must be an integer".to_string())?,
                None => (net.num_nodes() / 16).clamp(1, 4096),
            };
            let seed: u64 = match opt(args, "--seed") {
                Some(s) => s
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?,
                None => 0x5eed_0bec,
            };
            let set = spq_many::PoiSet::sample(&net, name, count, seed)?;
            let elapsed = t0.elapsed();
            let persisted = persist(out, |w| set.write_binary(w))?;
            println!(
                "sampled POI set '{}' in {:.2?}: {} vertices -> {out}\n  {persisted}",
                set.name(),
                elapsed,
                set.len()
            );
        }
        other => return Err(format!("--kind must be ch, hl, or poi, got '{other}'")),
    }
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let net = load_net(required(args, "--net")?)?;
    let s: u32 = required(args, "--from")?
        .parse()
        .map_err(|_| "--from must be a vertex id".to_string())?;
    let t: u32 = required(args, "--to")?
        .parse()
        .map_err(|_| "--to must be a vertex id".to_string())?;
    if s as usize >= net.num_nodes() || t as usize >= net.num_nodes() {
        return Err(format!(
            "vertex out of range (network has {} vertices)",
            net.num_nodes()
        ));
    }
    let want_path = flag(args, "--path");

    // A persisted CH takes precedence; otherwise build per --technique.
    if let Some(ch_path) = opt(args, "--ch") {
        let f = File::open(ch_path).map_err(|e| format!("cannot open {ch_path}: {e}"))?;
        let ch = spq_ch::ContractionHierarchy::read_binary(&mut BufReader::new(f))
            .map_err(|e| format!("cannot load {ch_path}: {e}"))?;
        if ch.num_nodes() != net.num_nodes() {
            return Err("CH index does not match the network".into());
        }
        let mut q = spq_ch::ChQuery::new(&ch);
        return answer(
            "CH(file)",
            q.distance(s, t),
            want_path.then(|| q.shortest_path(s, t)).flatten(),
            s,
            t,
        );
    }

    let name = opt(args, "--technique").unwrap_or("ch");
    let kind = BackendKind::parse(name).ok_or_else(|| format!("unknown technique '{name}'"))?;
    let built = kind.build(&net);
    let label = built.backend.backend_name();
    eprintln!("[{label} preprocessing: {:.2?}]", built.build_time);
    let mut q = built.backend.session(&net);
    answer(
        label,
        q.distance(s, t),
        want_path.then(|| q.shortest_path(s, t)).flatten(),
        s,
        t,
    )
}

fn verify(args: &[String]) -> Result<(), String> {
    let net = load_net(required(args, "--net")?)?;
    let samples: usize = opt(args, "--samples")
        .map(|s| {
            s.parse()
                .map_err(|_| "--samples must be an integer".to_string())
        })
        .transpose()?
        .unwrap_or(100);
    let seed: u64 = opt(args, "--seed")
        .map(|s| {
            s.parse()
                .map_err(|_| "--seed must be an integer".to_string())
        })
        .transpose()?
        .unwrap_or(7);
    let mut failed = false;
    for kind in BackendKind::ALL {
        if kind.needs_all_pairs() && net.num_nodes() > 24_000 {
            println!(
                "{:<9} skipped (all-pairs preprocessing on a large network)",
                kind.name()
            );
            continue;
        }
        let built = kind.build(&net);
        let report = verify_session(&net, built.backend.session(&net).as_mut(), samples, seed);
        let status = if report.is_clean() { "ok" } else { "DEFECTIVE" };
        println!(
            "{:<9} {:>4} queries checked, {} defects ({status}; prep {:.2?})",
            kind.name(),
            report.checked,
            report.defects.len(),
            built.build_time
        );
        for defect in &report.defects {
            println!("  {defect}");
        }
        failed |= !report.is_clean();
    }
    if failed {
        Err("verification found defects".into())
    } else {
        Ok(())
    }
}

/// Shared by `serve` and `loadgen`: `--net P` loads DIMACS, otherwise
/// `--target N` (default 2000) synthesises a network.
fn serve_network(args: &[String]) -> Result<RoadNetwork, String> {
    if let Some(base) = opt(args, "--net") {
        return load_net(base);
    }
    let target: usize = parsed(args, "--target", "an integer")?.unwrap_or(2000);
    let seed: u64 = parsed(args, "--seed", "an integer")?.unwrap_or(42);
    Ok(spq_synth::generate(&SynthParams::with_target_vertices(
        target, seed,
    )))
}

fn serve_backends(args: &[String]) -> Result<Vec<BackendKind>, String> {
    match opt(args, "--backends") {
        Some(list) => BackendKind::parse_list(list),
        None => Ok(BackendKind::DEFAULT.to_vec()),
    }
}

/// The flags `spq serve` accepts, and whether each takes a value.
const SERVE_FLAGS: [(&str, bool); 22] = [
    ("--net", true),
    ("--target", true),
    ("--seed", true),
    ("--addr", true),
    ("--backends", true),
    ("--index", true),
    ("--no-degrade", false),
    ("--workers", true),
    ("--shards", true),
    ("--pipeline-depth", true),
    ("--cache", true),
    ("--max-pending", true),
    ("--grace-ms", true),
    ("--peer-timeout-ms", true),
    ("--wbuf-cap", true),
    ("--mem-budget", true),
    ("--max-connections", true),
    ("--restart-cap", true),
    ("--reload-file", true),
    ("--no-audit", false),
    ("--audit-interval-ms", true),
    ("--no-failover", false),
];

/// What `spq serve` runs, apart from the network.
#[derive(Debug)]
struct ServeOptions {
    /// One slot per backend: built in memory, or loaded with `--index`.
    specs: Vec<BackendSpec>,
    /// Whether a slot whose index fails to load is served by a fallback
    /// instead of refusing to start (`--no-degrade` turns it off).
    degrade: bool,
    cfg: ServerConfig,
}

/// `--key value` parsed as a `T`; the error names the flag and `what`
/// it wants.
fn parsed<T: std::str::FromStr>(
    args: &[String],
    key: &str,
    what: &str,
) -> Result<Option<T>, String> {
    opt(args, key)
        .map(|s| s.parse().map_err(|_| format!("{key} must be {what}")))
        .transpose()
}

/// `--key N` as `N` milliseconds.
fn millis(args: &[String], key: &str) -> Result<Option<Duration>, String> {
    Ok(parsed(args, key, "an integer")?.map(Duration::from_millis))
}

/// Parses `spq serve`'s options. Any argument that is not one of
/// [`SERVE_FLAGS`] (with its value, where it takes one) is refused by
/// name: a typo or a retired flag must not start a server on defaults.
fn serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match SERVE_FLAGS.iter().find(|(name, _)| name == arg) {
            None => return Err(format!("serve does not accept '{arg}'")),
            Some((_, true)) if rest.next().is_none() => return Err(format!("{arg} needs a value")),
            Some(_) => {}
        }
    }

    // Backend specs: --backends names the set, each repeatable
    // `--index kind=path` loads that backend from a persisted index
    // instead of building it (and adds the kind if it was not listed).
    let mut specs: Vec<BackendSpec> = serve_backends(args)?
        .into_iter()
        .map(BackendSpec::built)
        .collect();
    for raw in opt_all(args, "--index") {
        let spec = BackendSpec::parse(raw)?;
        match specs.iter_mut().find(|s| s.kind == spec.kind) {
            Some(existing) => *existing = spec,
            None => specs.push(spec),
        }
    }

    let mut cfg = ServerConfig::default();
    if let Some(addr) = opt(args, "--addr") {
        cfg.addr = addr.to_string();
    }
    let int = "an integer";
    cfg.workers = parsed(args, "--workers", int)?.unwrap_or(cfg.workers);
    cfg.shards = parsed(args, "--shards", int)?.unwrap_or(cfg.shards);
    cfg.pipeline_depth = parsed(args, "--pipeline-depth", int)?.unwrap_or(cfg.pipeline_depth);
    cfg.cache_capacity = parsed(args, "--cache", int)?.unwrap_or(cfg.cache_capacity);
    cfg.max_pending = parsed(args, "--max-pending", int)?.unwrap_or(cfg.max_pending);
    cfg.grace = millis(args, "--grace-ms")?.unwrap_or(cfg.grace);
    cfg.restart_cap = parsed(args, "--restart-cap", int)?.unwrap_or(cfg.restart_cap);
    // Resource-exhaustion knobs: how long a peer may make no progress,
    // per-connection write backlog cap, global memory budget, and
    // admission limit.
    cfg.peer_timeout = millis(args, "--peer-timeout-ms")?.unwrap_or(cfg.peer_timeout);
    cfg.wbuf_cap = parsed(args, "--wbuf-cap", "a byte count")?.unwrap_or(cfg.wbuf_cap);
    cfg.mem_budget = parsed(args, "--mem-budget", "a byte count")?.unwrap_or(cfg.mem_budget);
    cfg.max_connections = parsed(args, "--max-connections", int)?.unwrap_or(cfg.max_connections);
    // Hot reload: a watched spec file (see README) makes RELOAD frames,
    // SIGHUP, and file edits swap the index without dropping the server.
    cfg.reload_file = opt(args, "--reload-file").map(std::path::PathBuf::from);
    // Continuous oracle auditing is on by default for a long-running
    // server; --no-audit turns the background checker off.
    if !flag(args, "--no-audit") {
        let defaults = AuditConfig::default();
        cfg.audit = Some(AuditConfig {
            interval: millis(args, "--audit-interval-ms")?.unwrap_or(defaults.interval),
            failover: !flag(args, "--no-failover"),
        });
    } else if flag(args, "--no-failover") {
        return Err("--no-failover only makes sense with auditing enabled".into());
    }
    Ok(ServeOptions {
        specs,
        degrade: !flag(args, "--no-degrade"),
        cfg,
    })
}

fn serve(args: &[String]) -> Result<(), String> {
    let ServeOptions {
        specs,
        degrade,
        cfg,
    } = serve_options(args)?;
    let net = serve_network(args)?;
    eprintln!(
        "serving network: {} vertices, {} edges",
        net.num_nodes(),
        net.num_edges()
    );
    let engine = Engine::build_with_indexes(net, &specs, degrade)?;
    for d in engine.degradations() {
        eprintln!(
            "WARNING: serving {} via {} ({})",
            d.requested.name(),
            d.served_by.name(),
            d.reason
        );
    }
    // The startup gate: refuse to serve from an index that disagrees
    // with the Dijkstra oracle (returning Err exits non-zero). The same
    // sample count and seed gate every reload before publication.
    engine
        .self_check(SELFCHECK_QUERIES, SELFCHECK_SEED)
        .map_err(|e| format!("refusing to serve: {e}"))?;
    eprintln!(
        "self-check passed for {} backend(s) ({SELFCHECK_QUERIES} queries, seed {SELFCHECK_SEED})",
        engine.backends().len()
    );
    // The fd-squeeze env hook: a torture child lowers its own
    // RLIMIT_NOFILE before binding, so the whole accept path runs
    // starved from the first connection.
    if let Ok(v) = std::env::var(spq_serve::eventloop::FD_LIMIT_ENV) {
        let target: u64 = v.parse().map_err(|_| {
            format!(
                "{} must be an integer, got '{v}'",
                spq_serve::eventloop::FD_LIMIT_ENV
            )
        })?;
        let now = spq_serve::eventloop::lower_nofile_limit(target);
        eprintln!(
            "fd soft limit lowered to {now} (env {})",
            spq_serve::eventloop::FD_LIMIT_ENV
        );
    }
    if let Some(p) = &cfg.reload_file {
        eprintln!(
            "hot reload enabled: watching {} (also RELOAD frames and SIGHUP)",
            p.display()
        );
    }
    install_signal_handlers();
    let server = Server::start(Arc::new(engine), &cfg).map_err(|e| format!("bind: {e}"))?;
    println!("listening on {}", server.local_addr());
    while !server.shutting_down() {
        std::thread::sleep(Duration::from_millis(100));
    }
    server.request_shutdown(); // propagate a signal-initiated stop
    eprintln!("shutting down\n--- final stats ---\n{}", server.join());
    Ok(())
}

/// The flags `spq loadgen` accepts, each taking one value.
const LOADGEN_FLAGS: [&str; 10] = [
    "--net",
    "--target",
    "--seed",
    "--backends",
    "--concurrency",
    "--duration",
    "--warmup-ms",
    "--per-set",
    "--retries",
    "--out",
];

/// Parses `spq loadgen`'s sweep options. Any argument that is not one
/// of [`LOADGEN_FLAGS`] with its value is refused by name: a flag this
/// sweep does not know must fail loudly, not run a different sweep.
fn loadgen_options(args: &[String]) -> Result<LoadgenOptions, String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !LOADGEN_FLAGS.contains(&arg.as_str()) {
            return Err(format!("loadgen does not accept '{arg}'"));
        }
        if rest.next().is_none() {
            return Err(format!("{arg} needs a value"));
        }
    }
    let mut opts = LoadgenOptions {
        backends: serve_backends(args)?,
        ..LoadgenOptions::default()
    };
    if let Some(list) = opt(args, "--concurrency") {
        opts.concurrency = list
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| {
                p.parse::<usize>()
                    .map_err(|_| format!("--concurrency: cannot parse '{p}'"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if opts.concurrency.is_empty() || opts.concurrency.contains(&0) {
            return Err("--concurrency needs positive thread counts".into());
        }
    }
    if let Some(s) = opt(args, "--duration") {
        opts.duration = s
            .parse()
            .ok()
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            .ok_or("--duration must be a non-negative number of seconds")?;
    }
    let int = "an integer";
    opts.warmup = millis(args, "--warmup-ms")?.unwrap_or(opts.warmup);
    opts.per_set = parsed(args, "--per-set", int)?.unwrap_or(opts.per_set);
    opts.seed = parsed(args, "--seed", int)?.unwrap_or(opts.seed);
    opts.retry.max_retries = parsed(args, "--retries", int)?.unwrap_or(opts.retry.max_retries);
    Ok(opts)
}

fn loadgen(args: &[String]) -> Result<(), String> {
    let opts = loadgen_options(args)?;
    let net = serve_network(args)?;
    let (report, stats) = run_in_process(net, &opts)?;
    eprintln!("--- final server stats ---\n{stats}");

    let out = opt(args, "--out").unwrap_or("results/serve_throughput.csv");
    write_csv(&report.rows, std::path::Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("{}", ThroughputRow::CSV_HEADER);
    for row in &report.rows {
        println!("{}", row.to_csv());
    }
    if let Some(e) = &report.error {
        return Err(format!(
            "sweep died mid-run ({} partial row(s) written): {e}",
            report.rows.len()
        ));
    }
    let mismatches = report.mismatches();
    if mismatches > 0 {
        return Err(format!("{mismatches} answer(s) disagreed with the oracle"));
    }
    if report.rows.iter().any(|r| r.requests == 0) {
        return Err("a run completed zero requests".into());
    }
    println!("wrote {out}");
    Ok(())
}

fn bench(args: &[String]) -> Result<(), String> {
    if !flag(args, "--json") {
        return Err("spq bench only has a JSON report; pass --json".into());
    }
    let mut opts = spq_core::bench::BenchOptions {
        smoke_only: flag(args, "--smoke"),
        ..spq_core::bench::BenchOptions::default()
    };
    if let Some(s) = opt(args, "--out") {
        opts.out = s.into();
    }
    if let Some(s) = opt(args, "--check") {
        opts.check = Some(s.into());
    }
    if let Some(s) = opt(args, "--tolerance") {
        opts.tolerance = s
            .parse()
            .map_err(|_| "--tolerance must be a number (0.25 = 25%)".to_string())?;
        if !opts.tolerance.is_finite() || opts.tolerance <= 0.0 {
            return Err("--tolerance must be positive".into());
        }
    }
    if let Some(s) = opt(args, "--queries") {
        opts.queries = s
            .parse()
            .map_err(|_| "--queries must be an integer".to_string())?;
    }
    if let Some(s) = opt(args, "--seed") {
        opts.seed = s
            .parse()
            .map_err(|_| "--seed must be an integer".to_string())?;
    }
    if let Some(s) = opt(args, "--only") {
        opts.only = s.split(',').map(|p| p.trim().to_string()).collect();
    }
    if let Some(s) = opt(args, "--backends") {
        opts.backends = s.split(',').map(|p| p.trim().to_string()).collect();
    }
    spq_core::bench::run(&opts)?;
    Ok(())
}

fn torture(args: &[String]) -> Result<(), String> {
    use spq_serve::torture::{run_torture, TortureOptions};
    let mut opts = TortureOptions {
        spq_bin: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        dir: opt(args, "--dir").unwrap_or("torture-scratch").into(),
        minimize: !flag(args, "--no-minimize"),
        artifact: opt(args, "--artifact").map(Into::into),
        resource: flag(args, "--resource"),
        ..TortureOptions::default()
    };
    if let Some(s) = opt(args, "--seed") {
        opts.seed = s
            .parse()
            .map_err(|_| "--seed must be an integer".to_string())?;
    }
    if let Some(s) = opt(args, "--rounds") {
        opts.rounds = s
            .parse()
            .map_err(|_| "--rounds must be an integer".to_string())?;
    }
    if let Some(s) = opt(args, "--target") {
        opts.target = s
            .parse()
            .map_err(|_| "--target must be an integer".to_string())?;
    }
    if let Some(s) = opt(args, "--startup-timeout-s") {
        opts.startup_timeout = Duration::from_secs(
            s.parse()
                .map_err(|_| "--startup-timeout-s must be an integer".to_string())?,
        );
    }
    let report = run_torture(&opts)?;
    print!("{}", report.render());
    if report.failures() > 0 {
        return Err(format!(
            "{} torture round(s) failed (seed {})",
            report.failures(),
            report.seed
        ));
    }
    Ok(())
}

fn answer(
    label: &str,
    dist: Option<u64>,
    path: Option<(u64, Vec<u32>)>,
    s: u32,
    t: u32,
) -> Result<(), String> {
    match dist {
        Some(d) => println!("{label}: dist({s}, {t}) = {d}"),
        None => println!("{label}: {t} unreachable from {s}"),
    }
    if let Some((d, p)) = path {
        println!("path ({} vertices, length {d}):", p.len());
        let rendered: Vec<String> = p.iter().map(|v| v.to_string()).collect();
        println!("  {}", rendered.join(" -> "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_puts_every_flag_it_accepts_in_its_field() {
        let o = serve_options(&args(&[
            "--target",
            "500",
            "--seed",
            "3",
            "--addr",
            "0.0.0.0:7000",
            "--backends",
            "dijkstra,ch",
            "--index",
            "hl=labels.hl",
            "--no-degrade",
            "--workers",
            "3",
            "--shards",
            "2",
            "--pipeline-depth",
            "9",
            "--cache",
            "11",
            "--max-pending",
            "13",
            "--grace-ms",
            "15",
            "--peer-timeout-ms",
            "17",
            "--wbuf-cap",
            "19",
            "--mem-budget",
            "21",
            "--max-connections",
            "23",
            "--restart-cap",
            "25",
            "--reload-file",
            "reload.conf",
            "--audit-interval-ms",
            "27",
            "--no-failover",
        ]))
        .expect("every accepted flag parses");
        let kinds: Vec<_> = o.specs.iter().map(|s| (s.kind, s.index.clone())).collect();
        assert_eq!(
            kinds,
            [
                (BackendKind::Dijkstra, None),
                (BackendKind::Ch, None),
                (BackendKind::Hl, Some("labels.hl".into())),
            ]
        );
        assert!(!o.degrade);
        let c = &o.cfg;
        assert_eq!(c.addr, "0.0.0.0:7000");
        assert_eq!(
            (
                c.workers,
                c.shards,
                c.pipeline_depth,
                c.cache_capacity,
                c.max_pending
            ),
            (3, 2, 9, 11, 13)
        );
        assert_eq!(c.grace, Duration::from_millis(15));
        assert_eq!(c.peer_timeout, Duration::from_millis(17));
        assert_eq!(
            (c.wbuf_cap, c.mem_budget, c.max_connections, c.restart_cap),
            (19, 21, 23, 25)
        );
        assert_eq!(c.reload_file, Some("reload.conf".into()));
        let audit = c.audit.as_ref().expect("auditing is on by default");
        assert_eq!(audit.interval, Duration::from_millis(27));
        assert!(!audit.failover);

        // Nothing given: the library defaults, the default backends,
        // degradation and auditing on.
        let o = serve_options(&[]).expect("no flags at all");
        let d = ServerConfig::default();
        assert_eq!(o.specs.len(), BackendKind::DEFAULT.len());
        assert!(o.degrade);
        assert_eq!((o.cfg.addr, o.cfg.peer_timeout), (d.addr, d.peer_timeout));
        let audit = o.cfg.audit.expect("auditing is on by default");
        assert_eq!(audit.interval, AuditConfig::default().interval);
        assert!(audit.failover);
        assert!(serve_options(&args(&["--no-audit"]))
            .unwrap()
            .cfg
            .audit
            .is_none());
    }

    #[test]
    fn serve_refuses_removed_and_unknown_flags_by_name() {
        for flag in [
            "--selfcheck-queries",
            "--selfcheck-seed",
            "--reload-poll-ms",
            "--restart-window-ms",
            "--audit-queries",
            "--audit-threshold",
            "--stall-timeout-ms",
            "--write-timeout-ms",
            "--bogus",
        ] {
            let err = serve_options(&args(&["--target", "500", flag, "1"]))
                .expect_err("an unknown flag must not start a server");
            assert!(err.contains(flag), "{flag}: {err}");
        }
        // `--help` is not a serve flag either: it must not start a
        // server, and neither may a stray positional argument or a
        // valued flag missing its value.
        let err = serve_options(&args(&["--help"])).unwrap_err();
        assert!(err.contains("'--help'"), "{err}");
        let err = serve_options(&args(&["extra"])).unwrap_err();
        assert!(err.contains("'extra'"), "{err}");
        let err = serve_options(&args(&["--target", "500", "--workers"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn serve_refuses_malformed_values_naming_the_flag() {
        for (flag, value) in [
            ("--workers", "many"),
            ("--shards", "-1"),
            ("--pipeline-depth", "1.5"),
            ("--cache", "big"),
            ("--max-pending", ""),
            ("--grace-ms", "3s"),
            ("--peer-timeout-ms", "-5"),
            ("--wbuf-cap", "4MiB"),
            ("--mem-budget", "x"),
            ("--max-connections", "NaN"),
            ("--restart-cap", "0x5"),
            ("--audit-interval-ms", "soon"),
            ("--backends", "bogus"),
            ("--index", "ch"),
            ("--index", "bogus=x.ch"),
        ] {
            let err = serve_options(&args(&[flag, value]))
                .expect_err("a malformed value must not start a server");
            assert!(
                err.contains(flag) || err.contains(value),
                "{flag} {value}: {err}"
            );
        }
        for (flag, value) in [("--target", "lots"), ("--seed", "s")] {
            let err = serve_network(&args(&[flag, value])).expect_err("malformed network flag");
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
    }

    /// `--index` on a kind with no on-disk format, and `--backends all`,
    /// are refused while the flags are parsed: before any network is
    /// read or index built.
    #[test]
    fn serve_refuses_an_index_that_can_never_load_and_the_all_alias() {
        for kind in ["tnr", "silc", "alt", "arcflags", "pcpd", "dijkstra"] {
            let err = serve_options(&args(&["--index", &format!("{kind}=/x")]))
                .expect_err("an index kind with no container must not start a server");
            assert!(
                err.starts_with(&format!("{kind} has no on-disk index format")),
                "{err}"
            );
            assert!(err.contains("only ch and hl"), "{err}");
        }
        for list in ["all", "ch,all"] {
            let err = serve_options(&args(&["--backends", list])).unwrap_err();
            assert!(err.contains("unknown backend 'all'"), "{err}");
            let err = loadgen_options(&args(&["--backends", list])).unwrap_err();
            assert!(err.contains("unknown backend 'all'"), "{err}");
        }
    }

    /// Without `--backends`, serve and loadgen run the default set,
    /// every slot built; the kinds left out of it are served by name.
    #[test]
    fn serve_and_loadgen_run_the_default_set_unless_told_otherwise() {
        let o = serve_options(&[]).expect("no flags is a valid serve");
        let kinds: Vec<BackendKind> = o.specs.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, BackendKind::DEFAULT);
        assert!(o.specs.iter().all(|s| s.index.is_none()));
        assert_eq!(loadgen_options(&[]).unwrap().backends, BackendKind::DEFAULT);

        let named = ["--backends", "silc,pcpd,arcflags"];
        let wanted = [BackendKind::Silc, BackendKind::Pcpd, BackendKind::ArcFlags];
        let o = serve_options(&args(&named)).unwrap();
        let kinds: Vec<BackendKind> = o.specs.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, wanted);
        assert_eq!(loadgen_options(&args(&named)).unwrap().backends, wanted);
    }

    /// A small network written as DIMACS under a fresh directory, and
    /// the base path `--net` takes.
    fn dimacs_network(tag: &str, target: usize) -> (RoadNetwork, std::path::PathBuf, String) {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(target, 5));
        let dir = std::env::temp_dir().join(format!("spq_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("net").display().to_string();
        spq_graph::dimacs::write_gr(&net, File::create(format!("{base}.gr")).unwrap()).unwrap();
        spq_graph::dimacs::write_co(&net, File::create(format!("{base}.co")).unwrap()).unwrap();
        (net, dir, base)
    }

    /// `spq verify` builds and certifies every kind, the ones left out
    /// of the default set included, and refuses a malformed count.
    #[test]
    fn verify_certifies_every_kind_on_a_clean_network() {
        let (_, dir, base) = dimacs_network("verify", 300);
        verify(&args(&["--net", &base, "--samples", "30"])).expect("every kind is clean");
        let err = verify(&args(&["--net", &base, "--samples", "many"])).unwrap_err();
        assert!(err.contains("--samples"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every container `spq prep` writes is one the server reads: CH
    /// and HL load through `--index`, a POI set through `PoiSet`. Any
    /// other kind is refused by name, and writes nothing.
    #[test]
    fn prep_writes_only_containers_the_server_reads() {
        let (net, dir, base) = dimacs_network("prep", 200);
        for kind in [BackendKind::Ch, BackendKind::Hl] {
            let out = dir.join(kind.name()).display().to_string();
            prep(&args(&[
                "--net",
                &base,
                "--out",
                &out,
                "--kind",
                kind.name(),
            ]))
            .unwrap();
            let (_, bytes) = Engine::load_backend(kind, std::path::Path::new(&out), &net)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(bytes, kind.build(&net).index_bytes, "{}", kind.name());
        }
        let out = dir.join("poi").display().to_string();
        prep(&args(&[
            "--net", &base, "--out", &out, "--kind", "poi", "--count", "9",
        ]))
        .unwrap();
        let set = spq_many::PoiSet::read_binary(&mut File::open(&out).unwrap()).unwrap();
        assert_eq!(set.len(), 9);
        assert!(set.validate_for(net.num_nodes()).is_ok());

        for kind in ["tnr", "silc", "alt", "arcflags", "pcpd"] {
            let out = dir.join(kind);
            let err = prep(&args(&[
                "--net",
                &base,
                "--out",
                &out.display().to_string(),
                "--kind",
                kind,
            ]))
            .unwrap_err();
            assert_eq!(err, format!("--kind must be ch, hl, or poi, got '{kind}'"));
            assert!(!out.exists(), "{kind}: a refused kind writes nothing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_takes_index_repeatedly_and_the_last_one_per_kind_wins() {
        let o = serve_options(&args(&[
            "--backends",
            "dijkstra",
            "--index",
            "ch=a.ch",
            "--index",
            "hl=b.hl",
            "--index",
            "ch=c.ch",
        ]))
        .expect("repeated --index");
        let kinds: Vec<_> = o.specs.iter().map(|s| (s.kind, s.index.clone())).collect();
        assert_eq!(
            kinds,
            [
                (BackendKind::Dijkstra, None),
                (BackendKind::Ch, Some("c.ch".into())),
                (BackendKind::Hl, Some("b.hl".into())),
            ]
        );
    }

    #[test]
    fn serve_refuses_no_failover_without_auditing() {
        let err = serve_options(&args(&["--no-audit", "--no-failover"])).unwrap_err();
        assert!(err.contains("--no-failover"), "{err}");
    }

    /// The `serve` lines of `spq --help` name every flag in
    /// [`SERVE_FLAGS`] and no other, so the help cannot drift from
    /// what the parser accepts.
    #[test]
    fn serve_usage_lists_exactly_the_accepted_flags() {
        let section: Vec<&str> = USAGE
            .lines()
            .skip_while(|l| !l.trim_start().starts_with("serve "))
            .take_while(|l| !l.trim_start().starts_with("loadgen "))
            .collect();
        assert!(!section.is_empty(), "no serve section in:\n{USAGE}");
        let listed: std::collections::BTreeSet<&str> = section
            .iter()
            .flat_map(|l| l.split(|c: char| c.is_whitespace() || "[]()|*".contains(c)))
            .filter(|tok| tok.starts_with("--"))
            .collect();
        let accepted: std::collections::BTreeSet<&str> =
            SERVE_FLAGS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, accepted, "serve usage:\n{}", section.join("\n"));
    }

    #[test]
    fn loadgen_parses_every_flag_it_accepts() {
        let opts = loadgen_options(&args(&[
            "--target",
            "500",
            "--seed",
            "9",
            "--backends",
            "ch,hl",
            "--concurrency",
            "1,3",
            "--duration",
            "0.5",
            "--warmup-ms",
            "20",
            "--per-set",
            "7",
            "--retries",
            "5",
            "--out",
            "lg.csv",
        ]))
        .expect("every accepted flag parses");
        assert_eq!(opts.backends, [BackendKind::Ch, BackendKind::Hl]);
        assert_eq!(opts.concurrency, [1, 3]);
        assert_eq!(opts.duration, Duration::from_millis(500));
        assert_eq!(opts.warmup, Duration::from_millis(20));
        assert_eq!((opts.per_set, opts.seed, opts.retry.max_retries), (7, 9, 5));
    }

    #[test]
    fn loadgen_refuses_flags_it_does_not_accept_by_name() {
        for flag in [
            "--mix",
            "--slow-readers",
            "--slow-reader-rate",
            "--connections",
            "--churn-every",
            "--reload-every",
            "--workload",
            "--deadline-ms",
            "--bogus",
        ] {
            let err = loadgen_options(&args(&["--target", "500", flag, "1"]))
                .expect_err("an unknown flag must not run a sweep");
            assert!(err.contains(flag), "{flag}: {err}");
        }
        // A stray positional argument, and an accepted flag missing its
        // value, are refused too.
        let err = loadgen_options(&args(&["extra"])).unwrap_err();
        assert!(err.contains("'extra'"), "{err}");
        let err = loadgen_options(&args(&["--target", "500", "--duration"])).unwrap_err();
        assert!(err.contains("--duration"), "{err}");
    }

    #[test]
    fn loadgen_refuses_malformed_values_naming_the_flag() {
        for (flag, value) in [
            ("--concurrency", "0"),
            ("--concurrency", "1,x"),
            ("--concurrency", ","),
            ("--duration", "-1"),
            ("--duration", "NaN"),
            ("--duration", "soon"),
            ("--warmup-ms", "1.5"),
            ("--per-set", "-3"),
            ("--seed", "s"),
            ("--retries", "many"),
        ] {
            let err = loadgen_options(&args(&["--target", "500", flag, value]))
                .expect_err("a malformed value must not run a sweep");
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
    }
}
