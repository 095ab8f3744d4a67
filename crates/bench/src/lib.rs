//! Shared harness for the experiment binaries (one per table/figure of
//! the paper).
//!
//! Every binary follows the same pattern: build the Table-1 datasets at
//! the configured scale, generate the paper's query sets, time each
//! technique, and print the same rows/series the paper's figure reports
//! (also appending CSV under `results/`).
//!
//! Environment knobs:
//!
//! * `SPQ_SCALE` — `smoke`, `paper` (default, 1/40), or a numeric
//!   divisor applied to Table 1's vertex counts.
//! * `SPQ_QUERIES` — pairs per query set (default 1000; the paper uses
//!   10000).
//! * `SPQ_MAX_DATASET` — last dataset to include (default per binary).
//! * `SPQ_SEED` — workload seed.
//! * `SPQ_THREADS` — preprocessing worker threads (default: all cores);
//!   parallel builds are byte-identical to sequential ones, so this only
//!   changes wall-clock. The `prep_speedup` binary sweeps it.

pub mod matrix;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use spq_graph::backend::Session;
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;
use spq_queries::{QueryGenParams, QuerySet};
use spq_synth::{Dataset, Scale, DATASETS};

/// Harness configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Dataset scale.
    pub scale: Scale,
    /// Pairs per query set.
    pub per_set: usize,
    /// Workload seed.
    pub seed: u64,
    /// Preprocessing worker threads (resolved from `SPQ_THREADS` /
    /// available parallelism by [`spq_graph::par::num_threads`]).
    pub threads: usize,
}

impl Config {
    /// Reads `SPQ_SCALE`, `SPQ_QUERIES`, `SPQ_SEED` and `SPQ_THREADS`.
    pub fn from_env() -> Config {
        let per_set = std::env::var("SPQ_QUERIES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1000);
        let seed = std::env::var("SPQ_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x9e37_79b9);
        Config {
            scale: Scale::from_env(),
            per_set,
            seed,
            threads: spq_graph::par::num_threads(),
        }
    }

    /// Query-generation parameters at this configuration.
    pub fn query_params(&self) -> QueryGenParams {
        QueryGenParams {
            per_set: self.per_set,
            grid: 1024,
            seed: self.seed,
        }
    }
}

/// The Table-1 datasets up to and including `cap` (by name), overridable
/// with `SPQ_MAX_DATASET`.
pub fn datasets_up_to(cap: &str) -> Vec<&'static Dataset> {
    let cap = std::env::var("SPQ_MAX_DATASET").unwrap_or_else(|_| cap.to_string());
    let mut out = Vec::new();
    for d in &DATASETS {
        out.push(d);
        if d.name.eq_ignore_ascii_case(&cap) {
            break;
        }
    }
    out
}

/// Builds a dataset's network at the configured scale, announcing it.
pub fn build_dataset(d: &Dataset, cfg: &Config) -> RoadNetwork {
    let t0 = Instant::now();
    let net = d.build_with_seed(cfg.scale, cfg.seed);
    eprintln!(
        "[dataset {}] n = {}, m = {} ({}; generated in {:.2?})",
        d.name,
        net.num_nodes(),
        net.num_edges(),
        d.region,
        t0.elapsed()
    );
    net
}

/// Average distance-query latency in microseconds over the pairs.
pub fn time_distance(q: &mut dyn Session, pairs: &[(NodeId, NodeId)]) -> f64 {
    assert!(!pairs.is_empty());
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &(s, t) in pairs {
        acc = acc.wrapping_add(q.distance(s, t).unwrap_or(0));
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(acc);
    elapsed.as_secs_f64() * 1e6 / pairs.len() as f64
}

/// Average shortest-path-query latency in microseconds over the pairs.
pub fn time_path(q: &mut dyn Session, pairs: &[(NodeId, NodeId)]) -> f64 {
    assert!(!pairs.is_empty());
    let t0 = Instant::now();
    let mut acc = 0usize;
    for &(s, t) in pairs {
        if let Some((_, path)) = q.shortest_path(s, t) {
            acc = acc.wrapping_add(path.len());
        }
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(acc);
    elapsed.as_secs_f64() * 1e6 / pairs.len() as f64
}

/// Caps very slow baselines: time at most `limit` pairs and extrapolate
/// nothing (report the measured average). Keeps Dijkstra on large
/// datasets from dominating wall-clock.
pub fn subset(pairs: &[(NodeId, NodeId)], limit: usize) -> &[(NodeId, NodeId)] {
    &pairs[..pairs.len().min(limit)]
}

/// A result table accumulated row by row and emitted as both an aligned
/// text table and CSV.
pub struct ResultTable {
    /// Experiment id, e.g. "fig8".
    pub id: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with the given column headers.
    pub fn new(id: &str, headers: &[&str]) -> Self {
        ResultTable {
            id: id.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Formats a float cell.
    pub fn f(x: f64) -> String {
        if x >= 100.0 {
            format!("{x:.0}")
        } else if x >= 1.0 {
            format!("{x:.2}")
        } else {
            format!("{x:.3}")
        }
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        println!("{line}");
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:>w$}  ");
            }
            println!("{line}");
        }
    }

    /// Writes `results/<id>.csv` relative to the workspace root.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        fs::write(&path, out)?;
        Ok(path)
    }

    /// Prints and writes, announcing the CSV location.
    pub fn finish(&self) {
        println!();
        self.print();
        match self.write_csv() {
            Ok(p) => println!("\n[written] {}", p.display()),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
    }
}

/// Keeps only non-empty query sets, warning about skipped ones.
pub fn non_empty(sets: Vec<QuerySet>) -> Vec<QuerySet> {
    sets.into_iter()
        .filter(|s| {
            if s.is_empty() {
                eprintln!(
                    "[warn] query set {} is empty at this scale; skipped",
                    s.label
                );
                false
            } else {
                true
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_up_to_caps_inclusively() {
        std::env::remove_var("SPQ_MAX_DATASET");
        let ds = datasets_up_to("ME");
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.last().unwrap().name, "ME");
        let all = datasets_up_to("US");
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn result_table_formats() {
        let mut t = ResultTable::new("test", &["a", "b"]);
        t.row(vec!["x".into(), ResultTable::f(1234.5)]);
        t.row(vec!["y".into(), ResultTable::f(0.123)]);
        assert_eq!(ResultTable::f(1234.6), "1235");
        assert_eq!(ResultTable::f(12.5), "12.50");
        assert_eq!(ResultTable::f(0.1234), "0.123");
        t.print();
    }

    #[test]
    fn config_defaults() {
        std::env::remove_var("SPQ_QUERIES");
        std::env::remove_var("SPQ_SEED");
        let cfg = Config::from_env();
        assert_eq!(cfg.per_set, 1000);
        assert_eq!(cfg.query_params().grid, 1024);
    }
}
