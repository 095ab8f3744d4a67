//! Shared driver for the query-latency experiments (Figures 7–11 and
//! 16–17): datasets × query sets × techniques, measuring average query
//! latency in microseconds.

use spq_queries::{linf_query_sets, network_query_sets, QuerySet};
use spq_serve::BackendKind;
use spq_synth::Dataset;

use crate::{build_dataset, subset, time_distance, time_path, Config, ResultTable};

/// Distance or shortest-path queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// §2 distance queries.
    Distance,
    /// §2 shortest-path queries.
    Path,
}

/// Which workload family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1..Q10 by L∞ distance (§4.2).
    Linf,
    /// R1..R10 by network distance (Appendix E.2).
    Network,
}

/// Per-technique inclusion rule.
#[derive(Debug, Clone, Copy)]
pub struct TechniquePlan {
    /// The technique.
    pub tech: BackendKind,
    /// Include on the first `dataset_cap` datasets of the run only
    /// (mirrors the paper's applicability boundaries).
    pub dataset_cap: usize,
    /// Cap on measured pairs per set (keeps the slow baseline from
    /// dominating wall-clock; the average is still over this subset).
    pub pair_limit: usize,
}

impl TechniquePlan {
    /// A plan with no caps.
    pub fn all(tech: BackendKind) -> Self {
        TechniquePlan {
            tech,
            dataset_cap: usize::MAX,
            pair_limit: usize::MAX,
        }
    }

    /// The paper's standard line-up for the main figures: the baseline
    /// (pair-capped), CH everywhere, TNR up to `tnr_cap` datasets, SILC
    /// on the four smallest.
    pub fn paper_lineup(include_dijkstra: bool, tnr_cap: usize) -> Vec<TechniquePlan> {
        let mut plans = Vec::new();
        if include_dijkstra {
            plans.push(TechniquePlan {
                tech: BackendKind::Dijkstra,
                dataset_cap: usize::MAX,
                pair_limit: 60,
            });
        }
        plans.push(TechniquePlan::all(BackendKind::Ch));
        plans.push(TechniquePlan {
            tech: BackendKind::Tnr,
            dataset_cap: tnr_cap,
            pair_limit: usize::MAX,
        });
        plans.push(TechniquePlan {
            tech: BackendKind::Silc,
            dataset_cap: 4,
            pair_limit: usize::MAX,
        });
        plans
    }
}

/// Runs the full matrix and returns the populated table with columns
/// `dataset, n, set, technique, micros_per_query`.
#[allow(clippy::too_many_arguments)]
pub fn run_query_experiment(
    id: &str,
    cfg: &Config,
    datasets: &[&Dataset],
    set_indices: &[usize],
    workload: Workload,
    kind: QueryKind,
    plans: &[TechniquePlan],
) -> ResultTable {
    let mut table = ResultTable::new(
        id,
        &["dataset", "n", "set", "technique", "micros_per_query"],
    );
    for (pos, d) in datasets.iter().enumerate() {
        let net = build_dataset(d, cfg);
        let all_sets = generate(workload, &net, cfg);
        let sets: Vec<&QuerySet> = set_indices
            .iter()
            .map(|&i| &all_sets[i])
            .filter(|s| {
                if s.is_empty() {
                    eprintln!("  [{}] {} empty at this scale; skipped", d.name, s.label);
                }
                !s.is_empty()
            })
            .collect();
        for plan in plans {
            if pos >= plan.dataset_cap {
                continue;
            }
            let built = plan.tech.build(&net);
            let label = built.backend.backend_name();
            eprintln!(
                "  [{}] {label} index ready in {:.2?}",
                d.name, built.build_time
            );
            let mut q = built.backend.session(&net);
            for set in &sets {
                let pairs = subset(&set.pairs, plan.pair_limit);
                let micros = match kind {
                    QueryKind::Distance => time_distance(q.as_mut(), pairs),
                    QueryKind::Path => time_path(q.as_mut(), pairs),
                };
                table.row(vec![
                    d.name.to_string(),
                    net.num_nodes().to_string(),
                    set.label.clone(),
                    label.to_string(),
                    ResultTable::f(micros),
                ]);
            }
        }
    }
    table
}

fn generate(workload: Workload, net: &spq_graph::RoadNetwork, cfg: &Config) -> Vec<QuerySet> {
    let params = cfg.query_params();
    match workload {
        Workload::Linf => linf_query_sets(net, &params),
        Workload::Network => network_query_sets(net, &params),
    }
}

/// All ten set indices.
pub const ALL_SETS: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// The four sets the paper's "vs n" figures plot (Q1, Q4, Q7, Q10).
pub const CORNER_SETS: [usize; 4] = [0, 3, 6, 9];
