//! Figure 11: shortest-path-query time vs query set on DE, CO, E-US
//! (and US with SPQ_MAX_DATASET=US).

use spq_bench::matrix::{run_query_experiment, QueryKind, TechniquePlan, Workload, ALL_SETS};
use spq_bench::Config;
use spq_serve::BackendKind;
use spq_synth::Dataset;

fn main() {
    let cfg = Config::from_env();
    let wanted = std::env::var("SPQ_MAX_DATASET")
        .map(|cap| match cap.to_uppercase().as_str() {
            "US" | "C-US" | "W-US" => vec!["DE", "CO", "E-US", "US"],
            _ => vec!["DE", "CO", "E-US"],
        })
        .unwrap_or_else(|_| vec!["DE", "CO", "E-US"]);
    let datasets: Vec<&Dataset> = wanted
        .iter()
        .map(|n| Dataset::by_name(n).expect("registry name"))
        .collect();
    let plans = [
        TechniquePlan::all(BackendKind::Ch),
        TechniquePlan::all(BackendKind::Tnr),
        TechniquePlan {
            tech: BackendKind::Silc,
            dataset_cap: 2,
            pair_limit: usize::MAX,
        },
    ];
    let table = run_query_experiment(
        "fig11",
        &cfg,
        &datasets,
        &ALL_SETS,
        Workload::Linf,
        QueryKind::Path,
        &plans,
    );
    table.finish();
    println!(
        "\nexpected shape (paper Fig. 11): TNR == CH on the near sets, falling\n\
         behind CH on Q7..Q10 (each path step costs a table distance query);\n\
         SILC beats both where it fits."
    );
}
