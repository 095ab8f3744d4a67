//! Figure 9: distance-query time vs query set (Q1..Q10) on DE, CO, E-US
//! (and US with SPQ_MAX_DATASET=US) for CH, TNR and SILC.

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
    // SILC appears only on datasets within the paper's applicability
    // boundary (DE and CO of this selection).
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
        "fig9",
        &cfg,
        &datasets,
        &ALL_SETS,
        Workload::Linf,
        QueryKind::Distance,
        &plans,
    );
    table.finish();
    println!(
        "\nexpected shape (paper Fig. 9): SILC grows steadily with the set index;\n\
         CH roughly flat; TNR == CH on Q1..Q5 (fallback), dropping an order of\n\
         magnitude below CH from Q7 on."
    );
}
