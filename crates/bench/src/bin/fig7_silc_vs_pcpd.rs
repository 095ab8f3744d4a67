//! Figure 7: SILC vs PCPD shortest-path query time on the four smallest
//! datasets (DE, NH, ME, CO) across Q1..Q10.

use spq_bench::matrix::{run_query_experiment, QueryKind, TechniquePlan, Workload, ALL_SETS};
use spq_bench::{datasets_up_to, Config};
use spq_serve::BackendKind;

fn main() {
    let cfg = Config::from_env();
    let datasets = datasets_up_to("CO");
    let plans = [
        TechniquePlan::all(BackendKind::Silc),
        TechniquePlan::all(BackendKind::Pcpd),
    ];
    let table = run_query_experiment(
        "fig7",
        &cfg,
        &datasets,
        &ALL_SETS,
        Workload::Linf,
        QueryKind::Path,
        &plans,
    );
    table.finish();
    println!(
        "\nexpected shape (paper Fig. 7): SILC consistently outperforms PCPD on\n\
         every set and dataset (square-containment lookups beat pair-coverage\n\
         lookups), with both growing in the set index."
    );
}
