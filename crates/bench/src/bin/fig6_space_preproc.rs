//! Figure 6: (a) index space consumption and (b) preprocessing time of
//! CH, TNR, SILC and PCPD as functions of n.
//!
//! Matches the paper's applicability pattern: SILC and PCPD are built
//! only on the four smallest datasets (their all-pairs preprocessing and
//! index size rule out the rest — at paper scale they exceed the 24 GB
//! memory ceiling beyond CO, §4.3); TNR runs up to `SPQ_MAX_DATASET`
//! (default E-US at the default scale), CH on everything.

use spq_bench::{build_dataset, datasets_up_to, Config, ResultTable};
use spq_serve::BackendKind;

fn main() {
    let cfg = Config::from_env();
    eprintln!(
        "[config] preprocessing with {} worker thread(s)",
        cfg.threads
    );
    let mut table = ResultTable::new(
        "fig6",
        &["dataset", "n", "technique", "space_mb", "preprocessing_sec"],
    );
    let tnr_cap = datasets_up_to("E-US").len();
    let silc_cap = datasets_up_to("CO").len().min(4);
    for (pos, d) in datasets_up_to("US").iter().enumerate() {
        let net = build_dataset(d, &cfg);
        let mut kinds = vec![BackendKind::Ch];
        if pos < tnr_cap {
            kinds.push(BackendKind::Tnr);
        }
        if pos < silc_cap {
            kinds.push(BackendKind::Silc);
            kinds.push(BackendKind::Pcpd);
        }
        for kind in kinds {
            let built = kind.build(&net);
            let label = built.backend.backend_name();
            let mb = built.index_bytes as f64 / (1024.0 * 1024.0);
            eprintln!(
                "  {label} on {}: {:.2} MB, {:.2?}",
                d.name, mb, built.build_time
            );
            table.row(vec![
                d.name.to_string(),
                net.num_nodes().to_string(),
                label.to_string(),
                ResultTable::f(mb),
                ResultTable::f(built.build_time.as_secs_f64()),
            ]);
        }
    }
    table.finish();
    println!(
        "\nexpected shape (paper Fig. 6): CH smallest space & fastest preprocessing;\n\
         TNR several times larger/slower; SILC/PCPD orders of magnitude above both\n\
         and absent beyond the four smallest datasets."
    );
}
