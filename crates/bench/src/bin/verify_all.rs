//! Correctness certification: differential verification of every
//! technique against the Dijkstra baseline on sampled workloads — the
//! reproduction of the paper's own methodological point that a faulty
//! implementation invalidates published numbers (§1).
//!
//! Each (dataset, technique) pair is checked on [`SAMPLES`] pairs drawn
//! from the harness seed (`SPQ_SEED`, like every figure binary), so a
//! defect report can be reproduced exactly.

use std::process::ExitCode;

use spq_bench::{build_dataset, datasets_up_to, Config, ResultTable};
use spq_serve::{verify_session, BackendKind};

/// Sampled queries per (dataset, technique) pair.
const SAMPLES: usize = 200;

fn main() -> ExitCode {
    let cfg = Config::from_env();
    let mut table = ResultTable::new(
        "verify",
        &["dataset", "n", "technique", "checked", "defects"],
    );
    let mut all_clean = true;
    for (pos, d) in datasets_up_to("ME").iter().enumerate() {
        let net = build_dataset(d, &cfg);
        for kind in BackendKind::PAPER {
            if kind.needs_all_pairs() && pos >= 4 {
                continue;
            }
            let built = kind.build(&net);
            let label = built.backend.backend_name();
            let report = verify_session(
                &net,
                built.backend.session(&net).as_mut(),
                SAMPLES,
                cfg.seed,
            );
            if !report.is_clean() {
                all_clean = false;
                for defect in report.defects.iter().take(3) {
                    eprintln!("  [{}] {label} DEFECT: {defect}", d.name);
                }
            }
            table.row(vec![
                d.name.to_string(),
                net.num_nodes().to_string(),
                label.to_string(),
                report.checked.to_string(),
                report.defects.len().to_string(),
            ]);
        }
    }
    table.finish();
    if !all_clean {
        // An explicit non-zero exit (not a panic) so CI and scripts can
        // gate on it even with panic=abort or --release quirks.
        eprintln!("differential verification found defects");
        return ExitCode::FAILURE;
    }
    println!("\nall techniques certified against the baseline.");
    ExitCode::SUCCESS
}
