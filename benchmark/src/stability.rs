//! `spq-benchmark stability --runs N`: is the benchmark itself steady?
//!
//! Runs the four workloads N times, interleaved and each in a fresh
//! process (peak RSS is per process), every run with another seed, and
//! prints per workload × end-to-end metric the median, the quartiles and
//! two spreads against the metric's bound:
//!
//! * `iqr` — (Q3 − Q1) / median, quartiles as Python's
//!   `statistics.quantiles(values, n=4)` gives them. The benchmark is
//!   accepted only while this stays within the bound; it is built to
//!   keep it under a third of the bound.
//! * `range` — (max − min) / median, which must stay within the bound.
//!
//! Exits non-zero when a spread breaches.

use std::io;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::manifest::END_TO_END;
use crate::measure::{median, quartiles};
use crate::setup::{Tier, Workload};

/// What `stability` was asked to do.
#[derive(Debug, Clone)]
pub struct StabilityArgs {
    pub runs: usize,
    pub seconds: f64,
    pub tier: Tier,
    pub first_seed: u64,
}

/// The end-to-end metrics of one child run.
fn run_once(args: &StabilityArgs, workload: Workload, seed: u64) -> io::Result<Vec<(String, f64)>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::null());
    if args.tier == Tier::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output()?;
    let bad = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    if !out.status.success() {
        return Err(bad(format!(
            "{} seed {seed} exited with {}",
            workload.name(),
            out.status
        )));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(line).map_err(bad)?;
    let metrics = json
        .get("metrics")
        .ok_or_else(|| bad("result line has no metrics".into()))?;
    Ok(metrics
        .members()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Runs the study and prints the table; `Ok(false)` on a breach.
pub fn stability(args: &StabilityArgs) -> io::Result<bool> {
    // values[workload][metric] = one value per run
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; Workload::ALL.len()];
    for run in 0..args.runs {
        for (w, &workload) in Workload::ALL.iter().enumerate() {
            let seed = args.first_seed + run as u64;
            eprintln!(
                "[stability] run {}/{} {} seed {seed}",
                run + 1,
                args.runs,
                workload.name()
            );
            let metrics = run_once(args, workload, seed)?;
            for (i, spec) in END_TO_END.iter().enumerate() {
                let value = metrics
                    .iter()
                    .find(|(name, _)| name == spec.0)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{} did not report {}", workload.name(), spec.0),
                        )
                    })?;
                values[w][i].push(value);
            }
        }
    }

    let mut steady = true;
    println!(
        "| workload | metric | median | q1 | q3 | iqr/median | range/median | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (i, &(name, unit, _, bound)) in END_TO_END.iter().enumerate() {
            let v = &values[w][i];
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let iqr = (q3 - q1) / med;
            let range = (hi - lo) / med;
            // setup_s is exempt from the spread rule (only its median is
            // compared between sets of runs); it is still shown.
            let breach = name != "setup_s" && (iqr > bound || range > bound);
            let verdict = if breach {
                steady = false;
                "BREACH"
            } else if iqr > bound / 3.0 {
                "loose"
            } else {
                "steady"
            };
            println!(
                "| {} | {name} ({unit}) | {med:.4} | {q1:.4} | {q3:.4} | {iqr:.4} | {range:.4} | {bound} | {verdict} |",
                workload.name()
            );
        }
    }
    Ok(steady)
}
