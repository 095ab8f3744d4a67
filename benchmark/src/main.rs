//! `spq-benchmark` command line.
//!
//! ```text
//! spq-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! spq-benchmark manifest
//! spq-benchmark stability --runs N [--seconds S] [--seed N] [--smoke]
//! ```
//!
//! A run prints its progress on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits 0 when every answer checked was
//! right, 1 when one was not, 2 when the run could not be completed or
//! was not valid (no result line then).

use std::process::ExitCode;

use spq_benchmark::manifest::{self, RUN_SECONDS};
use spq_benchmark::run::{run, RunArgs};
use spq_benchmark::setup::{Tier, Workload};
use spq_benchmark::stability::{stability, StabilityArgs};

const USAGE: &str = "usage:
  spq-benchmark --workload paper-ch|served-point|served-mixed|served-many
                --seed N [--seconds S] [--trace 0|1] [--smoke]
  spq-benchmark manifest
  spq-benchmark stability --runs N [--seconds S] [--seed N] [--smoke]";

/// Seconds a `--smoke` phase lasts unless `--seconds` says otherwise.
const SMOKE_SECONDS: f64 = 2.0;

struct Flags {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        command: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} wants {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                flags.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--runs" => {
                flags.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if flags.runs < 2 {
                    return Err("--runs wants at least 2".into());
                }
            }
            "--smoke" => flags.smoke = true,
            "manifest" | "stability" if flags.command.is_none() => {
                flags.command = Some(arg.clone())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse(&args) {
        Ok(flags) => flags,
        Err(why) => {
            eprintln!("spq-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tier = if flags.smoke { Tier::Smoke } else { Tier::Full };
    let seconds = flags.seconds.unwrap_or(if flags.smoke {
        SMOKE_SECONDS
    } else {
        f64::from(RUN_SECONDS)
    });
    match flags.command.as_deref() {
        Some("manifest") => {
            print!("{}", manifest::manifest_json());
            ExitCode::SUCCESS
        }
        Some("stability") => {
            let study = StabilityArgs {
                runs: flags.runs,
                seconds,
                tier,
                first_seed: flags.seed,
            };
            match stability(&study) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("spq-benchmark: stability: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            let Some(workload) = flags.workload.as_deref().and_then(Workload::parse) else {
                eprintln!("spq-benchmark: --workload is missing or unknown\n{USAGE}");
                return ExitCode::from(2);
            };
            let run_args = RunArgs {
                workload,
                seed: flags.seed,
                seconds,
                trace: flags.trace,
                tier,
            };
            match run(&run_args) {
                Ok(outcome) => {
                    println!("{}", outcome.to_json());
                    ExitCode::from(outcome.exit_code())
                }
                Err(e) => {
                    eprintln!("spq-benchmark: {}: {e}", workload.name());
                    ExitCode::from(2)
                }
            }
        }
    }
}
