//! End-to-end and per-layer benchmark of the srsf solver.
//!
//! ```text
//! solverbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs one workload (see `workload.rs` and `README.md`) closed-loop with
//! one client thread, checks every output, and prints a human-readable
//! summary followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` repeats the run and reports the
//! per-layer metrics instead. `--smoke` shrinks every problem to a few
//! thousand unknowns. The exit code is 0 only when every check passed.

mod replay;
mod stats;
mod workload;

use stats::result_json;
use std::process::ExitCode;
use workload::{Plan, Workload};

const USAGE: &str =
    "usage: solverbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&format!("one of {names:?}")))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let plan = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        plan.workload.name(),
        plan.seed,
        plan.seconds,
        u8::from(plan.trace),
        if plan.smoke { " (smoke sizes)" } else { "" }
    );
    let rep = workload::run(&plan);
    for line in &rep.notes {
        println!("  {line}");
    }
    for m in &rep.per_layer {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &rep.errors {
        eprintln!("check failed: {e}");
    }
    let metrics = if plan.trace {
        &rep.per_layer
    } else {
        &rep.end_to_end
    };
    let complete = !metrics.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    let correct = rep.errors.is_empty() && complete;
    println!(
        "{}",
        result_json(correct, rep.attempted.max(1), rep.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
