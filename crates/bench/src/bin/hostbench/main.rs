//! `hostbench` — what the engine costs the *host*: wall clock and resident
//! memory from NDlog source text to the distributed fixpoint, five workloads,
//! with per-layer probes.  What the modelled *network* costs (simulated
//! completion, bandwidth) is printed beside it under `sim.*`, labelled as
//! model output, and the two are never mixed under one key.
//!
//! Two ways to run it (see `README.md` in this directory):
//!
//! * one measurement — what `BENCHMARK.json`'s command invokes:
//!   `hostbench --workload W --seed N --seconds S --trace 0|1` prints the
//!   end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
//!   as the last line of standard output;
//! * the suite — `hostbench [--seed N] [--workload W] [--quick]
//!   [--repeat 2]` runs every workload in its own child process, both ways,
//!   and prints one JSON document.
//!
//! Either way the exit code is non-zero if any correctness check failed.

mod catalog;
mod inputs;
mod json;
mod probes;
mod reference;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

/// Measurement budget of one run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Seed of the documented baseline numbers (the paper's year).
const DEFAULT_SEED: u64 = 2008;

/// Environment overrides the engine honours.  The benchmark removes them so
/// a developer's shell cannot change what is measured.
pub const ENGINE_ENV_OVERRIDES: [&str; 2] = ["PASN_WORKERS", "PASN_FAULT_SEED"];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    repeat: u32,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => parsed.seed = number(flag, value()?)?,
            "--seconds" => {
                parsed.seconds = number(flag, value()?)?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--repeat" => {
                parsed.repeat = number(flag, value()?)?;
                if !(1..=2).contains(&parsed.repeat) {
                    return Err("--repeat takes 1 or 2".into());
                }
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.trace.is_some() && parsed.workload.is_none() {
        return Err("--trace measures one workload: name it with --workload".into());
    }
    if parsed.quick && parsed.repeat > 1 {
        return Err(
            "--quick is a smoke test: its numbers are not comparable, so --repeat refuses it"
                .into(),
        );
    }
    Ok(parsed)
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("hostbench: {message}");
            eprintln!(
                "usage: hostbench [--seed N] [--workload NAME] [--seconds S] [--quick] \
                 [--repeat 2] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Before the first engine call: the engine reads these once per process.
    for name in ENGINE_ENV_OVERRIDES {
        std::env::remove_var(name);
    }
    let correct = match (args.workload, args.trace) {
        (Some(workload), Some(trace)) => {
            let outcome = run::run(run::RunArgs {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace,
                quick: args.quick,
            });
            println!("{}", outcome.detail.render());
            println!("{}", outcome.result.render());
            outcome.result.get("correct").and_then(json::Json::as_bool) == Some(true)
        }
        _ => suite::run(suite::SuiteArgs {
            only: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            repeat: args.repeat,
        }),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("hostbench: a correctness check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload reach_stream --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::ReachStream));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, Some(true)));
        let suite = parse("").unwrap();
        assert_eq!((suite.seed, suite.trace, suite.repeat), (2008, None, 1));
        assert!(suite.workload.is_none() && !suite.quick);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2 --workload prov_query",
            "--trace 0",
            "--repeat 3",
            "--quick --repeat 2",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(line).is_err(), "`{line}` must be refused");
        }
    }
}
