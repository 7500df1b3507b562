//! Host-time benchmark of the MNP simulator.
//!
//! ```text
//! simbench --workload <name>[,<name>...]|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` each workload reports its end-to-end metrics
//! (`setup_s`, `run_s`, `peak_heap_mb`), measured with no timing inside
//! the simulation. With `--trace 1` a separate traced pass reports the
//! per-layer metrics. Every run is checked against its expected outcome
//! digest; the last line of standard output is one JSON object with the
//! attempted and failed run counts and the metrics.

mod alloc;
#[cfg(test)]
mod harness_tests;
mod measure;
mod report;
mod scenario;
mod timed;
mod traced;

use std::process::ExitCode;

use report::{json_line, Outcome};
use scenario::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: simbench --workload <name>[,<name>...]|all \
                     [--seed N] [--seconds S] [--trace 0|1]\n\
                     workloads: mobile-rlnc, observed";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    // BENCHMARK.json's `run_seconds`.
    let mut seconds = 55.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let list = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    v.split(',')
                        .map(|n| {
                            Workload::parse(n)
                                .ok_or_else(|| format!("unknown workload {n:?}\n{USAGE}"))
                        })
                        .collect::<Result<_, _>>()?
                };
                workloads = Some(list);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut results: Vec<(&str, Outcome)> = Vec::new();
    for &w in &args.workloads {
        let outcome = if args.trace {
            traced::run(w, args.seed)
        } else {
            measure::measure(w, args.seed, args.seconds)
        };
        for m in &outcome.metrics {
            println!(
                "{:<13} {:<28} {:>14.6} {}",
                w.name(),
                m.name,
                m.value,
                m.unit
            );
        }
        println!(
            "{:<13} attempted {} failed {}",
            w.name(),
            outcome.attempted,
            outcome.failed
        );
        results.push((w.name(), outcome));
    }
    println!("{}", json_line(&results));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload observed --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workloads: vec![Workload::Observed],
                seed: 7,
                seconds: 12.0,
                trace: true,
            }
        );
        assert_eq!(parse("--workload all").unwrap().workloads, Workload::ALL);
        assert_eq!(
            parse("--workload observed,mobile-rlnc").unwrap().workloads,
            [Workload::Observed, Workload::MobileRlnc]
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload observed --trace 2",
            "--workload observed --seconds 0",
            "--workload observed --seed x",
            "--workload observed --bogus 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
