//! `bench` — the anthill-rs benchmark.
//!
//! `bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]` runs one
//! workload, verifies its outputs and prints every metric by name with its
//! unit; the last line of standard output is the result as one JSON object.
//! `bench aa --runs N` is the A/A study the bounds in `BENCHMARK.json` were
//! set from. See `README.md` for the method.

mod aa;
mod drills;
mod host;
mod inputs;
mod measure;
mod report;
mod run;
mod spans;
mod stats;
mod verify;
mod workloads;

use std::process::ExitCode;

use report::{end_to_end_spec, PER_LAYER};
use run::Args;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "usage: bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]
       bench aa [--runs n] [--seconds s]
workloads: nbia_native native_fine net_batch net_stream des_cluster";

/// Parse the flags of a run. Every flag takes one value.
fn parse_run(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run_once(args: &Args) -> Result<(), String> {
    let (result, spec) = if args.trace {
        (run::traced(args)?, PER_LAYER.to_vec())
    } else {
        (run::end_to_end(args)?, end_to_end_spec())
    };
    let spec = spec.as_slice();
    let line = result.to_json_line(spec)?;
    for c in &result.complaints {
        eprintln!("verification failed: {c}");
    }
    eprint!("{}", result.to_table(spec));
    eprintln!(
        "correct: {}  attempted: {}  failed: {}",
        result.failed == 0,
        result.attempted,
        result.failed
    );
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("aa") => aa::main(&argv[1..]),
        Some(_) => parse_run(&argv).and_then(|args| run_once(&args)),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_run(&argv(
            "--workload net_batch --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "net_batch".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        let d = parse_run(&argv("--workload des_cluster")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, 12.0, false));
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "",
            "--seed 3",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seconds nan",
            "--workload x --seed",
            "--workload x --frobnicate 1",
        ] {
            assert!(parse_run(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
