//! Command-line entry point of the DStress benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload word64|access --seed N --seconds S --trace 0|1
//! ```
//!
//! Progress goes to standard error; the last line of standard output is
//! the JSON result. Exit code 0 means the correctness gate passed, 1 that
//! it failed (the result still prints), 2 that nothing could be measured.

use dstress::ExperimentScale;
use dstress_perfbench::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dstress-perfbench --workload word64|access --seed N \
                     --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(Workload, Config), String> {
    let mut workload = None;
    let mut config = Config {
        scale: ExperimentScale::paper(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".perfbench_tmp"),
        expected_digest: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad())?;
                if !(config.seconds > 0.0 && config.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(workload, &config) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // The scratch root holds only this run's directories, removed as they
    // finish; drop the root too when no concurrent run still uses it.
    let _ = std::fs::remove_dir(&config.scratch);
    for problem in &report.problems {
        eprintln!("gate: {problem}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
