//! Host-time benchmark of the least-TLB simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quick-suite --seed 1 --seconds 55 --trace 0
//! ```
//!
//! Drives the simulator only through its public API, prints a human report
//! and, as the last line of standard output, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics and ledger
//! (`--trace 1`). See `perfbench/README.md` for the workloads, the metrics
//! and the measurement rules.

use std::process::ExitCode;
use std::time::Duration;

mod counts;
mod digest;
mod host;
mod ledger;
mod measure;
mod report;
mod spans;
mod stats;
mod suite_sims;
mod workload;

use workload::Workload;

/// Seed whose output digests are pinned in `perfbench/reference.json`.
pub(crate) const DEFAULT_SEED: u64 = 1;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <xlat-replay|quick-suite> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 55;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds '{value}' (1..=600)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", fingerprint.describe());

    let outcome = measure::run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    );
    match outcome {
        Ok(out) => {
            report::print(args.workload, args.trace, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "xlat-replay",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::XlatReplay);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args(&[]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(
            args(&["--workload", "wf-front"]).is_err(),
            "no such workload"
        );
        assert!(args(&["--workload", "quick-suite", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "quick-suite", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err(), "flag without value");
    }
}
