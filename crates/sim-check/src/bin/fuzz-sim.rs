//! Config fuzzer driver: generates random simulator configurations and
//! scripted workloads, replays each through the differential oracle, and
//! on the first violation shrinks it to a minimized JSON repro. Each case
//! also drives the config and trace parsers with mutated copies of its
//! configuration and access trace; a parser panic is a violation, and the
//! input that caused it is written to the repro path instead.
//!
//! ```text
//! fuzz-sim [--cases N] [--seed S] [--out PATH] [--replay PATH]
//! ```
//!
//! Exit status is non-zero iff a violation was found (or a replayed repro
//! still fails).

use std::path::PathBuf;
use std::process::ExitCode;

use sim_check::fuzz::{fuzz_parsers, generate, run_case, shrink, FuzzCase};
use sim_check::Gen;

struct Args {
    cases: u64,
    seed: u64,
    out: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 200,
        seed: 0x5e1f_c8ec,
        out: PathBuf::from("fuzz-repro.json"),
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                println!("usage: fuzz-sim [--cases N] [--seed S] [--out PATH] [--replay PATH]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn write_repro(path: &PathBuf, case: &FuzzCase) {
    let json = serde_json::to_string_pretty(case).expect("repro serializes");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz-sim: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.replay {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let case: FuzzCase = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        return match run_case(&case) {
            Ok(report) => {
                println!("repro passes: {report:?}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("repro still fails: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    let mut g = Gen::new(args.seed);
    let mut totals = (0u64, 0u64, 0u64); // l2_hits, walks, remote_hits
    let mut parser_inputs = 0;
    for i in 0..args.cases {
        let case = generate(&mut g);
        match run_case(&case) {
            Ok(report) => {
                totals.0 += report.l2_hits;
                totals.1 += report.walks;
                totals.2 += report.remote_hits;
            }
            Err(msg) => {
                eprintln!("case {i}: VIOLATION: {msg}");
                let minimized = shrink(&case, |c| run_case(c).is_err());
                let final_msg = run_case(&minimized).err().unwrap_or_else(|| msg.clone());
                write_repro(&args.out, &minimized);
                eprintln!(
                    "minimized to {} accesses ({} before); repro written to {}",
                    minimized.entries.len(),
                    case.entries.len(),
                    args.out.display()
                );
                eprintln!("minimized failure: {final_msg}");
                return ExitCode::FAILURE;
            }
        }
        match fuzz_parsers(&case) {
            Ok(n) => parser_inputs += n,
            Err(v) => {
                eprintln!("case {i}: VIOLATION: {:?} parser: {}", v.parser, v.message);
                std::fs::write(&args.out, &v.input)
                    .unwrap_or_else(|e| panic!("writing {}: {e}", args.out.display()));
                eprintln!("input written to {}", args.out.display());
                return ExitCode::FAILURE;
            }
        }
        if (i + 1) % 50 == 0 {
            println!(
                "{} / {} cases clean (so far: {} L2 hits, {} walks, {} remote hits)",
                i + 1,
                args.cases,
                totals.0,
                totals.1,
                totals.2
            );
        }
    }
    println!(
        "{} cases clean: {} L2 hits, {} walks, {} remote hits",
        args.cases, totals.0, totals.1, totals.2
    );
    println!("{parser_inputs} parser inputs clean");
    ExitCode::SUCCESS
}
