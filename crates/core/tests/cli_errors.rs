//! The command-line front doors reject unusable input and output files with
//! a message and exit code 2, never a panic, and check output paths before
//! any simulation runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary under test launches")
}

fn simulate(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_simulate"), args)
}

fn figures(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_figures"), args)
}

/// A fresh path under the test's scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_errors");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// A path whose parent directory does not exist, so it cannot be created.
fn unwritable(name: &str) -> String {
    scratch("no-such-dir")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Exit code 2, no panic, and a message that names `needle`.
fn assert_clean_exit_2(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panic text: {stderr}");
    assert!(
        stderr.contains(needle),
        "message should name {needle}: {stderr}"
    );
}

#[test]
fn replay_of_a_missing_trace_exits_2() {
    let missing = scratch("missing.jsonl");
    let out = simulate(&["--quick", "--replay-trace", missing.to_str().unwrap()]);
    assert_clean_exit_2(&out, "--replay-trace");
}

#[test]
fn replay_of_a_malformed_trace_exits_2() {
    for (name, body) in [("garbage.jsonl", "this is not json\n"), ("empty.jsonl", "")] {
        let path = scratch(name);
        std::fs::write(&path, body).unwrap();
        let out = simulate(&["--quick", "--replay-trace", path.to_str().unwrap()]);
        assert_clean_exit_2(&out, "--replay-trace");
    }
}

#[test]
fn replay_on_too_few_gpus_exits_2() {
    let trace = scratch("w1.jsonl");
    let trace = trace.to_str().unwrap();
    let rec = simulate(&[
        "--quick",
        "--workload",
        "W1",
        "--gpus",
        "4",
        "--budget",
        "20000",
        "--record-trace",
        trace,
    ]);
    assert!(rec.status.success(), "recording failed: {rec:?}");
    let out = simulate(&["--quick", "--gpus", "2", "--replay-trace", trace]);
    assert_clean_exit_2(&out, "--replay-trace");
}

#[test]
fn workload_wider_than_the_system_exits_2() {
    let out = simulate(&["--quick", "--workload", "W1", "--gpus", "2"]);
    assert_clean_exit_2(&out, "W1");
}

#[test]
fn unwritable_simulate_outputs_exit_2_before_the_run() {
    for flag in [
        "--record-trace",
        "--metrics-json",
        "--trace-out",
        "--timeline-json",
        "--profile-json",
    ] {
        let path = unwritable("out.json");
        let out = simulate(&["--quick", "--budget", "20000", flag, &path]);
        assert_clean_exit_2(&out, flag);
        assert!(out.stdout.is_empty(), "{flag}: the run went ahead");
    }
}

#[test]
fn unwritable_figures_outputs_exit_2_before_the_suite() {
    for flag in ["--metrics-json", "--timeline-json", "--profile-json"] {
        let path = unwritable("out.json");
        let out = figures(&["--quick", "--budget", "2000", flag, &path, "fig2"]);
        assert_clean_exit_2(&out, flag);
        assert!(out.stdout.is_empty(), "{flag}: the suite ran first");
    }
}

#[test]
fn unwritable_figures_trace_out_exits_2() {
    let path = unwritable("trace.json");
    let out = figures(&["--quick", "--budget", "2000", "--trace-out", &path, "fig2"]);
    assert_clean_exit_2(&out, "--trace-out");
}
