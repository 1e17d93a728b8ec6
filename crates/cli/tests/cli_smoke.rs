//! End-to-end tests driving the real `snowcat` binary.

use std::process::Command;

fn snowcat(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_snowcat")).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = snowcat(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("razzer"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = snowcat(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn kernel_inventory_is_deterministic() {
    let (ok, a, _) = snowcat(&["kernel", "--version", "5.12", "--seed", "99", "--stats"]);
    assert!(ok, "kernel command failed");
    assert!(a.contains("syscalls"));
    assert!(a.contains("fs"));
    let (_, b, _) = snowcat(&["kernel", "--version", "5.12", "--seed", "99", "--stats"]);
    assert_eq!(a, b);
}

#[test]
fn kernel_rejects_bad_version() {
    let (ok, _, stderr) = snowcat(&["kernel", "--version", "4.20"]);
    assert!(!ok);
    assert!(stderr.contains("unknown kernel version"));
}

#[test]
fn disasm_renders_a_function() {
    let (ok, stdout, _) = snowcat(&["disasm", "--version", "5.12", "--func", "fs_open"]);
    assert!(ok, "disasm failed");
    assert!(stdout.contains("fs_open:"));
    assert!(stdout.contains("ret") || stdout.contains("jmp") || stdout.contains("beq"));
}

#[test]
fn disasm_unknown_function_is_an_error() {
    let (ok, _, stderr) = snowcat(&["disasm", "--version", "5.12", "--func", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("no function named"));
}

#[test]
fn fuzz_reports_coverage_growth() {
    let (ok, stdout, _) = snowcat(&["fuzz", "--version", "5.12", "--iterations", "30"]);
    assert!(ok, "fuzz failed");
    assert!(stdout.contains("covered sequentially"));
}

#[test]
fn collect_writes_a_decodable_dataset() {
    let dir = std::env::temp_dir().join("snowcat-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.scds");
    let (ok, stdout, stderr) = snowcat(&[
        "collect",
        "--version",
        "5.12",
        "--out",
        path.to_str().unwrap(),
        "--ctis",
        "3",
        "--interleavings",
        "2",
    ]);
    assert!(ok, "collect failed: {stderr}");
    assert!(stdout.contains("labelled graphs"));
    let bytes = std::fs::read(&path).unwrap();
    let ds = snowcat_corpus::decode_dataset(bytes::Bytes::from(bytes)).unwrap();
    assert!(!ds.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn typo_in_option_is_rejected() {
    let (ok, _, stderr) = snowcat(&["fuzz", "--iterationz", "5"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"));
    // Bad usage exits 2, as USAGE documents: an unknown option, a removed
    // one, and an unparsable value alike.
    for args in [
        &["fuzz", "--iterationz", "5"][..],
        &["campaign", "--out", "x.json"],
        &["campaign", "--ctis", "notanumber"],
        &["train", "--out", "x.bin", "--fault-plan", "spike@0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_snowcat")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} is bad usage");
    }
}

#[test]
fn training_survives_large_finite_gradients_without_anomalies() {
    // Adam clips every update to a global gradient norm, so a large but
    // finite gradient is ordinary training, not an anomaly to roll back.
    let dir = std::env::temp_dir().join("snowcat-cli-train-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pic.bin");
    let out = Command::new(env!("CARGO_BIN_EXE_snowcat"))
        .args(["train", "--ctis", "32", "--epochs", "2", "--seed", "2"])
        .args(["--out", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("0 anomalies survived"), "{stdout}");
    std::fs::remove_file(&path).ok();
}
