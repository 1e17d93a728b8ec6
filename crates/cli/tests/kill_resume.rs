//! Kill-and-resume smoke test: SIGKILL the `snowcat campaign` binary
//! mid-run, resume from its checkpoint, and verify the final coverage is
//! byte-identical to an uninterrupted run with the same seed.

use snowcat_core::HistoryPoint;
use snowcat_harness::load_checkpoint_with_fallback;
use snowcat_kernel::BugId;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn snowcat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_snowcat"))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("snowcat-kill-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The per-CTI history and the bugs found, read from a campaign's final
/// SCCP checkpoint: they must be identical between a kill+resume run and an
/// uninterrupted one.
fn history_of(path: &Path) -> (Vec<HistoryPoint>, Vec<BugId>) {
    let (ck, fell_back) = load_checkpoint_with_fallback(path).expect("final checkpoint loads");
    assert!(!fell_back, "the final checkpoint of a finished run is intact");
    (ck.history, ck.bugs_found)
}

const COMMON: &[&str] = &["campaign", "--seed", "77", "--ctis", "8", "--budget", "5"];

#[test]
fn killed_campaign_resumes_to_identical_coverage() {
    let dir = tmp_dir("resume");
    let ckpt = dir.join("campaign.ckpt");
    let full_report = dir.join("full-report.json");
    // The reference run checkpoints into a subdirectory, so `status dir`
    // below sees only the victim's campaign checkpoint.
    let ref_dir = dir.join("ref");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let full_ckpt = ref_dir.join("full.ckpt");

    // Reference: the same campaign, uninterrupted.
    let status = snowcat()
        .args(COMMON)
        .args(["--checkpoint", full_ckpt.to_str().unwrap()])
        .args(["--report", full_report.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success());

    // Victim: checkpoint every CTI, stall so the kill lands mid-campaign.
    let mut child = snowcat()
        .args(COMMON)
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--checkpoint-every", "1", "--stall-ms", "300"])
        .spawn()
        .expect("binary spawns");

    // Wait for at least one checkpoint to land, then kill without warning.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared within 30s");
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "campaign finished before we could kill it — raise --stall-ms"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");

    // The checkpoint (or its .prev fallback, if the kill tore the newest
    // write) must load, and the resumed run must finish the campaign.
    // The resumed run keeps checkpointing so a final SCCP snapshot exists
    // for `snowcat status` to summarize.
    let status = snowcat()
        .args(COMMON)
        .args(["--resume", ckpt.to_str().unwrap()])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success(), "resume after SIGKILL failed");

    assert_eq!(
        history_of(&ckpt),
        history_of(&full_ckpt),
        "kill+resume must reproduce the uninterrupted campaign exactly"
    );

    // `snowcat status --json` over the kill-and-resumed directory must be
    // byte-identical to the uninterrupted run's unified `--report` file.
    let out =
        snowcat().args(["status", dir.to_str().unwrap(), "--json"]).output().expect("binary runs");
    assert!(out.status.success(), "status failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        std::fs::read_to_string(&full_report).unwrap(),
        "status --json must equal the uninterrupted run's unified report, byte for byte"
    );
}

#[test]
fn corrupt_checkpoint_without_fallback_exits_4() {
    let dir = tmp_dir("corrupt");
    let ckpt = dir.join("campaign.ckpt");
    std::fs::write(&ckpt, b"definitely not a checkpoint").unwrap();
    let out = snowcat()
        .args(COMMON)
        .args(["--resume", ckpt.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "corrupt checkpoint is exit code 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checkpoint corrupt"), "stderr names the failure: {stderr}");
}

#[test]
fn injected_predictor_style_faults_do_not_abort() {
    // A hang-heavy plan: the campaign must still exit 0 (no --fail-on-hung)
    // and report its recovery counters on stdout.
    let dir = tmp_dir("faulty");
    let report_json = dir.join("report.json");
    let out = snowcat()
        .args(COMMON)
        .args(["--fault-plan", "hang@1,hang@3x3", "--report", report_json.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "faulty campaign must complete");
    let v = serde_json::parse(&std::fs::read_to_string(&report_json).unwrap()).unwrap();
    let campaign = v.get("campaign").expect("a campaign report");
    let hung = campaign.get("hung_attempts").cloned();
    assert!(
        matches!(hung, Some(serde_json::Value::UInt(n)) if n >= 4),
        "hang@1 + hang@3x3 means at least 4 hung attempts, got {hung:?}"
    );
    let quarantined = campaign.get("quarantined").and_then(|q| q.as_array().map(<[_]>::len));
    assert_eq!(quarantined, Some(1), "only the 3x-hung position is quarantined");

    // The same plan with --fail-on-hung is exit code 3.
    let out = snowcat()
        .args(COMMON)
        .args(["--fault-plan", "hang@3x3"])
        .arg("--fail-on-hung")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "hung CT with --fail-on-hung is exit code 3");
}
