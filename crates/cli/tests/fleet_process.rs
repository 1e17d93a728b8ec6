//! Process-transport fleet smoke tests: SIGKILL a `fleet-worker`
//! subprocess mid-shard, SIGKILL the coordinator and check for orphans,
//! force graceful degradation below `--min-workers`, and drive a
//! poison-shard crash loop into quarantine — all while the merged report
//! stays byte-identical to an uninterrupted thread-transport fleet. A
//! fleet whose every shard is quarantined fails with exit 8 and a sealed
//! event stream, and `status` reports each failed fleet as failed.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn snowcat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_snowcat"))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("snowcat-fleet-process-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const COMMON: &[&str] = &["fleet", "--seed", "77", "--ctis", "16", "--budget", "5"];

/// Unfaulted thread-transport fleet with the same stream: the byte-level
/// oracle for every process-transport run below (process ≡ thread).
fn run_reference(dir: &Path) -> String {
    let report = dir.join("ref.json");
    let status = snowcat()
        .args(COMMON)
        .args(["--workers", "2"])
        .args(["--dir", dir.join("ref").to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success(), "reference fleet failed");
    std::fs::read_to_string(&report).unwrap()
}

/// PIDs of live `fleet-worker` subprocesses whose parent is `coord`,
/// discovered via /proc so the test never confuses another test's fleet
/// (the suite runs its cases in parallel threads of one process).
fn worker_children_of(coord: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // The ppid is the 4th stat field, but comm (field 2) may itself
        // contain spaces — split after the closing paren instead.
        let Some(idx) = stat.rfind(')') else { continue };
        let mut fields = stat[idx + 1..].split_whitespace();
        let _state = fields.next();
        let Some(ppid) = fields.next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if ppid != coord {
            continue;
        }
        let Ok(cmdline) = std::fs::read_to_string(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if cmdline.contains("fleet-worker") {
            out.push(pid);
        }
    }
    out
}

fn is_live_fleet_worker(pid: u32) -> bool {
    // PID reuse shows up as a live /proc entry with a different cmdline.
    std::fs::read_to_string(format!("/proc/{pid}/cmdline"))
        .map(|c| c.contains("fleet-worker"))
        .unwrap_or(false)
}

fn sigkill(pid: u32) {
    let status = Command::new("kill").args(["-9", &pid.to_string()]).status().expect("kill runs");
    assert!(status.success(), "kill -9 {pid} failed");
}

#[test]
fn process_single_worker_fleet_equals_campaign() {
    let dir = tmp_dir("n1");
    let campaign_report = dir.join("campaign.json");
    let fleet_report = dir.join("fleet.json");
    let status = snowcat()
        .args(["campaign", "--seed", "77", "--ctis", "16", "--budget", "5"])
        .args(["--report", campaign_report.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success());
    let status = snowcat()
        .args(COMMON)
        .args(["--workers", "1", "--transport", "process"])
        .args(["--dir", dir.join("f1").to_str().unwrap()])
        .args(["--report", fleet_report.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success());
    assert_eq!(
        std::fs::read_to_string(&campaign_report).unwrap(),
        std::fs::read_to_string(&fleet_report).unwrap(),
        "a single-worker process fleet must report byte-identically to snowcat campaign"
    );
}

#[test]
fn sigkilled_worker_subprocess_is_stolen_and_report_is_unchanged() {
    let dir = tmp_dir("worker-kill");
    let reference = run_reference(&dir);
    let fleet_dir = dir.join("victim");
    let report = dir.join("report.json");

    let mut child = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process"])
        .args(["--dir", fleet_dir.to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .args(["--checkpoint-every", "1", "--stall-ms", "150", "--lease-ms", "4000"])
        .spawn()
        .expect("binary spawns");
    let coord = child.id();

    // Once both shard checkpoints prove progress, SIGKILL one live worker
    // subprocess out from under its lease. Waiting for both means the
    // victim has progress to hand over: a steal from a worker that
    // persisted nothing is a no-progress generation, which re-runs the
    // shard with a salted seed by design and changes the report.
    let deadline = Instant::now() + Duration::from_secs(60);
    let killed = loop {
        assert!(Instant::now() < deadline, "no killable worker appeared within 60s");
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "fleet finished before we could kill a worker — raise --stall-ms"
        );
        let workers = worker_children_of(coord);
        let progressed =
            fleet_dir.join("shard-0.ckpt").exists() && fleet_dir.join("shard-1.ckpt").exists();
        if progressed {
            if let Some(&pid) = workers.first() {
                sigkill(pid);
                break pid;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let status = child.wait().expect("reaped");
    assert!(
        status.success(),
        "fleet must survive SIGKILL of worker subprocess {killed}: {status:?}"
    );
    assert_eq!(
        std::fs::read_to_string(&report).unwrap(),
        reference,
        "a stolen shard must merge byte-identically after the worker subprocess was SIGKILLed"
    );
}

#[test]
fn sigkilled_coordinator_leaves_no_orphans_and_resumes_byte_identically() {
    let dir = tmp_dir("coord-kill");
    let reference = run_reference(&dir);
    let fleet_dir = dir.join("victim");

    let mut child = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process"])
        .args(["--dir", fleet_dir.to_str().unwrap()])
        .args(["--checkpoint-every", "1", "--stall-ms", "150", "--lease-ms", "4000"])
        .spawn()
        .expect("binary spawns");
    let coord = child.id();

    // Wait until workers are live and a shard checkpoint exists, note the
    // worker PIDs, then SIGKILL the coordinator out from under them.
    let deadline = Instant::now() + Duration::from_secs(60);
    let workers = loop {
        assert!(Instant::now() < deadline, "fleet produced no live workers within 60s");
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "fleet finished before we could kill it — raise --stall-ms"
        );
        let workers = worker_children_of(coord);
        let progressed =
            fleet_dir.join("shard-0.ckpt").exists() || fleet_dir.join("shard-1.ckpt").exists();
        if progressed && !workers.is_empty() {
            break workers;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    child.kill().expect("SIGKILL coordinator");
    child.wait().expect("reaped");

    // Orphan reaping: every worker subprocess must notice the dead wire
    // (EPIPE on its next heartbeat) and exit on its own.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let orphans: Vec<u32> =
            workers.iter().copied().filter(|&p| is_live_fleet_worker(p)).collect();
        if orphans.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fleet-worker subprocess(es) {orphans:?} outlived the coordinator by 15s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let resumed_report = dir.join("resumed.json");
    let status = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process", "--resume"])
        .args(["--dir", fleet_dir.to_str().unwrap()])
        .args(["--report", resumed_report.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success(), "process fleet --resume after coordinator SIGKILL failed");
    assert_eq!(
        std::fs::read_to_string(&resumed_report).unwrap(),
        reference,
        "coordinator SIGKILL + resume must merge byte-identically"
    );
}

#[test]
fn degraded_fleet_exits_8_and_resumes_byte_identically() {
    let dir = tmp_dir("degraded");
    let reference = run_reference(&dir);
    let fleet_dir = dir.join("victim");

    // kill-worker@0 fires once; --max-steals 0 turns that single death
    // into a crash loop, the slot retires, and 1 live worker < the
    // --min-workers floor of 2 — graceful degradation, not fleet failure.
    let out = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process"])
        .args(["--min-workers", "2", "--max-steals", "0"])
        .args(["--fault-plan", "kill-worker@0"])
        .args(["--checkpoint-every", "1"])
        .args(["--dir", fleet_dir.to_str().unwrap()])
        .args(["--events", fleet_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(8), "degradation below --min-workers is exit code 8");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fleet degraded"), "stderr names the degradation: {stderr}");
    assert!(stderr.contains("--min-workers"), "stderr names the floor: {stderr}");
    assert!(stderr.contains("resume"), "stderr hints at resume: {stderr}");
    assert!(fleet_dir.join("fleet.scfc").exists(), "degradation must leave the SCFC behind");
    assert_status_reports_failure(&fleet_dir);

    let resumed_report = dir.join("resumed.json");
    let status = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process", "--resume"])
        .args(["--dir", fleet_dir.to_str().unwrap()])
        .args(["--report", resumed_report.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success(), "resume after degradation failed");
    assert_eq!(
        std::fs::read_to_string(&resumed_report).unwrap(),
        reference,
        "a degraded-then-resumed fleet must merge byte-identically"
    );
}

#[test]
fn poison_shard_crash_loop_is_quarantined_via_cli() {
    let dir = tmp_dir("poison");
    let fleet_dir = dir.join("victim");
    let out = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process"])
        .args(["--fault-plan", "poison-shard@1", "--max-steals", "2"])
        .args(["--dir", fleet_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "a quarantined poison shard must not fail the fleet: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 quarantined shard(s)"),
        "summary counts the quarantined shard: {stdout}"
    );
}

#[test]
fn all_quarantined_fleet_exits_8_with_a_sealed_event_stream() {
    // Every shard is poisoned, so every shard is quarantined before it
    // persists a checkpoint: nothing can be merged. That is a failed fleet
    // (exit 8) naming the shards, not a usage error, and the event stream
    // that explains it must still be sealed.
    let dir = tmp_dir("all-quarantined");
    let fleet_dir = dir.join("victim");
    let out = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process"])
        .args(["--fault-plan", "poison-shard@0,poison-shard@1"])
        .args(["--dir", fleet_dir.to_str().unwrap()])
        .args(["--events", fleet_dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(8), "a fleet with nothing to merge failed: {stderr}");
    assert!(stderr.contains("[0, 1]"), "stderr names the quarantined shards: {stderr}");
    let events = std::fs::read_to_string(fleet_dir.join("events.jsonl")).unwrap();
    assert!(!events.is_empty(), "the failed fleet's event stream must be written and sealed");
    let status = snowcat()
        .args(["status", fleet_dir.to_str().unwrap(), "--self-check"])
        .status()
        .expect("binary runs");
    assert!(status.success(), "status --self-check on the failed fleet's stream");
    assert_status_reports_failure(&fleet_dir);
}

/// `snowcat status DIR` on a fleet that exited 8 shows the failure, not a
/// run still in progress: the stream ends with a terminal event.
fn assert_status_reports_failure(dir: &Path) {
    let out = snowcat().args(["status", dir.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success(), "status on the failed fleet's directory");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("running"), "a failed fleet is not running: {stdout}");
    assert!(stdout.contains("fleet — failed"), "status names the failure: {stdout}");
}

#[test]
fn fault_plan_validation_rejects_out_of_range_targets_before_spawning() {
    // shard 9 cannot exist with 2 workers: reject at config time (exit 2)
    // instead of silently never firing.
    let dir = tmp_dir("badplan");
    let out = snowcat()
        .args(COMMON)
        .args(["--workers", "2", "--transport", "process"])
        .args(["--fault-plan", "poison-shard@9"])
        .args(["--dir", dir.join("f").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "out-of-range fault target is a config error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("poison-shard@9"), "stderr names the bad token: {stderr}");
    assert!(stderr.contains("silently ignored"), "stderr explains the rejection: {stderr}");
}
