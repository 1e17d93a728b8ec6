//! Kill-and-resume smoke tests for `snowcat train`: SIGKILL the trainer
//! mid-run (and, separately, die via an injected `kill@E` fault, for both
//! the coverage and the joint flow task), resume from the epoch checkpoint,
//! and verify the final report and the written model weights are
//! byte-identical to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn snowcat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_snowcat"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snowcat-train-kill-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Collect two small dataset shards so training runs skip the (slow,
/// checkpoint-free) collection phase and the kill lands during epochs.
fn collect_shards(dir: &Path) -> String {
    let mut spec = Vec::new();
    for (i, seed) in [("0", "11"), ("1", "12")] {
        let p = dir.join(format!("shard{i}.scds"));
        let status = snowcat()
            .args(["collect", "--seed", seed, "--ctis", "4", "--interleavings", "2"])
            .args(["--out", p.to_str().unwrap()])
            .status()
            .expect("binary runs");
        assert!(status.success(), "collect failed");
        spec.push(p.to_str().unwrap().to_string());
    }
    spec.join(",")
}

fn train_args(shards: &str) -> Vec<String> {
    ["train", "--seed", "99", "--epochs", "3", "--data", shards]
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// The unified `--report` JSON, which must be byte-identical between a
/// kill+resume run and an uninterrupted one (no wall-clock fields).
fn result_of(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let v = serde_json::parse(&text).unwrap();
    assert_eq!(
        v.get("schema_version").cloned(),
        Some(serde_json::Value::UInt(1)),
        "report carries the unified schema version"
    );
    assert!(v.get("train").is_some(), "train report populates the train summary");
    text
}

#[test]
fn killed_training_resumes_to_identical_weights_and_report() {
    let dir = tmp_dir("sigkill");
    let shards = collect_shards(&dir);
    let ckpt = dir.join("train.stcp");
    let (full_bin, full_rep) = (dir.join("full.bin"), dir.join("full.json"));
    let (res_bin, res_rep) = (dir.join("resumed.bin"), dir.join("resumed.json"));

    // Reference: the same training run, uninterrupted.
    let status = snowcat()
        .args(train_args(&shards))
        .args(["--out", full_bin.to_str().unwrap(), "--report", full_rep.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success());

    // Victim: checkpoint every epoch, stall so the kill lands mid-training.
    let mut child = snowcat()
        .args(train_args(&shards))
        .args(["--out", dir.join("victim.bin").to_str().unwrap()])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--checkpoint-every", "1", "--stall-ms", "400"])
        .spawn()
        .expect("binary spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no training checkpoint appeared within 60s");
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "training finished before we could kill it — raise --stall-ms"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");

    // Resume — at a different thread count, which must not change a bit.
    let status = snowcat()
        .args(train_args(&shards))
        .args(["--threads", "2", "--checkpoint", ckpt.to_str().unwrap()])
        .arg("--resume")
        .args(["--out", res_bin.to_str().unwrap(), "--report", res_rep.to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success(), "resume after SIGKILL failed");

    assert_eq!(
        result_of(&res_rep),
        result_of(&full_rep),
        "kill+resume must reproduce the uninterrupted training report exactly"
    );
    assert_eq!(
        std::fs::read(&res_bin).unwrap(),
        std::fs::read(&full_bin).unwrap(),
        "kill+resume must write byte-identical model weights"
    );
}

#[test]
fn injected_kill_fault_dies_at_137_and_resumes_identically() {
    let dir = tmp_dir("fault");
    let shards = collect_shards(&dir);
    // Once per task: coverage only, and coverage jointly with the flow head.
    for (tag, task) in [("coverage", &[][..]), ("flow", &["--flow"][..])] {
        let ckpt = dir.join(format!("{tag}.stcp"));
        let (full_bin, full_rep) = (dir.join(format!("{tag}-full.bin")), dir.join("full.json"));
        let (res_bin, res_rep) = (dir.join(format!("{tag}-resumed.bin")), dir.join("resumed.json"));

        let status = snowcat()
            .args(train_args(&shards))
            .args(task)
            .args(["--out", full_bin.to_str().unwrap(), "--report", full_rep.to_str().unwrap()])
            .status()
            .expect("binary runs");
        assert!(status.success(), "{tag}: uninterrupted run failed");

        // `kill@1` exits the process right after epoch 1's checkpoint lands.
        let out = snowcat()
            .args(train_args(&shards))
            .args(task)
            .args(["--out", dir.join("victim.bin").to_str().unwrap()])
            .args(["--checkpoint", ckpt.to_str().unwrap(), "--fault-plan", "kill@1"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(137), "{tag}: kill@E emulates SIGKILL");
        assert!(ckpt.exists(), "{tag}: the checkpoint must land before the kill");

        // Resuming with the same plan must not re-trigger the passed kill.
        let status = snowcat()
            .args(train_args(&shards))
            .args(task)
            .args(["--checkpoint", ckpt.to_str().unwrap(), "--fault-plan", "kill@1"])
            .arg("--resume")
            .args(["--out", res_bin.to_str().unwrap(), "--report", res_rep.to_str().unwrap()])
            .status()
            .expect("binary runs");
        assert!(status.success(), "{tag}: resume after kill@E failed");

        assert_eq!(result_of(&res_rep), result_of(&full_rep), "{tag}");
        assert_eq!(std::fs::read(&res_bin).unwrap(), std::fs::read(&full_bin).unwrap(), "{tag}");
    }
}

#[test]
fn flow_training_refuses_examples_without_flow_labels() {
    let dir = tmp_dir("noflow");
    let shards = collect_shards(&dir);
    // A JSON shard may omit flow labels and still validate; joint training
    // must refuse it as bad input rather than train on it.
    let first = shards.split(',').next().unwrap();
    let mut ds =
        snowcat_corpus::decode_dataset(bytes::Bytes::from(std::fs::read(first).unwrap())).unwrap();
    for e in &mut ds.examples {
        e.flow_labels.clear();
    }
    let json = dir.join("noflow.json");
    std::fs::write(&json, ds.to_json().unwrap()).unwrap();

    let out = snowcat()
        .args(train_args(json.to_str().unwrap()))
        .arg("--flow")
        .args(["--out", dir.join("never.bin").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "missing flow labels are bad input");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flow labels"), "stderr names the problem: {stderr}");

    // The same shard still trains the coverage head.
    let status = snowcat()
        .args(train_args(json.to_str().unwrap()))
        .args(["--out", dir.join("coverage.bin").to_str().unwrap()])
        .status()
        .expect("binary runs");
    assert!(status.success());
}

#[test]
fn corrupt_shard_is_quarantined_and_divergence_is_exit_7() {
    let dir = tmp_dir("quarantine");
    let shards = collect_shards(&dir);

    // Flip shard 1 on the way in: training must still succeed on shard 0
    // and name the quarantined shard on stderr and in the report.
    let rep = dir.join("report.json");
    let out = snowcat()
        .args(train_args(&shards))
        .args(["--fault-plan", "shard@1:flip"])
        .args(["--out", dir.join("pic.bin").to_str().unwrap()])
        .args(["--report", rep.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "quarantined shard must not abort training");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantined shard"), "stderr names the shard: {stderr}");
    let text = std::fs::read_to_string(&rep).unwrap();
    let v = serde_json::parse(&text).unwrap();
    let quarantined = v
        .get("train")
        .and_then(|t| t.get("quarantined_shards"))
        .and_then(|q| q.as_array().map(<[_]>::len));
    assert_eq!(quarantined, Some(1), "report lists the quarantined shard");

    // A fault that persists through every salted retry is exit code 7.
    let out = snowcat()
        .args(train_args(&shards))
        .args(["--fault-plan", "nan@0x9"])
        .args(["--out", dir.join("never.bin").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(7), "persistent divergence is exit code 7");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("diverged"), "stderr names the failure: {stderr}");
}
