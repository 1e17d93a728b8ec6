//! Fault-injection integration suite for the robust training pipeline.
//!
//! Proves the training-robustness acceptance criteria end to end:
//!
//! * an **empty fault plan** makes [`robust_train`] bit-identical to the
//!   plain `snowcat_nn::train` loop, at any thread count,
//! * **injected NaN and worker-panic faults** are detected by the anomaly
//!   guards, rolled back, and survived via salted retries, with every
//!   event in the anomaly log,
//! * a **persistent fault** exhausts the bounded retries into a typed
//!   `SnowcatError::TrainingDiverged` (exit code 7) with the model left at
//!   its last good state,
//! * **corrupt data shards** are quarantined with reasons instead of
//!   aborting the load,
//! * an **interrupted run resumed from its checkpoint** — even at a
//!   different thread count — finishes bit-identical to an uninterrupted
//!   one, including when the newest checkpoint is corrupt and the `.prev`
//!   fallback must be used,
//! * resume refuses a checkpoint from a different run: another schedule,
//!   other data, or the other task (coverage vs. joint flow training).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_corpus::{build_dataset, interacting_cti_pairs, Dataset, DatasetConfig, StiFuzzer};
use snowcat_harness::{
    corrupt, load_shards_quarantining, prev_path, robust_train, CorruptionKind, RobustTrainConfig,
    TrainFaultPlan, TrainRunReport, TRAIN_CKPT_VERSION,
};
use snowcat_kernel::{generate, GenConfig};
use snowcat_nn::{train, FlowLabeledGraph, LabeledGraph, PicConfig, PicModel, TrainConfig};
use std::path::PathBuf;

fn small_model() -> PicModel {
    PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() })
}

/// A small deterministic (train, valid) dataset pair built through the real
/// collection path.
fn small_data() -> (Dataset, Dataset) {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let mut fz = StiFuzzer::new(&k, 11);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let ctis = interacting_cti_pairs(&mut rng, &corpus, 10);
    let dc = DatasetConfig { interleavings_per_cti: 2, seed: 17 };
    let train_set = build_dataset(&k, &cfg, &corpus, &ctis[..8], dc);
    let valid_set = build_dataset(&k, &cfg, &corpus, &ctis[8..], dc);
    (train_set, valid_set)
}

fn as_refs(ds: &Dataset) -> Vec<LabeledGraph<'_>> {
    ds.examples.iter().map(|e| (&e.graph, e.labels.as_slice())).collect()
}

fn schedule(threads: usize) -> TrainConfig {
    TrainConfig { epochs: 4, batch: 2, seed: 0xBADD_CAFE, threads, ..Default::default() }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snowcat-train-rob-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn empty_plan_is_bit_identical_to_plain_train_at_any_thread_count() {
    let (tr, va) = small_data();
    let (tr_refs, va_refs) = (as_refs(&tr), as_refs(&va));

    let mut plain = small_model();
    let plain_report = train(&mut plain, &tr_refs, &va_refs, schedule(1), None, &mut ()).unwrap();

    for threads in [1usize, 3] {
        let mut supervised = small_model();
        let cfg = RobustTrainConfig::new(schedule(threads));
        let report = robust_train(&mut supervised, &tr_refs, &va_refs, &cfg, false).unwrap();
        assert_eq!(
            supervised.params, plain.params,
            "{threads}-thread supervised run must be bit-identical to plain train()"
        );
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&report.epoch_losses), bits(&plain_report.state.epoch_losses));
        assert_eq!(report.val_ap, plain_report.state.val_ap);
        assert!(report.anomalies.is_empty() && report.completed && !report.early_stopped);
    }
}

#[test]
fn injected_faults_are_detected_rolled_back_and_survived() {
    let (tr, va) = small_data();
    let (tr_refs, va_refs) = (as_refs(&tr), as_refs(&va));

    let mut cfg = RobustTrainConfig::new(schedule(2));
    cfg.fault_plan = TrainFaultPlan::parse("panic@0,nan@1").unwrap();
    let mut model = small_model();
    let report = robust_train(&mut model, &tr_refs, &va_refs, &cfg, false).unwrap();

    assert!(report.completed, "every fault class must be recovered, not fatal");
    assert_eq!(report.epoch_losses.len(), 4);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    let kind_at = |epoch: usize| {
        report
            .anomalies
            .iter()
            .find(|a| a.epoch == epoch)
            .unwrap_or_else(|| panic!("no anomaly recorded for epoch {epoch}: {report:?}"))
            .kind
            .clone()
    };
    assert_eq!(kind_at(0), "worker-panic");
    assert_eq!(kind_at(1), "nan-grad");
    // Each fault fired on attempt 0 only, so one anomaly per epoch.
    assert_eq!(report.anomalies.len(), 2);
    assert!(report.anomalies.iter().all(|a| a.attempt == 0));
}

#[test]
fn persistent_fault_exhausts_retries_into_training_diverged() {
    let (tr, va) = small_data();
    let (tr_refs, va_refs) = (as_refs(&tr), as_refs(&va));

    let mut cfg = RobustTrainConfig::new(schedule(1));
    cfg.max_retries = 2;
    // Faulted through attempts 0..=2 — one more than the retry budget.
    cfg.fault_plan = TrainFaultPlan::parse("nan@0x3").unwrap();
    let mut model = small_model();
    let initial = model.params.clone();
    let err = robust_train(&mut model, &tr_refs, &va_refs, &cfg, false).unwrap_err();

    assert_eq!(err.exit_code(), 7, "training divergence has its own exit code: {err}");
    let text = err.to_string();
    assert!(text.contains("epoch 0") && text.contains("nan-grad"), "cause is named: {text}");
    assert_eq!(model.params, initial, "model must be left at the last good state");
}

#[test]
fn corrupt_shards_are_quarantined_with_reasons_not_fatal() {
    let dir = tmp_dir("shards");
    let (tr, _) = small_data();
    let shard = |range: std::ops::Range<usize>| Dataset { examples: tr.examples[range].to_vec() };
    let paths: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("shard{i}.scds"))).collect();
    for (i, p) in paths.iter().enumerate() {
        snowcat_core::save_dataset(p, &shard(i * 4..(i + 1) * 4)).unwrap();
    }
    // A 4th shard that decodes (JSON) but fails structural validation.
    let mut bad = shard(12..14);
    bad.examples[0].labels.pop();
    let bad_path = dir.join("shard3.json");
    std::fs::write(&bad_path, bad.to_json().unwrap()).unwrap();
    // A 5th that does not exist at all.
    let missing = dir.join("shard4.scds");
    let mut all = paths.clone();
    all.push(bad_path);
    all.push(missing);

    let plan = TrainFaultPlan::parse("shard@1:flip,shard@2:trunc").unwrap();
    let (merged, report) = load_shards_quarantining(&all, &plan, None);

    assert_eq!(report.loaded, 1, "only the untouched shard 0 survives");
    assert_eq!(merged.len(), 4);
    assert_eq!(merged.examples, tr.examples[0..4].to_vec());
    assert_eq!(report.quarantined.len(), 4, "{report:?}");
    let reason_of = |name: &str| {
        report
            .quarantined
            .iter()
            .find(|q| q.path.contains(name))
            .unwrap_or_else(|| panic!("{name} not quarantined: {report:?}"))
            .reason
            .clone()
    };
    assert!(reason_of("shard1").contains("decode failed"));
    assert!(reason_of("shard2").contains("decode failed"));
    assert!(reason_of("shard3").contains("validation failed"), "{}", reason_of("shard3"));
    assert!(reason_of("shard3").contains("label count"));
    assert!(reason_of("shard4").contains("read failed"));

    // The empty plan loads everything that is well-formed.
    let (_, clean) = load_shards_quarantining(&paths, &TrainFaultPlan::default(), None);
    assert_eq!(clean.loaded, 3);
    assert!(clean.quarantined.is_empty());
}

fn run_uninterrupted(
    tr: &[LabeledGraph<'_>],
    va: &[LabeledGraph<'_>],
) -> (PicModel, TrainRunReport) {
    let mut model = small_model();
    let cfg = RobustTrainConfig::new(schedule(1));
    let report = robust_train(&mut model, tr, va, &cfg, false).unwrap();
    (model, report)
}

#[test]
fn interrupted_run_resumes_bit_identically_even_across_thread_counts() {
    let (tr, va) = small_data();
    let (tr_refs, va_refs) = (as_refs(&tr), as_refs(&va));
    let (reference, ref_report) = run_uninterrupted(&tr_refs, &va_refs);

    let dir = tmp_dir("resume");
    let ckpt = dir.join("train.stcp");
    let mut cfg = RobustTrainConfig::new(schedule(1));
    cfg.checkpoint_path = Some(ckpt.clone());
    cfg.stop_after = Some(2);
    let mut model = small_model();
    let partial = robust_train(&mut model, &tr_refs, &va_refs, &cfg, false).unwrap();
    assert!(!partial.completed);
    assert_eq!(partial.epoch_losses.len(), 2);
    assert!(partial.threshold.is_none(), "no threshold tuning before completion");

    // Resume in a fresh "process" (fresh model object) at a different
    // thread count — the checkpoint carries the RNG stream and permutation.
    let mut resumed_cfg = RobustTrainConfig::new(schedule(3));
    resumed_cfg.checkpoint_path = Some(ckpt.clone());
    let mut resumed = small_model();
    let report = robust_train(&mut resumed, &tr_refs, &va_refs, &resumed_cfg, true).unwrap();

    assert_eq!(resumed.params, reference.params, "resumed weights must be bit-identical");
    assert_eq!(report, ref_report, "resumed report must match the uninterrupted one exactly");

    // Resuming a *complete* checkpoint short-circuits to the same result.
    let mut again = small_model();
    let report2 = robust_train(&mut again, &tr_refs, &va_refs, &resumed_cfg, true).unwrap();
    assert_eq!(again.params, reference.params);
    assert_eq!(report2, ref_report);
}

#[test]
fn corrupt_training_checkpoint_falls_back_to_prev_and_still_matches() {
    let (tr, va) = small_data();
    let (tr_refs, va_refs) = (as_refs(&tr), as_refs(&va));
    let (reference, ref_report) = run_uninterrupted(&tr_refs, &va_refs);

    let dir = tmp_dir("fallback");
    let ckpt = dir.join("train.stcp");
    let mut cfg = RobustTrainConfig::new(schedule(1));
    cfg.checkpoint_path = Some(ckpt.clone());
    cfg.stop_after = Some(2);
    let mut model = small_model();
    robust_train(&mut model, &tr_refs, &va_refs, &cfg, false).unwrap();

    // Tear the newest snapshot; `.prev` (one epoch earlier) must carry the
    // resume, which then replays one extra epoch to the same final state.
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, corrupt(&bytes, CorruptionKind::Flip)).unwrap();
    assert!(prev_path(&ckpt).exists());

    let mut resumed_cfg = RobustTrainConfig::new(schedule(1));
    resumed_cfg.checkpoint_path = Some(ckpt.clone());
    let mut resumed = small_model();
    let report = robust_train(&mut resumed, &tr_refs, &va_refs, &resumed_cfg, true).unwrap();
    assert_eq!(resumed.params, reference.params);
    assert_eq!(report, ref_report);

    // An intact envelope of the retired v2 format is unusable: resume is a
    // typed checkpoint error, not a misread.
    let mut v2 = std::fs::read(&ckpt).unwrap();
    assert_eq!(v2[4..6], TRAIN_CKPT_VERSION.to_le_bytes());
    v2[4..6].copy_from_slice(&2u16.to_le_bytes());
    std::fs::write(&ckpt, &v2).unwrap();
    std::fs::write(prev_path(&ckpt), &v2).unwrap();
    let err = robust_train(&mut small_model(), &tr_refs, &va_refs, &resumed_cfg, true).unwrap_err();
    assert_eq!(err.exit_code(), 4, "a v2 checkpoint is CheckpointCorrupt: {err}");

    // With both snapshots torn, resume is a typed checkpoint error. (The
    // successful resume above re-wrote a valid complete checkpoint, so tear
    // the current file again too.)
    std::fs::write(&ckpt, b"garbage").unwrap();
    std::fs::write(prev_path(&ckpt), b"garbage").unwrap();
    let err = robust_train(&mut small_model(), &tr_refs, &va_refs, &resumed_cfg, true).unwrap_err();
    assert_eq!(err.exit_code(), 4, "unusable checkpoints are CheckpointCorrupt: {err}");
}

#[test]
fn resume_rejects_mismatched_run_configuration() {
    let (tr, va) = small_data();
    let (tr_refs, va_refs) = (as_refs(&tr), as_refs(&va));

    let dir = tmp_dir("mismatch");
    let ckpt = dir.join("train.stcp");
    let mut cfg = RobustTrainConfig::new(schedule(1));
    cfg.checkpoint_path = Some(ckpt.clone());
    cfg.stop_after = Some(1);
    let mut model = small_model();
    robust_train(&mut model, &tr_refs, &va_refs, &cfg, false).unwrap();

    // Different seed → different run; the checkpoint must refuse it.
    let mut other = RobustTrainConfig::new(TrainConfig { seed: 1, ..schedule(1) });
    other.checkpoint_path = Some(ckpt.clone());
    let err = robust_train(&mut small_model(), &tr_refs, &va_refs, &other, true).unwrap_err();
    assert_eq!(err.exit_code(), 2, "schedule mismatch is a config error: {err}");
    assert!(err.to_string().contains("schedule"), "{err}");

    // Different training data → refused by fingerprint.
    let mut fewer = tr_refs.clone();
    fewer.pop();
    let err = robust_train(&mut small_model(), &fewer, &va_refs, &cfg, true).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("fingerprint") || err.to_string().contains("size"), "{err}");

    // The same graphs as flow examples are another task → refused by fingerprint.
    let flow_refs: Vec<FlowLabeledGraph<'_>> = tr
        .examples
        .iter()
        .map(|e| (&e.graph, e.labels.as_slice(), e.flow_labels.as_slice()))
        .collect();
    let err = robust_train(&mut small_model(), &flow_refs, &va_refs, &cfg, true).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("fingerprint"), "{err}");
}
