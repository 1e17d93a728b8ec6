//! Fault-injection integration suite for the campaign supervisor.
//!
//! Proves the robustness acceptance criteria end to end:
//!
//! * an **empty fault plan** reproduces the plain paper campaign, pinned by
//!   a digest of its history and bug list,
//! * **injected hangs** are retried with fresh seeds and, when persistent,
//!   quarantined — the campaign always completes,
//! * **checkpoint corruption** is detected and falls back to the previous
//!   good snapshot,
//! * a campaign **killed mid-run and resumed** from its checkpoint finishes
//!   with a byte-identical final state.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    CampaignResult, CostModel, ExploreConfig, Explorer, Pic, SnowcatError, StrategyKind,
};
use snowcat_corpus::{random_cti_pairs, StiFuzzer, StiProfile};
use snowcat_harness::{
    load_checkpoint_with_fallback, prev_path, run_supervised_campaign, FaultPlan, SupervisorConfig,
};
use snowcat_kernel::{generate, GenConfig, Kernel};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
use std::path::PathBuf;

fn setup(stream_len: usize) -> (Kernel, KernelCfg, Vec<StiProfile>, Vec<(usize, usize)>) {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let mut fz = StiFuzzer::new(&k, 1);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let stream = random_cti_pairs(&mut rng, corpus.len(), stream_len);
    (k, cfg, corpus, stream)
}

/// An uninterrupted, unfaulted campaign: the reference every recovery path
/// must converge on.
fn uninterrupted(
    k: &Kernel,
    corpus: &[StiProfile],
    stream: &[(usize, usize)],
    explorer: Explorer<'_, '_>,
    ecfg: &ExploreConfig,
    cost: &CostModel,
) -> CampaignResult {
    let sup = SupervisorConfig::new();
    run_supervised_campaign(k, corpus, stream, explorer, ecfg, cost, &sup, None).unwrap().result
}

/// FNV-1a over the JSON of a campaign's `(history, bugs_found)`.
fn campaign_digest(res: &CampaignResult) -> u64 {
    let json = serde_json::to_string(&(&res.history, &res.bugs_found)).unwrap();
    json.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

fn tmp_ckpt(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snowcat-fault-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("campaign.ckpt")
}

#[test]
fn empty_plan_is_bit_identical_to_unsupervised_pct() {
    let (k, _, corpus, stream) = setup(6);
    let ecfg = ExploreConfig::default().with_exec_budget(6);
    let cost = CostModel::default();
    let sup = SupervisorConfig::new();
    let supervised =
        run_supervised_campaign(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost, &sup, None)
            .unwrap();
    // Digest of the plain paper campaign's (history, bugs_found) on this
    // fixture, pinned from the standalone loop the supervisor replaced.
    assert_eq!(campaign_digest(&supervised.result), 0x271c_d918_4944_fb5f);
    assert_eq!(supervised.result.history.len(), stream.len());
    assert_eq!(supervised.result.label, "PCT");
    assert!(supervised.quarantined.is_empty());
    assert_eq!(supervised.recovery.hung_attempts, 0);
    assert_eq!(supervised.recovery.retries, 0);
    assert!(supervised.predictor_stats.is_none());
}

#[test]
fn empty_plan_is_bit_identical_to_unsupervised_mlpct() {
    let (k, cfg_k, corpus, stream) = setup(5);
    let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
    let ck = Checkpoint::new(&model, 0.5, "t");
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_inference_cap(40);
    let cost = CostModel::default();

    let pic = Pic::new(&ck, &k, &cfg_k);
    let sup = SupervisorConfig::new();
    let supervised = run_supervised_campaign(
        &k,
        &corpus,
        &stream,
        Explorer::mlpct(&pic, StrategyKind::S1.build()),
        &ecfg,
        &cost,
        &sup,
        None,
    )
    .unwrap();
    // Pinned like the PCT case above.
    assert_eq!(campaign_digest(&supervised.result), 0x3f24_7fe6_0449_fbbc);
    assert_eq!(supervised.result.history.len(), stream.len());
    assert!(supervised.predictor_stats.is_some(), "MLPCT reports predictor stats");
}

#[test]
fn persistent_hangs_are_quarantined_and_campaign_completes() {
    let (k, _, corpus, stream) = setup(6);
    let ecfg = ExploreConfig::default().with_exec_budget(4);
    let cost = CostModel::default();
    // Position 2 hangs through the initial attempt AND both retries.
    let mut sup = SupervisorConfig::new();
    sup.fault_plan = FaultPlan::parse("hang@2x3").unwrap();
    assert_eq!(sup.max_retries, 2);
    let supervised =
        run_supervised_campaign(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost, &sup, None)
            .unwrap();
    assert_eq!(supervised.quarantined, vec![stream[2]], "the hung pair is quarantined");
    assert_eq!(supervised.recovery.quarantined, 1);
    assert_eq!(supervised.recovery.hung_attempts, 3);
    assert_eq!(supervised.recovery.retries, 2);
    assert!(supervised.recovery.wasted_executions > 0);
    // The quarantined position contributes no history point; everything
    // else does.
    assert_eq!(supervised.result.history.len(), stream.len() - 1);
    // Positional seeding: all *other* CTIs match the unfaulted run
    // exactly (quarantine never shifts later seeds).
    let plain = uninterrupted(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost);
    for h in &supervised.result.history {
        let reference = plain.history[h.ctis - 1];
        assert_eq!(h.ctis, reference.ctis);
    }
}

#[test]
fn transient_hangs_recover_via_retry_with_fresh_seed() {
    let (k, _, corpus, stream) = setup(6);
    let ecfg = ExploreConfig::default().with_exec_budget(4);
    let cost = CostModel::default();
    // Position 1 hangs once, then the retry (fresh seed, full fuel) works.
    let mut sup = SupervisorConfig::new();
    sup.fault_plan = FaultPlan::parse("hang@1").unwrap();
    let supervised =
        run_supervised_campaign(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost, &sup, None)
            .unwrap();
    assert!(supervised.quarantined.is_empty(), "one hang then recovery: no quarantine");
    assert_eq!(supervised.recovery.hung_attempts, 1);
    assert_eq!(supervised.recovery.retries, 1);
    assert_eq!(supervised.result.history.len(), stream.len(), "every CTI produced a point");
    // Hung-attempt executions are wasted, not accumulated.
    assert_eq!(supervised.recovery.wasted_executions, ecfg.exec_budget as u64);
}

#[test]
fn corrupted_checkpoint_write_falls_back_to_previous_good_snapshot() {
    let (k, _, corpus, stream) = setup(6);
    let ecfg = ExploreConfig::default().with_exec_budget(4);
    let cost = CostModel::default();
    let path = tmp_ckpt("corrupt-write");
    let mut sup = SupervisorConfig::new();
    sup.checkpoint_path = Some(path.clone());
    sup.checkpoint_every = 2;
    // Writes land at positions 2, 4, 6 plus the final write; corrupt the
    // last (4th) one so `.prev` (position 6) is the newest good snapshot.
    sup.fault_plan = FaultPlan::parse("ckpt@4:flip").unwrap();
    run_supervised_campaign(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost, &sup, None).unwrap();
    let (ck, fell_back) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(fell_back, "the corrupted current snapshot must be rejected");
    assert_eq!(ck.position, 6, "fallback is the previous good write");
    assert!(prev_path(&path).exists());

    // Resuming from the fallback runs the tail again and converges on the
    // uninterrupted result.
    let resumed = run_supervised_campaign(
        &k,
        &corpus,
        &stream,
        Explorer::Pct,
        &ecfg,
        &cost,
        &SupervisorConfig::new(),
        Some(ck),
    )
    .unwrap();
    let plain = uninterrupted(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost);
    assert_eq!(resumed.result.history, plain.history);
}

#[test]
fn stop_and_resume_is_bit_identical_to_uninterrupted_run() {
    let (k, _, corpus, stream) = setup(8);
    let ecfg = ExploreConfig::default().with_exec_budget(5);
    let cost = CostModel::default();
    let path = tmp_ckpt("stop-resume");

    let plain = uninterrupted(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost);

    // First run: process 3 CTIs, checkpoint, stop (in-process kill).
    let mut first = SupervisorConfig::new();
    first.checkpoint_path = Some(path.clone());
    first.checkpoint_every = 100; // only the stop_after / final writes fire
    first.stop_after = Some(3);
    let partial =
        run_supervised_campaign(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost, &first, None)
            .unwrap();
    assert_eq!(partial.result.history.len(), 3);

    // Second run: resume from the checkpoint and finish.
    let (ck, fell_back) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(!fell_back);
    assert_eq!(ck.position, 3);
    let resumed = run_supervised_campaign(
        &k,
        &corpus,
        &stream,
        Explorer::Pct,
        &ecfg,
        &cost,
        &SupervisorConfig::new(),
        Some(ck),
    )
    .unwrap();
    assert_eq!(resumed.resumed_from, Some(3));
    assert_eq!(resumed.result.history, plain.history, "kill+resume is bit-identical");
    assert_eq!(resumed.result.bugs_found, plain.bugs_found);
}

#[test]
fn mlpct_stop_and_resume_restores_strategy_memory() {
    let (k, cfg_k, corpus, stream) = setup(6);
    let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
    let ck = Checkpoint::new(&model, 0.5, "t");
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_inference_cap(40);
    let cost = CostModel::default();
    let path = tmp_ckpt("mlpct-resume");

    let pic = Pic::new(&ck, &k, &cfg_k);
    let plain = uninterrupted(
        &k,
        &corpus,
        &stream,
        Explorer::mlpct(&pic, StrategyKind::S1.build()),
        &ecfg,
        &cost,
    );

    let mut first = SupervisorConfig::new();
    first.checkpoint_path = Some(path.clone());
    first.stop_after = Some(2);
    let pic2 = Pic::new(&ck, &k, &cfg_k);
    run_supervised_campaign(
        &k,
        &corpus,
        &stream,
        Explorer::mlpct(&pic2, StrategyKind::S1.build()),
        &ecfg,
        &cost,
        &first,
        None,
    )
    .unwrap();

    let (snap, _) = load_checkpoint_with_fallback(&path).unwrap();
    assert!(snap.strategy.is_some(), "MLPCT checkpoints carry the strategy snapshot");
    let pic3 = Pic::new(&ck, &k, &cfg_k);
    let resumed = run_supervised_campaign(
        &k,
        &corpus,
        &stream,
        Explorer::mlpct(&pic3, StrategyKind::S1.build()),
        &ecfg,
        &cost,
        &SupervisorConfig::new(),
        Some(snap),
    )
    .unwrap();
    assert_eq!(
        resumed.result.history, plain.history,
        "resumed MLPCT (restored strategy memory) matches the uninterrupted run"
    );
}

#[test]
fn resume_with_mismatched_explorer_or_seed_is_a_config_error() {
    let (k, _, corpus, stream) = setup(4);
    let ecfg = ExploreConfig::default().with_exec_budget(4);
    let cost = CostModel::default();
    let path = tmp_ckpt("mismatch");
    let mut sup = SupervisorConfig::new();
    sup.checkpoint_path = Some(path.clone());
    run_supervised_campaign(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost, &sup, None).unwrap();
    let (ck, _) = load_checkpoint_with_fallback(&path).unwrap();

    // Wrong base seed.
    let wrong_seed = ecfg.with_seed(ecfg.seed ^ 1);
    let err = run_supervised_campaign(
        &k,
        &corpus,
        &stream,
        Explorer::Pct,
        &wrong_seed,
        &cost,
        &SupervisorConfig::new(),
        Some(ck),
    )
    .unwrap_err();
    assert!(matches!(err, SnowcatError::Config(_)), "seed mismatch is a config error: {err}");
    assert_eq!(err.exit_code(), 2);
}
