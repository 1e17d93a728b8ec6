//! End-to-end: a supervised MLPCT campaign whose predictions go through a
//! live inference server is bit-identical to one predicting directly (no
//! refresh), and the online-refresh loop runs, consumes the campaign's
//! fresh CTs, and leaves the event stream self-consistent.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{CostModel, ExploreConfig, Explorer, Pic, SnowcatError, StrategyKind};
use snowcat_corpus::{random_cti_pairs, StiFuzzer, StiProfile};
use snowcat_harness::{run_supervised_campaign, SupervisorConfig};
use snowcat_kernel::{generate, GenConfig, Kernel};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
use snowcat_serve::{
    run_served_campaign, ApGate, RefreshConfig, ServeConfig, ServedCampaignConfig,
};

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

fn checkpoint() -> Checkpoint {
    let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
    Checkpoint::new(&model, 0.5, "t")
}

#[test]
fn served_campaign_without_refresh_is_bit_identical_to_direct() -> Result<(), SnowcatError> {
    let (k, kcfg, corpus, stream) = setup(5);
    let ck = checkpoint();
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_inference_cap(40);
    let cost = CostModel::default();
    let sup = SupervisorConfig::new();

    let pic = Pic::new(&ck, &k, &kcfg);
    let direct = run_supervised_campaign(
        &k,
        &corpus,
        &stream,
        Explorer::mlpct(&pic, StrategyKind::S1.build()),
        &ecfg,
        &cost,
        &sup,
        None,
    )?;

    let served = run_served_campaign(
        &k,
        &kcfg,
        &corpus,
        &stream,
        &ck,
        &ecfg,
        &cost,
        &sup,
        &ApGate::disabled(),
        &ServedCampaignConfig {
            serve: ServeConfig::default(),
            strategy: StrategyKind::S1,
            refresh: None,
        },
        None,
    )?;

    assert_eq!(served.result.result.history, direct.result.history);
    assert_eq!(served.result.result.bugs_found, direct.result.bugs_found);
    assert_eq!(served.result.result.label, direct.result.label);
    assert!(served.refresh.is_none());
    assert_eq!(served.serving.swaps, 0, "frozen model: no swap ever happens");
    assert!(served.serving.graphs > 0, "inference actually went through the server");
    let stats = served.result.predictor_stats.expect("MLPCT records predictor stats");
    assert_eq!(
        stats.inferences(),
        served.serving.graphs,
        "every campaign inference went through the server"
    );
    Ok(())
}

#[test]
fn served_campaign_with_refresh_consumes_fresh_cts() -> Result<(), SnowcatError> {
    let (k, kcfg, corpus, stream) = setup(6);
    let ck = checkpoint();
    let ecfg = ExploreConfig::default().with_exec_budget(3).with_inference_cap(30);
    let cost = CostModel::default();
    let sup = SupervisorConfig::new();

    let served = run_served_campaign(
        &k,
        &kcfg,
        &corpus,
        &stream,
        &ck,
        &ecfg,
        &cost,
        &sup,
        &ApGate::disabled(),
        &ServedCampaignConfig {
            serve: ServeConfig::default(),
            strategy: StrategyKind::S1,
            refresh: Some(RefreshConfig {
                min_pairs: 2,
                interleavings_per_cti: 2,
                epochs: 1,
                batch: 4,
                max_refreshes: 2,
                poll_ms: 1,
                ..RefreshConfig::default()
            }),
        },
        None,
    )?;

    let refresh = served.refresh.expect("refresher ran");
    assert!(refresh.refreshes >= 1, "fresh CTs triggered at least one refresh round");
    assert!(refresh.pairs_consumed >= 2);
    assert_eq!(
        refresh.installed + refresh.rejected + refresh.rolled_back,
        refresh.refreshes,
        "every refresh round ends in exactly one swap outcome"
    );
    // Fine-tuned candidates pass sanity gating; with a disabled AP gate
    // they install, and the serving report reflects it.
    assert_eq!(served.serving.swaps, refresh.installed);
    Ok(())
}
