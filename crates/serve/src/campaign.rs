//! Glue: run a supervised MLPCT campaign whose inference goes through a
//! live [`InferenceServer`], optionally with an online refresher thread
//! fine-tuning on the campaign's own freshly executed CTs.
//!
//! The campaign side is unchanged plumbing: a [`snowcat_core::Pic`] still
//! builds the CT graphs (it borrows the kernel image), but the
//! [`snowcat_core::PredictorService`] routes inference through a
//! [`crate::ServerHandle`] instead of calling the model directly. Because
//! the server replays the exact per-graph computation of
//! [`snowcat_core::Pic::predict_batch`], a served campaign with refresh
//! disabled is bit-identical to a direct one.

use crate::model::ApGate;
use crate::refresh::{run_refresher, RefreshConfig, RefreshReport};
use crate::server::{InferenceServer, ServeConfig};
use crate::stats::ServingReport;
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    CostModel, CoveragePredictor, ExploreConfig, Explorer, Pic, PredictorService, SnowcatError,
    StrategyKind,
};
use snowcat_corpus::StiProfile;
use snowcat_harness::{
    run_supervised_campaign, CampaignCheckpoint, CtFeed, SupervisedResult, SupervisorConfig,
};
use snowcat_kernel::Kernel;
use snowcat_nn::Checkpoint;
use std::sync::atomic::{AtomicBool, Ordering};

/// Capacity of the fresh-CT feed between campaign and refresher (oldest
/// pairs are dropped on overflow).
const FEED_CAP: usize = 1024;

/// How to serve a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedCampaignConfig {
    /// Server settings.
    pub serve: ServeConfig,
    /// MLPCT candidate-selection strategy.
    pub strategy: StrategyKind,
    /// Online refresh; `None` serves a frozen model.
    pub refresh: Option<RefreshConfig>,
}

impl Default for ServedCampaignConfig {
    fn default() -> Self {
        Self { serve: ServeConfig::default(), strategy: StrategyKind::S1, refresh: None }
    }
}

/// Everything a served campaign produced.
#[derive(Debug)]
pub struct ServedCampaignOutcome {
    /// The supervised campaign result (races, history, recovery log).
    pub result: SupervisedResult,
    /// Final serving report (throughput, latency percentiles, swaps).
    pub serving: ServingReport,
    /// Refresher tally, when refresh was enabled.
    pub refresh: Option<RefreshReport>,
}

/// Run a supervised MLPCT campaign through a live inference server.
///
/// Starts the server on `checkpoint`, wires every accepted execution's CT
/// pair into a [`CtFeed`], runs the refresher (when configured) on a
/// sibling thread, and shuts the server down after the campaign.
#[allow(clippy::too_many_arguments)]
pub fn run_served_campaign(
    kernel: &Kernel,
    kcfg: &KernelCfg,
    corpus: &[StiProfile],
    stream: &[(usize, usize)],
    checkpoint: &Checkpoint,
    explore_cfg: &ExploreConfig,
    cost: &CostModel,
    sup: &SupervisorConfig,
    gate: &ApGate,
    scfg: &ServedCampaignConfig,
    resume: Option<CampaignCheckpoint>,
) -> Result<ServedCampaignOutcome, SnowcatError> {
    let mut server = InferenceServer::start(checkpoint, scfg.serve.clone(), sup.events.clone());
    let handle = server.handle();
    let pic = Pic::new(checkpoint, kernel, kcfg);

    let feed = CtFeed::bounded(FEED_CAP);
    let mut sup = sup.clone();
    if scfg.refresh.is_some() {
        sup.fresh_cts = Some(feed.clone());
    }

    let stop = AtomicBool::new(false);
    let (result, refresh) = crossbeam::thread::scope(|s| {
        let refresher = scfg.refresh.as_ref().map(|rcfg| {
            let server = &server;
            let feed = &feed;
            let stop = &stop;
            s.spawn(move |_| run_refresher(server, feed, kernel, kcfg, corpus, gate, rcfg, stop))
        });

        let service = PredictorService::with(&pic, &handle as &dyn CoveragePredictor);
        let explorer = Explorer::MlPct { service, strategy: scfg.strategy.build() };
        let result = run_supervised_campaign(
            kernel,
            corpus,
            stream,
            explorer,
            explore_cfg,
            cost,
            &sup,
            resume,
        );
        stop.store(true, Ordering::Relaxed);
        let refresh = refresher.map(|h| h.join().expect("refresher thread panicked"));
        (result, refresh)
    })
    .expect("served-campaign scope panicked");

    let serving = server.shutdown();
    Ok(ServedCampaignOutcome { result: result?, serving, refresh })
}
