//! # snowcat-core — the Snowcat concurrency-testing framework
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`pic`] — the deployed coverage predictor (model + threshold + graphs),
//!   with a bounded memo so each distinct CT graph costs one forward pass,
//! * [`strategy`] — CT-candidate selection strategies S1/S2/S3 (§3.3),
//! * [`mlpct`] — per-CTI interleaving exploration: PCT baseline vs MLPCT
//!   (§5.3.1),
//! * [`campaign`] — the explorer choice and the result shape of a
//!   cumulative campaign (Figure 5); the loop itself is
//!   `snowcat_harness::run_supervised_campaign`,
//! * [`razzer`] — directed race reproduction: Razzer / Razzer-Relax /
//!   Razzer-PIC (§5.6.1, Table 4),
//! * [`prefilter`] — sound static may-race pre-filter that vetoes and
//!   ranks CT candidates before GNN scoring (built on `snowcat-analysis`),
//! * [`snowboard`] — INS-PAIR clustering and exemplar sampling: SB-RND /
//!   SB-PIC (§5.6.2, Table 5),
//! * [`costmodel`] — the execution/inference cost model and the §A.6
//!   analytic filter economics,
//! * [`pipeline`] — end-to-end data collection + training + tuning,
//! * [`predictor`] — the unified [`predictor::CoveragePredictor`] service:
//!   batched inference, Table-1 baselines, a parallel worker-pool wrapper
//!   and the [`predictor::PredictorService`] bundle,
//! * [`error`] — [`error::SnowcatError`] and checkpoint/dataset I/O helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod costmodel;
pub mod error;
pub mod mlpct;
pub mod pic;
pub mod pipeline;
pub mod predictor;
pub mod prefilter;
pub mod razzer;
pub mod snowboard;
pub mod strategy;
pub mod triage;

pub use campaign::{CampaignResult, Explorer, HistoryPoint, StrategyKind};
pub use costmodel::{filter_economics, simulate_filter, CostModel, FilterEconomics};
pub use error::{
    decode_dataset_auto, decode_model_checkpoint_framed, encode_model_checkpoint_framed,
    load_checkpoint, load_dataset, save_checkpoint, save_checkpoint_json, save_dataset,
    SnowcatError, MIN_MODEL_VERSION, MODEL_MAGIC, MODEL_VERSION,
};
pub use mlpct::{explore_mlpct, explore_pct, ExploreConfig, ExploreOutcome};
pub use pic::{checkpoint_fingerprint, DeployedModel, Pic, PredictedCoverage};
pub use pipeline::{
    as_flow_labeled, as_labeled, collect_data, fine_tune, pretrain_encoder, train_on,
    train_on_with_flows, train_pic, CollectedData, PipelineConfig, PipelineOutput, PipelineSummary,
};
pub use predictor::{
    graph_fingerprint, BaselineService, CoveragePredictor, FlowPredictor, ParallelPredictor,
    PredictorService, PredictorStats,
};
pub use prefilter::RacePrefilter;
pub use razzer::{
    find_candidates, find_candidates_prefiltered, racing_blocks, reproduce, RazzerMode, ReproResult,
};
pub use snowboard::{
    cluster_ctis, member_exposes_bug, predict_members, run_sampling_trials, sample_cluster,
    ClusterMember, InsPair, Sampler, SamplingOutcome,
};
pub use strategy::{
    S1NewBitmap, S2NewBlocks, S3LimitedTrials, SelectionStrategy, StrategySnapshot,
};
pub use triage::{render_findings, triage, Finding};
