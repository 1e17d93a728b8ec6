//! Online model refresh: fine-tune on freshly executed CTs and offer the
//! result to the server's hot-swap gate.
//!
//! The refresher is the training half of predictor-as-a-service. A
//! campaign pushes each accepted concurrency-test execution into a
//! [`CtFeed`]; the refresher drains the feed, and once enough fresh pairs
//! have accumulated it builds a labeled dataset from them (executing the
//! schedules exactly as offline training does), fine-tunes a copy of the
//! currently served weights with [`snowcat_harness::robust_train`] — the
//! same anomaly-guarded trainer `snowcat train` uses — and offers the
//! candidate checkpoint to [`InferenceServer::try_swap`]. The swap gate,
//! not the refresher, decides whether the candidate ships: poisoned
//! weights are rejected outright and AP regressions are rolled back, so a
//! bad fine-tune can never degrade the serving path.

use crate::model::{ApGate, SwapOutcome};
use crate::server::InferenceServer;
use snowcat_cfg::KernelCfg;
use snowcat_corpus::{build_dataset, DatasetConfig, StiProfile};
use snowcat_events::ServeEvent;
use snowcat_harness::{CtFeed, RobustTrainConfig};
use snowcat_kernel::Kernel;
use snowcat_nn::{Checkpoint, LabeledGraph, TrainConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Refresh scheduling and fine-tune hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshConfig {
    /// Fresh CT pairs to accumulate before a refresh round starts.
    pub min_pairs: usize,
    /// Interleavings executed per pair when labeling the refresh dataset.
    pub interleavings_per_cti: usize,
    /// Fine-tune epochs per refresh round.
    pub epochs: usize,
    /// Fine-tune learning rate (typically well below the from-scratch
    /// rate: the incumbent is already trained).
    pub lr: f32,
    /// Fine-tune minibatch size.
    pub batch: usize,
    /// Base seed; each round salts it with its ordinal.
    pub seed: u64,
    /// Feed polling interval while below `min_pairs`.
    pub poll_ms: u64,
    /// Stop after this many refresh rounds (0 = unbounded, until `stop`).
    pub max_refreshes: u64,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        Self {
            min_pairs: 16,
            interleavings_per_cti: 4,
            epochs: 2,
            lr: 5e-3,
            batch: 8,
            seed: 0x5EED_F00D,
            poll_ms: 5,
            max_refreshes: 0,
        }
    }
}

/// What a refresher run accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct RefreshReport {
    /// Refresh rounds attempted.
    pub refreshes: u64,
    /// Candidates installed and kept.
    pub installed: u64,
    /// Candidates rejected before install.
    pub rejected: u64,
    /// Candidates installed then rolled back by the AP breaker.
    pub rolled_back: u64,
    /// Fresh CT pairs consumed from the feed.
    pub pairs_consumed: u64,
}

/// Drive refresh rounds until `stop` is set (and, past `max_refreshes`
/// rounds, sooner). Intended to run on its own thread next to a campaign;
/// leftover feed entries below the `min_pairs` threshold are abandoned at
/// stop rather than trained on (a final under-sized fine-tune is noise).
#[allow(clippy::too_many_arguments)]
pub fn run_refresher(
    server: &InferenceServer,
    feed: &CtFeed,
    kernel: &Kernel,
    kcfg: &KernelCfg,
    corpus: &[StiProfile],
    gate: &ApGate,
    rcfg: &RefreshConfig,
    stop: &AtomicBool,
) -> RefreshReport {
    let mut report = RefreshReport::default();
    let mut pending: Vec<(usize, usize)> = Vec::new();
    let min_pairs = rcfg.min_pairs.max(1);

    loop {
        pending.extend(feed.drain());
        if pending.len() < min_pairs {
            if stop.load(Ordering::Relaxed) {
                return report;
            }
            std::thread::sleep(Duration::from_millis(rcfg.poll_ms.max(1)));
            continue;
        }

        report.refreshes += 1;
        let ordinal = report.refreshes;
        let pairs: Vec<(usize, usize)> = std::mem::take(&mut pending);
        report.pairs_consumed += pairs.len() as u64;

        if let Some(outcome) =
            refresh_once(server, kernel, kcfg, corpus, &pairs, gate, rcfg, ordinal)
        {
            match outcome {
                SwapOutcome::Installed { .. } => report.installed += 1,
                SwapOutcome::Rejected { .. } => report.rejected += 1,
                SwapOutcome::RolledBack { .. } => report.rolled_back += 1,
            }
        }

        if stop.load(Ordering::Relaxed)
            || (rcfg.max_refreshes > 0 && report.refreshes >= rcfg.max_refreshes)
        {
            return report;
        }
    }
}

/// One refresh round: label the fresh pairs, fine-tune a copy of the
/// served weights, offer the candidate to the swap gate. Returns `None`
/// when the pairs produced no usable training examples.
#[allow(clippy::too_many_arguments)]
fn refresh_once(
    server: &InferenceServer,
    kernel: &Kernel,
    kcfg: &KernelCfg,
    corpus: &[StiProfile],
    pairs: &[(usize, usize)],
    gate: &ApGate,
    rcfg: &RefreshConfig,
    ordinal: u64,
) -> Option<SwapOutcome> {
    let incumbent = server.current_epoch();

    let ds = build_dataset(
        kernel,
        kcfg,
        corpus,
        pairs,
        DatasetConfig {
            interleavings_per_cti: rcfg.interleavings_per_cti.max(1),
            seed: rcfg.seed ^ ordinal,
        },
    );
    let train_set: Vec<LabeledGraph<'_>> =
        ds.examples.iter().map(|e| (&e.graph, e.labels.as_slice())).collect();
    if train_set.is_empty() {
        return None;
    }

    let valid = gate.labeled();
    let mut model = incumbent.deployed.model().clone();
    let tcfg = RobustTrainConfig::new(TrainConfig {
        epochs: rcfg.epochs.max(1),
        lr: rcfg.lr,
        batch: rcfg.batch.max(1),
        seed: rcfg.seed ^ ordinal.rotate_left(17),
        threads: 1,
    });
    if let Some(events) = server.events() {
        events.serve(ServeEvent::RefreshStarted { ordinal, examples: train_set.len() as u64 });
    }
    // An anomalous fine-tune (NaN/Inf retries exhausted, divergence breaker)
    // aborts this round; the incumbent keeps serving untouched.
    snowcat_harness::robust_train(&mut model, &train_set, &valid, &tcfg, false).ok()?;

    let name = incumbent.deployed.name();
    let base = name.split("+r").next().unwrap_or(name);
    // Keep the incumbent's tuned threshold: AP gating is threshold-free
    // and the refresh set is too small to re-tune F2 meaningfully.
    let candidate =
        Checkpoint::new(&model, incumbent.deployed.threshold(), &format!("{base}+r{ordinal}"));
    if let Some(events) = server.events() {
        events.serve(ServeEvent::CandidateReady {
            ordinal,
            name: candidate.name.clone(),
            fingerprint: snowcat_core::checkpoint_fingerprint(&candidate),
        });
    }
    Some(server.try_swap(&candidate, gate))
}
