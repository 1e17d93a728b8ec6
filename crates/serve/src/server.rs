//! The in-process inference server: every request predicts on its caller's
//! thread, against one model epoch.
//!
//! A handle's `predict_batch` clones the current `Arc<ModelEpoch>` once and
//! predicts the whole request on it, fanning out through
//! [`ParallelPredictor`] when [`ServeConfig::workers`] is above 1. So a
//! caller's result always comes from a single epoch — a hot swap can never
//! hand it a torn mix of old and new weights — and it comes from the same
//! [`snowcat_core::DeployedModel`] a direct `Pic` runs, so it is
//! bit-identical to direct inference.
//!
//! Requests never wait on one another: the server holds no queue and
//! spawns no thread, and a request takes only the swap cell's read lock and
//! the memo's lock, neither across a forward pass. Concurrent callers share
//! the epoch's prediction memo. After [`InferenceServer::shutdown`] a
//! handle still predicts the same way, and counts the request in
//! [`crate::ServingReport::shed`].

use crate::model::{ApGate, EpochPredictor, ModelEpoch, SwapCell, SwapOutcome};
use crate::stats::{LatencyHistogram, ServingReport};
use snowcat_core::{CoveragePredictor, ParallelPredictor, PredictedCoverage, PredictorStats};
use snowcat_events::{EventSink, ServeEvent};
use snowcat_graph::CtGraph;
use snowcat_nn::Checkpoint;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Emit a [`ServeEvent::Snapshot`] every this many requests.
const SNAPSHOT_EVERY: u64 = 64;

/// Server settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Not read: requests are never coalesced. Kept so that existing
    /// callers still compile.
    pub max_batch: usize,
    /// Not read: no request waits. Kept so that existing callers still
    /// compile.
    pub max_wait_us: u64,
    /// Inference worker threads per request (1 = serial on the caller's
    /// thread).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { max_batch: 64, max_wait_us: 500, workers: 1 }
    }
}

struct Shared {
    workers: usize,
    model: SwapCell,
    stopped: AtomicBool,
    requests: AtomicU64,
    inferences: AtomicU64,
    predictions: AtomicU64,
    shed: AtomicU64,
    latency: LatencyHistogram,
    events: Option<EventSink>,
}

impl Shared {
    fn emit(&self, e: ServeEvent) {
        if let Some(s) = &self.events {
            s.serve(e);
        }
    }

    /// Predict `graphs` on the current epoch, on the calling thread.
    fn predict(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        let start = Instant::now();
        let epoch = self.model.current();
        let out = if self.workers > 1 {
            ParallelPredictor::new(EpochPredictor::new(epoch), self.workers).predict_batch(graphs)
        } else {
            epoch.deployed.predict(graphs)
        };
        self.inferences.fetch_add(graphs.len() as u64, Ordering::Relaxed);
        self.predictions.fetch_add(1, Ordering::Relaxed);
        self.latency.record(start.elapsed().as_micros() as u64);
        out
    }

    fn snapshot_event(&self) -> ServeEvent {
        ServeEvent::Snapshot {
            requests: self.requests.load(Ordering::Relaxed),
            graphs: self.inferences.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            p50_us: self.latency.percentile(0.5),
            p99_us: self.latency.percentile(0.99),
        }
    }

    fn report(&self) -> ServingReport {
        let cur = self.model.current();
        ServingReport {
            requests: self.requests.load(Ordering::Relaxed),
            graphs: self.inferences.load(Ordering::Relaxed),
            flushes: self.predictions.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queue_depth_max: 0,
            batch_fill: 0.0,
            p50_us: self.latency.percentile(0.5),
            p99_us: self.latency.percentile(0.99),
            swaps: self.model.installs(),
            epoch: cur.epoch,
            model_name: cur.name.clone(),
        }
    }
}

/// Cloneable, thread-safe client of an [`InferenceServer`].
///
/// Implements [`CoveragePredictor`], so it plugs into everything that
/// takes one — [`snowcat_core::PredictorService`], campaign explorers,
/// worker pools. Any number of threads may share one handle or hold clones;
/// a handle that never sends costs nothing.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("name", &self.name()).finish()
    }
}

impl ServerHandle {
    /// Point-in-time serving report (same data as the owning server's).
    pub fn report(&self) -> ServingReport {
        self.shared.report()
    }
}

impl CoveragePredictor for ServerHandle {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        let shared = &*self.shared;
        let requests = shared.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let out = if graphs.is_empty() {
            Vec::new()
        } else {
            if shared.stopped.load(Ordering::Relaxed) {
                shared.shed.fetch_add(1, Ordering::Relaxed);
            }
            shared.predict(graphs)
        };
        if requests.is_multiple_of(SNAPSHOT_EVERY) {
            shared.emit(shared.snapshot_event());
        }
        out
    }

    fn stats(&self) -> PredictorStats {
        let s = &self.shared;
        PredictorStats::of_inference_counts(
            s.inferences.load(Ordering::Relaxed),
            s.requests.load(Ordering::Relaxed),
        )
    }

    fn fingerprint(&self) -> u64 {
        // The served model's fingerprint, so callers can tell the epochs
        // of a hot swap apart.
        self.shared.model.current().fingerprint
    }

    fn name(&self) -> String {
        format!("serve({})", self.shared.model.current().name)
    }
}

/// The long-lived inference server: owns the model behind a [`SwapCell`]
/// and the counters its handles update.
pub struct InferenceServer {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceServer").field("report", &self.shared.report()).finish()
    }
}

impl InferenceServer {
    /// Start serving `checkpoint` under `cfg`, emitting serving events to
    /// `events` when provided.
    pub fn start(checkpoint: &Checkpoint, cfg: ServeConfig, events: Option<EventSink>) -> Self {
        let shared = Arc::new(Shared {
            workers: cfg.workers.max(1),
            model: SwapCell::new(ModelEpoch::from_checkpoint(checkpoint, 0)),
            stopped: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            inferences: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            events,
        });
        shared.emit(ServeEvent::Started { model: checkpoint.name.clone() });
        Self { shared }
    }

    /// A new client handle. Handles stay valid after `shutdown`.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: self.shared.clone() }
    }

    /// The epoch currently being served.
    pub fn current_epoch(&self) -> Arc<ModelEpoch> {
        self.shared.model.current()
    }

    /// Point-in-time serving report.
    pub fn report(&self) -> ServingReport {
        self.shared.report()
    }

    /// The event sink serving events go to, when one was provided.
    pub fn events(&self) -> Option<&EventSink> {
        self.shared.events.as_ref()
    }

    /// Offer `candidate` as the next served model.
    ///
    /// The swap is one serialized transaction: (1) a structurally broken
    /// candidate (non-finite weights, bogus threshold) is **rejected**
    /// before install; (2) otherwise the candidate is installed atomically
    /// — in-flight requests finish on the epoch they already hold; (3) when
    /// `gate` carries validation data, the AP-regression breaker compares
    /// candidate vs. incumbent and **rolls back** to the incumbent's
    /// weights if the candidate is worse by more than the gate tolerance.
    pub fn try_swap(&self, candidate: &Checkpoint, gate: &ApGate) -> SwapOutcome {
        let shared = &self.shared;
        let _serial = shared.model.lock_swaps();
        let epoch_no = shared.model.claim_epoch();

        if let Err(reason) = candidate.sanity_check() {
            shared.emit(ServeEvent::SwapRejected { epoch: epoch_no, reason: reason.clone() });
            return SwapOutcome::Rejected { epoch: epoch_no, reason };
        }

        let incumbent = shared.model.current();
        let cand = ModelEpoch::from_checkpoint(candidate, epoch_no);
        let (name, fingerprint) = (cand.name.clone(), cand.fingerprint);
        shared.model.install(cand);
        shared.emit(ServeEvent::SwapInstalled { epoch: epoch_no, name, fingerprint });

        if !gate.is_empty() {
            let installed = shared.model.current();
            let candidate_ap = gate.ap(installed.deployed.model()).expect("gate non-empty");
            let incumbent_ap = gate.ap(incumbent.deployed.model()).expect("gate non-empty");
            if candidate_ap + gate.tolerance() < incumbent_ap {
                shared.model.rollback();
                shared.emit(ServeEvent::SwapRolledBack {
                    epoch: epoch_no,
                    candidate_ap,
                    incumbent_ap,
                });
                return SwapOutcome::RolledBack { epoch: epoch_no, candidate_ap, incumbent_ap };
            }
        }
        SwapOutcome::Installed { epoch: epoch_no }
    }

    /// Stop serving: emit [`ServeEvent::Stopped`] and return the final
    /// report, which counts every request that returned before `shutdown`
    /// was called. Later requests still predict, counted as shed.
    /// Idempotent.
    pub fn shutdown(&mut self) -> ServingReport {
        let shared = &*self.shared;
        let was_running = !shared.stopped.swap(true, Ordering::Relaxed);
        let report = shared.report();
        if was_running {
            shared.emit(ServeEvent::Stopped {
                requests: report.requests,
                graphs: report.graphs,
                swaps: report.swaps,
            });
        }
        report
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
