//! The versioned event schema.
//!
//! Every emitted event travels inside an [`EventRecord`] envelope carrying
//! the schema version, a per-sink monotonic sequence number and a
//! microsecond timestamp relative to the sink's creation. The payload enums
//! are `#[non_exhaustive]`: downstream consumers must tolerate unknown
//! variants, which lets future releases add event kinds without a major
//! version bump.
//!
//! Floats are sanitized at emission time: the JSON exporter writes
//! non-finite floats as `null` (which would not round-trip), so every
//! `f64`-carrying variant maps NaN/±Inf to `0.0` before serialization.

use serde::{Deserialize, Serialize};

/// Version of the event schema; bumped when a variant's meaning or payload
/// changes incompatibly. Adding variants is *not* a version bump.
pub const EVENT_SCHEMA_VERSION: u16 = 1;

/// Events emitted by supervised campaigns and the predictor stack.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignEvent {
    /// Campaign entry: emitted once before the first position is processed.
    Started { label: String, seed: u64, ctis: u64, resumed_from: Option<u64> },
    /// One accepted concurrent-test execution (position advanced).
    ExecutionOutcome {
        position: u64,
        ct_a: u64,
        ct_b: u64,
        attempt: u64,
        executions: u64,
        new_races: u64,
        new_blocks: u64,
        latency_us: u64,
    },
    /// Wall-clock spent in a named campaign stage.
    StageTiming { stage: String, micros: u64 },
    /// Cumulative predictor-chain counters: `predict_batch` calls and graphs
    /// predicted.
    PredictorBatch { batches: u64, inferences: u64 },
    /// A checkpoint was persisted (and the previous one rotated to `.prev`).
    CheckpointWritten { path: String, position: u64, ordinal: u64, rotated: bool },
    /// An execution attempt hung (watchdog fired) and will be retried.
    HangDetected { position: u64, attempt: u64, injected: bool },
    /// A CT pair exhausted its retries and was quarantined.
    Quarantined { position: u64, ct_a: u64, ct_b: u64, attempts: u64 },
    /// Cumulative static-prefilter counters from a Razzer-PIC run: candidates
    /// dropped without a prediction (`vetoed`) vs candidates that reached GNN
    /// scoring (`survivors`), plus the may-race pair count of the filter in
    /// use and whether it was the alias-refined set.
    PrefilterStats { vetoed: u64, survivors: u64, may_race_pairs: u64, refined: bool },
    /// A fault-plan entry fired (e.g. `hang@3`, `ckpt@2:flip`).
    FaultInjected { entry: String, position: u64 },
    /// Campaign exit: final cumulative counts.
    Finished {
        label: String,
        executions: u64,
        inferences: u64,
        races: u64,
        harmful_races: u64,
        blocks: u64,
        bugs: u64,
        quarantined: u64,
        sim_hours: f64,
    },
}

/// Events emitted by the robust trainer.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainEvent {
    /// Training entry: emitted once before the first (resumed) epoch.
    Started { epochs: u64, examples: u64, resumed_epoch: Option<u64> },
    /// A dataset shard failed validation and was quarantined at load time.
    ShardQuarantined { path: String, reason: String },
    /// An epoch's accepted attempt completed.
    EpochCompleted { epoch: u64, attempt: u64, loss: f64, val_ap: Option<f64> },
    /// The anomaly guard rejected an attempt.
    AnomalyDetected { epoch: u64, attempt: u64, kind: String, detail: String },
    /// Model/optimizer/RNG state was rolled back for a retry.
    RolledBack { epoch: u64, attempt: u64 },
    /// A training checkpoint was persisted.
    CheckpointWritten { path: String, epoch: u64, complete: bool },
    /// Training exit (also emitted on divergence with `diverged: true`).
    Finished {
        epochs: u64,
        best_epoch: Option<u64>,
        best_val_ap: Option<f64>,
        early_stopped: bool,
        diverged: bool,
    },
}

/// Events emitted by the inference server (`snowcat-serve`): serving
/// counters, online refresh, and atomic hot model swap.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeEvent {
    /// Server came up serving `model`.
    Started { model: String },
    /// Periodic cumulative serving counters (emitted every 64 requests, not
    /// per request, so the stream stays proportional to campaign progress).
    Snapshot { requests: u64, graphs: u64, shed: u64, p50_us: u64, p99_us: u64 },
    /// An online-refresh fine-tune began on freshly executed CTs.
    RefreshStarted { ordinal: u64, examples: u64 },
    /// A refresh fine-tune produced a candidate model for the swap gate.
    CandidateReady { ordinal: u64, name: String, fingerprint: u64 },
    /// A candidate was atomically installed (in-flight requests finished on
    /// the previous weights).
    SwapInstalled { epoch: u64, name: String, fingerprint: u64 },
    /// The gate refused a candidate before install (e.g. non-finite weights).
    SwapRejected { epoch: u64, reason: String },
    /// The AP-regression gate fired after install: previous weights restored.
    SwapRolledBack { epoch: u64, candidate_ap: f64, incumbent_ap: f64 },
    /// Server shut down.
    Stopped { requests: u64, graphs: u64, swaps: u64 },
}

/// Events emitted by the fleet coordinator: shard leasing, heartbeat
/// misses, work-stealing, and the rolled-up SCFC fleet checkpoint.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// Coordinator entry: emitted once before the first shard is leased.
    Started { workers: u64, shards: u64, stream_len: u64, resumed: bool },
    /// A shard was leased to a worker with a heartbeat deadline.
    ShardLeased { shard: u64, worker: u64, generation: u64, deadline_ms: u64 },
    /// A lease-holder missed its heartbeat deadline; the lease is revoked.
    LeaseExpired { shard: u64, worker: u64, deadline_ms: u64 },
    /// A worker was declared dead (panicked, killed, or lease-revoked).
    WorkerLost { worker: u64, shard: u64, detail: String },
    /// A revoked shard was re-leased to another worker, resuming from the
    /// dead worker's last checkpoint position.
    ShardStolen {
        shard: u64,
        from_worker: u64,
        to_worker: u64,
        generation: u64,
        resume_position: u64,
    },
    /// A shard ran to completion.
    ShardCompleted { shard: u64, worker: u64, executions: u64, races: u64 },
    /// A shard made no progress across the steal limit and was quarantined.
    ShardQuarantined { shard: u64, generations: u64 },
    /// A worker subprocess was spawned for a slot (process transport).
    WorkerSpawned { worker: u64, pid: u64, attempt: u64 },
    /// A spawned worker subprocess failed its handshake (timed out, died
    /// before reporting ready, or reported a mismatched campaign identity).
    WorkerHandshakeFailed { worker: u64, attempt: u64, detail: String },
    /// A dead worker slot was respawned after a backoff delay.
    WorkerRespawned { worker: u64, attempt: u64, backoff_ms: u64 },
    /// A worker slot died repeatedly and its crash-loop breaker fired: the
    /// slot retires instead of respawning forever.
    WorkerCrashLoop { worker: u64, deaths: u64, detail: String },
    /// Live workers dropped below the configured floor: the fleet
    /// checkpointed and stopped resumable instead of limping along.
    FleetDegraded { live_workers: u64, min_workers: u64 },
    /// The rolled-up SCFC fleet checkpoint was persisted.
    CheckpointWritten { path: String, done_shards: u64, ordinal: u64, rotated: bool },
    /// Coordinator exit: merged cumulative counts.
    Finished {
        shards: u64,
        steals: u64,
        reexecutions: u64,
        lost_workers: u64,
        quarantined_shards: u64,
        executions: u64,
        races: u64,
    },
    /// Coordinator exit on a failed or degraded fleet (exit code 8), with
    /// the error it returned. The SCFC stays on disk for a resume.
    Failed { detail: String },
}

/// One leg of the schema, as stored in the envelope.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    Campaign(CampaignEvent),
    Train(TrainEvent),
    Serve(ServeEvent),
    Fleet(FleetEvent),
}

/// Envelope written to the stream: schema version, per-sink monotonic
/// sequence number, microseconds since the sink was created, payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    pub v: u16,
    pub seq: u64,
    pub t_us: u64,
    pub event: Event,
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl CampaignEvent {
    /// Map non-finite floats to `0.0` so the JSON exporter round-trips
    /// bit-exactly (the vendored writer emits NaN/Inf as `null`).
    pub fn sanitized(mut self) -> Self {
        if let CampaignEvent::Finished { sim_hours, .. } = &mut self {
            *sim_hours = finite(*sim_hours);
        }
        self
    }
}

impl TrainEvent {
    /// See [`CampaignEvent::sanitized`].
    pub fn sanitized(mut self) -> Self {
        match &mut self {
            TrainEvent::EpochCompleted { loss, val_ap, .. } => {
                *loss = finite(*loss);
                if let Some(v) = val_ap {
                    *v = finite(*v);
                }
            }
            TrainEvent::Finished { best_val_ap: Some(v), .. } => {
                *v = finite(*v);
            }
            _ => {}
        }
        self
    }
}

impl ServeEvent {
    /// See [`CampaignEvent::sanitized`].
    pub fn sanitized(mut self) -> Self {
        if let ServeEvent::SwapRolledBack { candidate_ap, incumbent_ap, .. } = &mut self {
            *candidate_ap = finite(*candidate_ap);
            *incumbent_ap = finite(*incumbent_ap);
        }
        self
    }
}

impl Event {
    pub fn sanitized(self) -> Self {
        match self {
            Event::Campaign(e) => Event::Campaign(e.sanitized()),
            Event::Train(e) => Event::Train(e.sanitized()),
            Event::Serve(e) => Event::Serve(e.sanitized()),
            // Fleet events carry no floats; nothing to sanitize.
            Event::Fleet(e) => Event::Fleet(e),
        }
    }

    /// Short stable tag for the variant (used by the Perfetto exporter and
    /// the human-readable status view).
    pub fn tag(&self) -> &'static str {
        match self {
            Event::Campaign(e) => match e {
                CampaignEvent::Started { .. } => "campaign.started",
                CampaignEvent::ExecutionOutcome { .. } => "campaign.execution",
                CampaignEvent::StageTiming { .. } => "campaign.stage",
                CampaignEvent::PredictorBatch { .. } => "campaign.predictor_batch",
                CampaignEvent::CheckpointWritten { .. } => "campaign.checkpoint",
                CampaignEvent::HangDetected { .. } => "campaign.hang",
                CampaignEvent::Quarantined { .. } => "campaign.quarantine",
                CampaignEvent::PrefilterStats { .. } => "campaign.prefilter",
                CampaignEvent::FaultInjected { .. } => "campaign.fault",
                CampaignEvent::Finished { .. } => "campaign.finished",
            },
            Event::Train(e) => match e {
                TrainEvent::Started { .. } => "train.started",
                TrainEvent::ShardQuarantined { .. } => "train.shard_quarantined",
                TrainEvent::EpochCompleted { .. } => "train.epoch",
                TrainEvent::AnomalyDetected { .. } => "train.anomaly",
                TrainEvent::RolledBack { .. } => "train.rollback",
                TrainEvent::CheckpointWritten { .. } => "train.checkpoint",
                TrainEvent::Finished { .. } => "train.finished",
            },
            Event::Serve(e) => match e {
                ServeEvent::Started { .. } => "serve.started",
                ServeEvent::Snapshot { .. } => "serve.snapshot",
                ServeEvent::RefreshStarted { .. } => "serve.refresh",
                ServeEvent::CandidateReady { .. } => "serve.candidate",
                ServeEvent::SwapInstalled { .. } => "serve.swap",
                ServeEvent::SwapRejected { .. } => "serve.swap_rejected",
                ServeEvent::SwapRolledBack { .. } => "serve.swap_rollback",
                ServeEvent::Stopped { .. } => "serve.stopped",
            },
            Event::Fleet(e) => match e {
                FleetEvent::Started { .. } => "fleet.started",
                FleetEvent::ShardLeased { .. } => "fleet.lease",
                FleetEvent::LeaseExpired { .. } => "fleet.lease_expired",
                FleetEvent::WorkerLost { .. } => "fleet.worker_lost",
                FleetEvent::ShardStolen { .. } => "fleet.steal",
                FleetEvent::ShardCompleted { .. } => "fleet.shard_done",
                FleetEvent::ShardQuarantined { .. } => "fleet.shard_quarantined",
                FleetEvent::WorkerSpawned { .. } => "fleet.worker_spawned",
                FleetEvent::WorkerHandshakeFailed { .. } => "fleet.worker_handshake_failed",
                FleetEvent::WorkerRespawned { .. } => "fleet.worker_respawned",
                FleetEvent::WorkerCrashLoop { .. } => "fleet.worker_crash_loop",
                FleetEvent::FleetDegraded { .. } => "fleet.degraded",
                FleetEvent::CheckpointWritten { .. } => "fleet.checkpoint",
                FleetEvent::Finished { .. } => "fleet.finished",
                FleetEvent::Failed { .. } => "fleet.failed",
            },
        }
    }

    /// True for the terminal events that end a stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Campaign(CampaignEvent::Finished { .. })
                | Event::Train(TrainEvent::Finished { .. })
                | Event::Serve(ServeEvent::Stopped { .. })
                | Event::Fleet(FleetEvent::Finished { .. } | FleetEvent::Failed { .. })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_non_finite_to_zero() {
        let e = Event::Train(TrainEvent::EpochCompleted {
            epoch: 1,
            attempt: 0,
            loss: f64::NAN,
            val_ap: Some(f64::INFINITY),
        })
        .sanitized();
        match e {
            Event::Train(TrainEvent::EpochCompleted { loss, val_ap, .. }) => {
                assert_eq!(loss, 0.0);
                assert_eq!(val_ap, Some(0.0));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = EventRecord {
            v: EVENT_SCHEMA_VERSION,
            seq: 3,
            t_us: 1234,
            event: Event::Campaign(CampaignEvent::ExecutionOutcome {
                position: 7,
                ct_a: 1,
                ct_b: 2,
                attempt: 0,
                executions: 42,
                new_races: 1,
                new_blocks: 5,
                latency_us: 900,
            }),
        };
        let s = serde_json::to_string(&rec).unwrap();
        let back: EventRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(back, rec);
    }
}
