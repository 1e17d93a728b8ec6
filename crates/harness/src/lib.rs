//! Fault-tolerant campaign supervision for the Snowcat reproduction.
//!
//! Long concurrency-testing campaigns die for reasons that have nothing to
//! do with the kernel under test: a schedule wedges the guest, a worker
//! thread panics, the host reboots. The paper's artifact survives these by
//! supervising the loop; this crate is that layer for the reproduction,
//! built from these pieces:
//!
//! * [`checkpoint`] — checksummed, atomically-rotated campaign snapshots
//!   with `.prev` fallback,
//! * [`fault`] — deterministic fault injection to prove the recovery paths,
//! * [`supervisor`] — the campaign loop itself, with these pieces as hooks:
//!   retry hung schedules with fresh seeds, quarantine repeat offenders,
//!   checkpoint periodically, resume exactly,
//! * [`trainer`] — the same discipline for training, as a hook on the one
//!   epoch loop (`snowcat_nn::train`): epoch-granular bit-exact checkpoints
//!   (STCP), anomaly guards with rollback and salted retries, and
//!   shard-quarantining data loading,
//! * [`fleet`] — a fault-tolerant campaign fleet: sharded workers behind
//!   one [`fleet::FleetWorker`] seam, lease-based work stealing with
//!   heartbeat deadlines, and crash-consistent SCFC fleet checkpoints
//!   whose shard merges are order-independent,
//! * [`transport`] + [`process_worker`] — the process transport for that
//!   seam: `snowcat fleet-worker` subprocesses speaking a length-prefixed
//!   CRC-framed stdin/stdout protocol, supervised with spawn timeouts,
//!   respawn backoff, a crash-loop breaker, kill-on-drop orphan reaping,
//!   and graceful degradation below a `--min-workers` floor.
//!
//! [`run_supervised_campaign`] is the only campaign loop in the tree: with
//! [`SupervisorConfig::new()`] (no faults injected, no fuel override, no
//! checkpointing) it is the plain paper campaign, so robustness costs
//! nothing on the happy path. Likewise, [`trainer::robust_train`] is
//! [`snowcat_nn::train()`] under a supervising hook: when no guard trips, its
//! model is bit-identical to the plain loop's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fault;
pub mod feed;
pub mod fleet;
pub mod process_worker;
pub mod reporting;
pub mod supervisor;
pub mod trainer;
pub mod transport;

pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, load_checkpoint_with_fallback, load_with_fallback,
    prev_path, save_bytes_atomic, save_checkpoint_atomic, CampaignCheckpoint, CKPT_MAGIC,
    CKPT_VERSION,
};
pub use fault::{corrupt, CheckpointFault, CorruptionKind, FaultPlan, HangFault};
pub use feed::CtFeed;
pub use fleet::{
    clear_fleet_dir, decode_fleet_checkpoint, encode_fleet_checkpoint,
    load_fleet_checkpoint_with_fallback, partition_stream, run_fleet, save_fleet_checkpoint_atomic,
    shard_ckpt_path, FleetCheckpoint, FleetConfig, FleetWorker, LeaseSignal, ShardAssignment,
    ShardMerge, ShardState, ShardStatus, ThreadWorker, WorkerFault, FLEET_CKPT_FILE, FLEET_MAGIC,
    FLEET_VERSION,
};
pub use process_worker::{respawn_backoff, serve_worker, ProcessWorker, WorkerCommand};
pub use reporting::{
    predictor_counters, report_from_campaign_checkpoint, report_from_fleet_checkpoint,
    report_from_supervised, report_from_train, report_from_train_checkpoint,
};
pub use supervisor::{run_supervised_campaign, RecoveryLog, SupervisedResult, SupervisorConfig};
pub use trainer::{
    decode_train_checkpoint, encode_train_checkpoint, load_shards_quarantining,
    load_train_checkpoint_with_fallback, loss_diverged, params_crc32, report_from_checkpoint,
    robust_train, save_train_checkpoint_atomic, AnomalyEvent, QuarantineReport, RobustTrainConfig,
    ShardIssue, TrainCheckpoint, TrainEpochFault, TrainFaultKind, TrainFaultPlan, TrainRunReport,
    TRAIN_CKPT_MAGIC, TRAIN_CKPT_VERSION,
};
pub use transport::{
    read_frame, write_frame, WireAssignment, WireMsg, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION,
};
